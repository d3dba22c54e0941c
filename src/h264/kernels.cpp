#include "h264/kernels.h"

#include <atomic>
#include <cstdlib>

#include "h264/simd.h"

namespace rispp::h264 {
namespace {

/// In-place 4-point Hadamard butterfly (unnormalized).
inline void hadamard4(int& a, int& b, int& c, int& d) {
  const int s0 = a + c, s1 = b + d, s2 = a - c, s3 = b - d;
  a = s0 + s1;
  b = s2 + s3;
  c = s0 - s1;
  d = s2 - s3;
}

KernelBackend default_backend() {
  return simd_available() ? KernelBackend::kSimd : KernelBackend::kScalar;
}

std::atomic<KernelBackend>& backend_state() {
  static std::atomic<KernelBackend> state{default_backend()};
  return state;
}

}  // namespace

bool simd_available() {
#ifdef RISPP_SIMD
  return true;
#else
  return false;
#endif
}

KernelBackend active_kernel_backend() {
  return backend_state().load(std::memory_order_relaxed);
}

void set_kernel_backend(KernelBackend backend) {
  if (backend == KernelBackend::kSimd && !simd_available()) backend = KernelBackend::kScalar;
  backend_state().store(backend, std::memory_order_relaxed);
}

std::uint32_t sad_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                               int ry) {
  std::uint32_t acc = 0;
  const bool inside = rx >= 0 && ry >= 0 && rx + 16 <= ref.width() && ry + 16 <= ref.height();
  for (int y = 0; y < 16; ++y) {
    const Pixel* crow = cur.row(cy + y) + cx;
    if (inside) {
      const Pixel* rrow = ref.row(ry + y) + rx;
      for (int x = 0; x < 16; ++x) acc += static_cast<std::uint32_t>(std::abs(crow[x] - rrow[x]));
    } else {
      for (int x = 0; x < 16; ++x)
        acc += static_cast<std::uint32_t>(std::abs(crow[x] - ref.at_clamped(rx + x, ry + y)));
    }
  }
  return acc;
}

std::uint32_t satd_4x4(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  int d[16];
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x)
      d[y * 4 + x] = static_cast<int>(cur.at(cx + x, cy + y)) -
                     static_cast<int>(ref.at_clamped(rx + x, ry + y));
  // Horizontal then vertical butterflies.
  for (int y = 0; y < 4; ++y) hadamard4(d[y * 4 + 0], d[y * 4 + 1], d[y * 4 + 2], d[y * 4 + 3]);
  for (int x = 0; x < 4; ++x) hadamard4(d[0 + x], d[4 + x], d[8 + x], d[12 + x]);
  std::uint32_t acc = 0;
  for (int i = 0; i < 16; ++i) acc += static_cast<std::uint32_t>(std::abs(d[i]));
  return acc / 2;
}

std::uint32_t satd_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                                int ry) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4)
    for (int bx = 0; bx < 16; bx += 4)
      acc += satd_4x4(cur, cx + bx, cy + by, ref, rx + bx, ry + by);
  return acc;
}

std::uint32_t satd_16x16_pred_scalar(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4) {
    for (int bx = 0; bx < 16; bx += 4) {
      int d[16];
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          d[y * 4 + x] = static_cast<int>(cur.at(cx + bx + x, cy + by + y)) -
                         static_cast<int>(pred[(by + y) * 16 + bx + x]);
      for (int y = 0; y < 4; ++y)
        hadamard4(d[y * 4 + 0], d[y * 4 + 1], d[y * 4 + 2], d[y * 4 + 3]);
      for (int x = 0; x < 4; ++x) hadamard4(d[0 + x], d[4 + x], d[8 + x], d[12 + x]);
      std::uint32_t s = 0;
      for (int i = 0; i < 16; ++i) s += static_cast<std::uint32_t>(std::abs(d[i]));
      acc += s / 2;
    }
  }
  return acc;
}

#ifdef RISPP_SIMD

namespace {

using simd::i16x16;
using simd::i32x16;

/// 4-point Hadamard butterfly within each 4-lane group of one vector, via
/// shuffles. Output lanes come out as {y0, y2, y1, y3} of the scalar
/// hadamard4 — a within-group permutation, invisible to the abs-sum.
inline i16x16 hadamard4_groups(i16x16 v) {
  const i16x16 u =
      __builtin_shufflevector(v, v, 2, 3, 0, 1, 6, 7, 4, 5, 10, 11, 8, 9, 14, 15, 12, 13);
  const i16x16 s = v + u;  // lanes 0,1 of each group: a+c, b+d
  const i16x16 t = v - u;  // lanes 0,1 of each group: a-c, b-d
  const i16x16 w = __builtin_shufflevector(s, t, 0, 1, 16, 17, 4, 5, 20, 21, 8, 9, 24, 25, 12, 13,
                                           28, 29);  // {s0, s1, s2, s3}
  const i16x16 u2 =
      __builtin_shufflevector(w, w, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14);
  const i16x16 s2 = w + u2;
  const i16x16 t2 = w - u2;
  return __builtin_shufflevector(s2, t2, 0, 16, 2, 18, 4, 20, 6, 22, 8, 24, 10, 26, 12, 28, 14,
                                 30);  // {s0+s1, s0-s1, s2+s3, s2-s3}
}

/// SATD contribution of one 4-row band (four 4x4 blocks side by side): the
/// 2-D Hadamard is evaluated columns-first + lane-permuted — both exact-
/// integer-equal in abs-sum to the scalar rows-first order — and each
/// block's abs-sum is halved separately, exactly like the scalar kernel.
inline std::uint32_t satd_band(const Pixel* cur[4], const Pixel* pred[4]) {
  i16x16 d0 = simd::widen_i16(simd::load_u8x16(cur[0])) -
              simd::widen_i16(simd::load_u8x16(pred[0]));
  i16x16 d1 = simd::widen_i16(simd::load_u8x16(cur[1])) -
              simd::widen_i16(simd::load_u8x16(pred[1]));
  i16x16 d2 = simd::widen_i16(simd::load_u8x16(cur[2])) -
              simd::widen_i16(simd::load_u8x16(pred[2]));
  i16x16 d3 = simd::widen_i16(simd::load_u8x16(cur[3])) -
              simd::widen_i16(simd::load_u8x16(pred[3]));
  // Vertical (column) butterflies, lanewise across the four rows.
  const i16x16 s0 = d0 + d2, s1 = d1 + d3, s2 = d0 - d2, s3 = d1 - d3;
  i16x16 v0 = s0 + s1, v1 = s2 + s3, v2 = s0 - s1, v3 = s2 - s3;
  // Horizontal butterflies within each 4-lane group.
  v0 = hadamard4_groups(v0);
  v1 = hadamard4_groups(v1);
  v2 = hadamard4_groups(v2);
  v3 = hadamard4_groups(v3);
  // Coefficients reach +-4080, so per-lane column totals need 32 bits.
  const i32x16 tot = simd::widen_i32(simd::abs_lanes(v0)) + simd::widen_i32(simd::abs_lanes(v1)) +
                     simd::widen_i32(simd::abs_lanes(v2)) + simd::widen_i32(simd::abs_lanes(v3));
  std::uint32_t acc = 0;
  for (int b = 0; b < 4; ++b) {
    const std::uint32_t s = static_cast<std::uint32_t>(tot[4 * b + 0] + tot[4 * b + 1] +
                                                       tot[4 * b + 2] + tot[4 * b + 3]);
    acc += s / 2;
  }
  return acc;
}

}  // namespace

std::uint32_t sad_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  const bool inside = rx >= 0 && ry >= 0 && rx + 16 <= ref.width() && ry + 16 <= ref.height();
  if (!inside) return sad_16x16_scalar(cur, cx, cy, ref, rx, ry);
  i16x16 acc{};  // per-lane max 16 * 255 = 4080, no i16 overflow
  for (int y = 0; y < 16; ++y) {
    const i16x16 c = simd::widen_i16(simd::load_u8x16(cur.row(cy + y) + cx));
    const i16x16 r = simd::widen_i16(simd::load_u8x16(ref.row(ry + y) + rx));
    acc += simd::abs_lanes(c - r);
  }
  return simd::horizontal_sum_u32(acc);
}

std::uint32_t satd_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                              int ry) {
  const bool inside = rx >= 0 && ry >= 0 && rx + 16 <= ref.width() && ry + 16 <= ref.height();
  if (!inside) return satd_16x16_scalar(cur, cx, cy, ref, rx, ry);
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4) {
    const Pixel* crow[4];
    const Pixel* rrow[4];
    for (int y = 0; y < 4; ++y) {
      crow[y] = cur.row(cy + by + y) + cx;
      rrow[y] = ref.row(ry + by + y) + rx;
    }
    acc += satd_band(crow, rrow);
  }
  return acc;
}

std::uint32_t satd_16x16_pred_simd(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  std::uint32_t acc = 0;
  for (int by = 0; by < 16; by += 4) {
    const Pixel* crow[4];
    const Pixel* prow[4];
    for (int y = 0; y < 4; ++y) {
      crow[y] = cur.row(cy + by + y) + cx;
      prow[y] = pred + (by + y) * 16;
    }
    acc += satd_band(crow, prow);
  }
  return acc;
}

#else  // !RISPP_SIMD

std::uint32_t sad_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  return sad_16x16_scalar(cur, cx, cy, ref, rx, ry);
}

std::uint32_t satd_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                              int ry) {
  return satd_16x16_scalar(cur, cx, cy, ref, rx, ry);
}

std::uint32_t satd_16x16_pred_simd(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  return satd_16x16_pred_scalar(cur, cx, cy, pred);
}

#endif  // RISPP_SIMD

std::uint32_t sad_16x16(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  return active_kernel_backend() == KernelBackend::kSimd ? sad_16x16_simd(cur, cx, cy, ref, rx, ry)
                                                         : sad_16x16_scalar(cur, cx, cy, ref, rx,
                                                                            ry);
}

std::uint32_t satd_16x16(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry) {
  return active_kernel_backend() == KernelBackend::kSimd
             ? satd_16x16_simd(cur, cx, cy, ref, rx, ry)
             : satd_16x16_scalar(cur, cx, cy, ref, rx, ry);
}

std::uint32_t satd_16x16_pred(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]) {
  return active_kernel_backend() == KernelBackend::kSimd
             ? satd_16x16_pred_simd(cur, cx, cy, pred)
             : satd_16x16_pred_scalar(cur, cx, cy, pred);
}

}  // namespace rispp::h264
