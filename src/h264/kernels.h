// Cost kernels of the Motion Estimation hot spot — the functional
// counterparts of the SAD and SATD Special Instructions.
//
// Each kernel exists in two backends: a scalar reference and a portable
// fixed-width SIMD version (simd.h) that is bit-exact by construction —
// integer-only arithmetic, identical rounding, and (for SATD) the
// transpose-commutation of the Hadamard abs-sum. The public entry points
// dispatch on the process-wide backend; tests fuzz the two against each
// other (h264_kernels_test.cpp).
#pragma once

#include <cstdint>

#include "h264/frame.h"

namespace rispp::h264 {

enum class KernelBackend {
  kScalar,  // reference path, always available
  kSimd,    // GCC vector-extension path (simd.h)
};

/// True when the SIMD backend is compiled in (GCC/Clang vector extensions).
bool simd_available();

/// The backend the dispatching kernels currently use. Defaults to kSimd when
/// available.
KernelBackend active_kernel_backend();

/// Overrides the backend process-wide (benches and equivalence tests).
/// Selecting kSimd without simd_available() keeps the scalar path.
void set_kernel_backend(KernelBackend backend);

/// Sum of absolute differences over a 16x16 block. `cur` is addressed
/// in-bounds at (cx,cy); the reference candidate (rx,ry) is edge-clamped so
/// search windows may cross the frame border.
std::uint32_t sad_16x16(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);

/// 4x4 SATD: sum of absolute values of the 2-D Hadamard transform of the
/// residual, normalized by /2 as in the JM reference software.
std::uint32_t satd_4x4(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);

/// 16x16 SATD as the sum of its sixteen 4x4 SATDs.
std::uint32_t satd_16x16(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);

/// SATD of a 16x16 block against an in-memory prediction block (row-major
/// 16x16) — used for intra mode cost.
std::uint32_t satd_16x16_pred(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]);

// Backend-pinned variants (equivalence tests and micro benches).
std::uint32_t sad_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);
std::uint32_t sad_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);
std::uint32_t satd_16x16_scalar(const Plane& cur, int cx, int cy, const Plane& ref, int rx,
                                int ry);
std::uint32_t satd_16x16_simd(const Plane& cur, int cx, int cy, const Plane& ref, int rx, int ry);
std::uint32_t satd_16x16_pred_scalar(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]);
std::uint32_t satd_16x16_pred_simd(const Plane& cur, int cx, int cy, const Pixel pred[16 * 16]);

}  // namespace rispp::h264
