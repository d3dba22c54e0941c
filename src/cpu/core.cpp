#include "cpu/core.h"

#include "base/check.h"

namespace rispp::cpu {

Core::Core(std::size_t memory_bytes, PipelineTiming timing)
    : timing_(timing), memory_(memory_bytes, 0) {}

void Core::set_reg(Reg r, std::int32_t value) {
  if (r != kZero) regs_[r] = value;
}

std::uint8_t Core::load_byte(std::uint32_t address) const {
  RISPP_CHECK_MSG(address < memory_.size(), "byte load at " << address);
  return memory_[address];
}

void Core::store_byte(std::uint32_t address, std::uint8_t value) {
  RISPP_CHECK_MSG(address < memory_.size(), "byte store at " << address);
  memory_[address] = value;
}

std::int32_t Core::load_word(std::uint32_t address) const {
  RISPP_CHECK_MSG(address + 3 < memory_.size() && address % 4 == 0,
                  "word load at " << address);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | memory_[address + i];
  return static_cast<std::int32_t>(v);
}

void Core::store_word(std::uint32_t address, std::int32_t value) {
  RISPP_CHECK_MSG(address + 3 < memory_.size() && address % 4 == 0,
                  "word store at " << address);
  auto v = static_cast<std::uint32_t>(value);
  for (int i = 0; i < 4; ++i) {
    memory_[address + i] = static_cast<std::uint8_t>(v & 0xFF);
    v >>= 8;
  }
}

RunResult Core::run(const Program& program, std::uint64_t max_instructions) {
  RISPP_CHECK_MSG(program.finalized(), "finalize() the program first");
  const auto& code = program.instructions();
  RunResult result;

  std::uint32_t pc = 0;
  // Load-use hazard bookkeeping: destination of the previous instruction if
  // it was a load.
  int pending_load_reg = -1;

  while (result.instructions < max_instructions) {
    RISPP_CHECK_MSG(pc < code.size(), "pc " << pc << " out of program");
    const Instruction& inst = code[pc];
    ++result.instructions;
    Cycles cost = 1;

    // Load-use interlock: stall if this instruction reads the register the
    // previous load writes.
    if (pending_load_reg >= 0) {
      const auto uses = [&](std::uint8_t r) { return r == pending_load_reg; };
      bool hazard = false;
      switch (inst.op) {
        case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul:
        case Opcode::kAnd: case Opcode::kOr: case Opcode::kXor: case Opcode::kSlt:
          hazard = uses(inst.rs) || uses(inst.rt);
          break;
        case Opcode::kSll: case Opcode::kSrl: case Opcode::kSra:
        case Opcode::kAddi: case Opcode::kAndi: case Opcode::kOri: case Opcode::kSlti:
        case Opcode::kLw: case Opcode::kLbu:
          hazard = uses(inst.rs);
          break;
        case Opcode::kSw: case Opcode::kSb:
          hazard = uses(inst.rs) || uses(inst.rt);
          break;
        case Opcode::kBeq: case Opcode::kBne:
          hazard = uses(inst.rs) || uses(inst.rt);
          break;
        case Opcode::kBltz: case Opcode::kBgez: case Opcode::kJr:
          hazard = uses(inst.rs);
          break;
        default:
          break;
      }
      if (hazard) cost += timing_.load_use_stall;
    }
    pending_load_reg = is_load(inst.op) ? inst.rd : -1;

    std::uint32_t next_pc = pc + 1;
    bool taken = false;
    const auto rs = regs_[inst.rs];
    const auto rt = regs_[inst.rt];
    // The 32-bit datapath wraps around: add, subtract and multiply in
    // unsigned arithmetic (signed overflow would be undefined behaviour).
    const auto urs = static_cast<std::uint32_t>(rs);
    const auto urt = static_cast<std::uint32_t>(rt);
    const auto uimm = static_cast<std::uint32_t>(inst.imm);
    const auto set_wrapped = [&](std::uint32_t value) {
      set_reg(static_cast<Reg>(inst.rd), static_cast<std::int32_t>(value));
    };
    switch (inst.op) {
      case Opcode::kAdd: set_wrapped(urs + urt); break;
      case Opcode::kSub: set_wrapped(urs - urt); break;
      case Opcode::kMul:
        set_wrapped(urs * urt);
        cost += timing_.mul_extra_cycles;
        break;
      case Opcode::kAnd: set_reg(static_cast<Reg>(inst.rd), rs & rt); break;
      case Opcode::kOr: set_reg(static_cast<Reg>(inst.rd), rs | rt); break;
      case Opcode::kXor: set_reg(static_cast<Reg>(inst.rd), rs ^ rt); break;
      case Opcode::kSlt: set_reg(static_cast<Reg>(inst.rd), rs < rt ? 1 : 0); break;
      case Opcode::kSll:
        set_reg(static_cast<Reg>(inst.rd),
                static_cast<std::int32_t>(static_cast<std::uint32_t>(rs) << inst.imm));
        break;
      case Opcode::kSrl:
        set_reg(static_cast<Reg>(inst.rd),
                static_cast<std::int32_t>(static_cast<std::uint32_t>(rs) >> inst.imm));
        break;
      case Opcode::kSra: set_reg(static_cast<Reg>(inst.rd), rs >> inst.imm); break;
      case Opcode::kAddi: set_wrapped(urs + uimm); break;
      case Opcode::kAndi: set_reg(static_cast<Reg>(inst.rd), rs & inst.imm); break;
      case Opcode::kOri: set_reg(static_cast<Reg>(inst.rd), rs | inst.imm); break;
      case Opcode::kSlti: set_reg(static_cast<Reg>(inst.rd), rs < inst.imm ? 1 : 0); break;
      case Opcode::kLw:
        set_reg(static_cast<Reg>(inst.rd), load_word(urs + uimm));
        break;
      case Opcode::kLbu:
        set_reg(static_cast<Reg>(inst.rd), load_byte(urs + uimm));
        break;
      case Opcode::kSw: store_word(urs + uimm, rt); break;
      case Opcode::kSb:
        store_byte(urs + uimm, static_cast<std::uint8_t>(rt));
        break;
      case Opcode::kBeq: taken = rs == rt; break;
      case Opcode::kBne: taken = rs != rt; break;
      case Opcode::kBltz: taken = rs < 0; break;
      case Opcode::kBgez: taken = rs >= 0; break;
      case Opcode::kJ: taken = true; break;
      case Opcode::kJr:
        taken = true;
        next_pc = static_cast<std::uint32_t>(rs);
        break;
      case Opcode::kHalt:
        result.cycles += cost;
        result.halted = true;
        return result;
    }
    if (taken && inst.op != Opcode::kJr)
      next_pc = static_cast<std::uint32_t>(inst.imm);
    if (taken) {
      cost += timing_.taken_branch_penalty;
      pending_load_reg = -1;  // refill clears the interlock window
    }
    result.cycles += cost;
    pc = next_pc;
  }
  return result;
}

}  // namespace rispp::cpu
