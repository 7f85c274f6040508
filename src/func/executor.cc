#include "func/executor.hh"

#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace ctcp {

namespace {

double
asDouble(std::int64_t bits)
{
    return std::bit_cast<double>(bits);
}

std::int64_t
asBits(double value)
{
    return std::bit_cast<std::int64_t>(value);
}

// Two's-complement wrapping arithmetic: several workloads iterate
// transforms in place and rely on defined overflow behaviour.
std::int64_t
wrapAdd(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapSub(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapMul(std::int64_t a, std::int64_t b)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                     static_cast<std::uint64_t>(b));
}

std::int64_t
wrapShl(std::int64_t a, unsigned sh)
{
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) << sh);
}

} // namespace

Executor::Executor(const Program &program)
    : program_(program), pc_(program.entry())
{
    reset();
}

void
Executor::reset()
{
    regs_.fill(0);
    mem_ = SparseMemory();
    for (const DataBlock &block : program_.data())
        mem_.writeWords(block.base, block.words.data(), block.words.size());
    pc_ = program_.entry();
    nextSeq_ = 0;
    halted_ = false;
}

std::int64_t
Executor::readReg(RegId r) const
{
    if (r == zeroReg || r == invalidReg)
        return 0;
    ctcp_assert(r < numArchRegs, "register id %u out of range",
                static_cast<unsigned>(r));
    return regs_[r];
}

void
Executor::writeReg(RegId r, std::int64_t value)
{
    if (r == zeroReg || r == invalidReg)
        return;
    ctcp_assert(r < numArchRegs, "register id %u out of range",
                static_cast<unsigned>(r));
    regs_[r] = value;
}

bool
Executor::step(DynInst &out)
{
    ctcp_assert(!halted_, "step() after Halt");

    const Instruction &inst = program_.fetch(pc_);
    const std::int64_t a = readReg(inst.src1);
    const std::int64_t b = readReg(inst.src2);

    out = DynInst();
    out.seq = nextSeq_++;
    out.pc = pc_;
    out.op = inst.op;
    out.dst = inst.dst;
    out.src1 = inst.src1;
    out.src2 = inst.src2;

    Addr next_pc = pc_ + 1;
    std::int64_t result = 0;
    bool has_result = inst.info().writesDst;

    switch (inst.op) {
      case Opcode::Add:  result = wrapAdd(a, b); break;
      case Opcode::Sub:  result = wrapSub(a, b); break;
      case Opcode::And:  result = a & b; break;
      case Opcode::Or:   result = a | b; break;
      case Opcode::Xor:  result = a ^ b; break;
      case Opcode::Sll:  result = wrapShl(a, b & 63); break;
      case Opcode::Srl:
        result = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(a) >> (b & 63));
        break;
      case Opcode::Sra:  result = a >> (b & 63); break;
      case Opcode::Slt:  result = a < b ? 1 : 0; break;
      case Opcode::Sltu:
        result = static_cast<std::uint64_t>(a) < static_cast<std::uint64_t>(b)
            ? 1 : 0;
        break;
      case Opcode::AddI: result = wrapAdd(a, inst.imm); break;
      case Opcode::AndI: result = a & inst.imm; break;
      case Opcode::OrI:  result = a | inst.imm; break;
      case Opcode::XorI: result = a ^ inst.imm; break;
      case Opcode::SllI: result = wrapShl(a, inst.imm & 63); break;
      case Opcode::SrlI:
        result = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(a) >> (inst.imm & 63));
        break;
      case Opcode::SltI: result = a < inst.imm ? 1 : 0; break;
      case Opcode::MovI: result = inst.imm; break;
      case Opcode::Mov:  result = a; break;

      case Opcode::Mul:  result = wrapMul(a, b); break;
      case Opcode::Div:  result = b == 0 ? 0 : a / b; break;
      case Opcode::Rem:  result = b == 0 ? 0 : a % b; break;

      case Opcode::Load:
        out.effAddr = static_cast<Addr>(a + inst.imm) & ~Addr(7);
        result = mem_.read(out.effAddr);
        break;
      case Opcode::Store:
        out.effAddr = static_cast<Addr>(a + inst.imm) & ~Addr(7);
        mem_.write(out.effAddr, b);
        break;
      case Opcode::FLoad:
        out.effAddr = static_cast<Addr>(a + inst.imm) & ~Addr(7);
        result = mem_.read(out.effAddr);
        break;
      case Opcode::FStore:
        out.effAddr = static_cast<Addr>(a + inst.imm) & ~Addr(7);
        mem_.write(out.effAddr, b);
        break;

      case Opcode::Beq:
      case Opcode::Bne:
      case Opcode::Blt:
      case Opcode::Bge: {
        bool taken = false;
        switch (inst.op) {
          case Opcode::Beq: taken = a == b; break;
          case Opcode::Bne: taken = a != b; break;
          case Opcode::Blt: taken = a < b; break;
          case Opcode::Bge: taken = a >= b; break;
          default: break;
        }
        out.taken = taken;
        out.targetPc = static_cast<Addr>(inst.imm);
        if (taken)
            next_pc = out.targetPc;
        break;
      }
      case Opcode::Jump:
        out.taken = true;
        out.targetPc = static_cast<Addr>(inst.imm);
        next_pc = out.targetPc;
        break;
      case Opcode::JumpReg:
        out.taken = true;
        out.targetPc = static_cast<Addr>(a);
        next_pc = out.targetPc;
        break;
      case Opcode::Call:
        out.taken = true;
        out.targetPc = static_cast<Addr>(inst.imm);
        result = static_cast<std::int64_t>(pc_ + 1);
        next_pc = out.targetPc;
        break;
      case Opcode::Ret:
        out.taken = true;
        out.targetPc = static_cast<Addr>(a);
        next_pc = out.targetPc;
        break;

      case Opcode::FAdd:   result = asBits(asDouble(a) + asDouble(b)); break;
      case Opcode::FSub:   result = asBits(asDouble(a) - asDouble(b)); break;
      case Opcode::FNeg:   result = asBits(-asDouble(a)); break;
      case Opcode::FCmpLt: result = asDouble(a) < asDouble(b) ? 1 : 0; break;
      case Opcode::FCvtIF: result = asBits(static_cast<double>(a)); break;
      case Opcode::FCvtFI: {
        const double v = asDouble(a);
        result = (std::isfinite(v) && v > -9.0e18 && v < 9.0e18)
            ? static_cast<std::int64_t>(v) : 0;
        break;
      }
      case Opcode::FMul:   result = asBits(asDouble(a) * asDouble(b)); break;
      case Opcode::FDiv:
        result = asDouble(b) == 0.0 ? 0
            : asBits(asDouble(a) / asDouble(b));
        break;
      case Opcode::FSqrt: {
        const double v = asDouble(a);
        result = v < 0.0 ? 0 : asBits(std::sqrt(v));
        break;
      }

      case Opcode::Nop:
        break;
      case Opcode::Halt:
        halted_ = true;
        break;

      default:
        ctcp_panic("unhandled opcode %u in executor",
                   static_cast<unsigned>(inst.op));
    }

    if (has_result)
        writeReg(inst.dst, result);

    out.nextPc = next_pc;
    pc_ = next_pc;
    return !halted_;
}

} // namespace ctcp
