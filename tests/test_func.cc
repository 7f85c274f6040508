/**
 * @file
 * Unit tests for the functional simulator: arithmetic semantics,
 * memory, control flow and the emitted DynInst stream.
 */

#include <bit>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "func/executor.hh"
#include "prog/builder.hh"

namespace ctcp {
namespace {

/** Run @p program to Halt, returning all committed records. */
std::vector<DynInst>
runAll(const Program &program)
{
    Executor exec(program);
    std::vector<DynInst> out;
    DynInst d;
    bool more = true;
    while (more && out.size() < 100000) {
        more = exec.step(d);
        out.push_back(d);
    }
    EXPECT_LT(out.size(), 100000u) << "program failed to halt";
    return out;
}

TEST(Executor, IntegerArithmetic)
{
    ProgramBuilder b("arith");
    b.movi(intReg(1), 7);
    b.movi(intReg(2), 3);
    b.add(intReg(3), intReg(1), intReg(2));
    b.sub(intReg(4), intReg(1), intReg(2));
    b.mul(intReg(5), intReg(1), intReg(2));
    b.div(intReg(6), intReg(1), intReg(2));
    b.rem(intReg(7), intReg(1), intReg(2));
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(3)), 10);
    EXPECT_EQ(exec.readReg(intReg(4)), 4);
    EXPECT_EQ(exec.readReg(intReg(5)), 21);
    EXPECT_EQ(exec.readReg(intReg(6)), 2);
    EXPECT_EQ(exec.readReg(intReg(7)), 1);
}

TEST(Executor, DivideByZeroYieldsZero)
{
    ProgramBuilder b("div0");
    b.movi(intReg(1), 5);
    b.div(intReg(2), intReg(1), zeroReg);
    b.rem(intReg(3), intReg(1), zeroReg);
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(2)), 0);
    EXPECT_EQ(exec.readReg(intReg(3)), 0);
}

TEST(Executor, ShiftsAndLogic)
{
    ProgramBuilder b("shifts");
    b.movi(intReg(1), -8);
    b.srli(intReg(2), intReg(1), 1);     // logical
    b.movi(intReg(3), 1);
    b.sra(intReg(4), intReg(1), intReg(3));   // arithmetic
    b.slli(intReg(5), intReg(3), 4);
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(2)),
              static_cast<std::int64_t>(static_cast<std::uint64_t>(-8) >> 1));
    EXPECT_EQ(exec.readReg(intReg(4)), -4);
    EXPECT_EQ(exec.readReg(intReg(5)), 16);
}

TEST(Executor, ZeroRegisterIsHardwired)
{
    ProgramBuilder b("zero");
    b.movi(zeroReg, 99);   // discarded
    b.add(intReg(1), zeroReg, zeroReg);
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(zeroReg), 0);
    EXPECT_EQ(exec.readReg(intReg(1)), 0);
}

TEST(Executor, LoadStoreRoundTrip)
{
    ProgramBuilder b("mem");
    b.movi(intReg(1), 0x1000);
    b.movi(intReg(2), 1234);
    b.store(intReg(2), intReg(1), 8);
    b.load(intReg(3), intReg(1), 8);
    b.halt();
    Program p = b.build();
    auto stream = runAll(p);
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(3)), 1234);
    EXPECT_EQ(stream[2].effAddr, 0x1008u);
    EXPECT_EQ(stream[3].effAddr, 0x1008u);
}

TEST(Executor, DataBlocksInstalled)
{
    ProgramBuilder b("init");
    b.data(0x2000, {5, 6, 7});
    b.movi(intReg(1), 0x2000);
    b.load(intReg(2), intReg(1), 16);
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(2)), 7);
}

TEST(SparseMemory, WriteWordsMatchesOneWritePerWord)
{
    // Blocks start anywhere (unaligned bases included) and cross page
    // boundaries; later blocks overwrite earlier ones.
    Rng rng(0x9a6e5u);
    SparseMemory paged, reference;
    std::vector<Addr> probes;
    for (unsigned b = 0; b < 200; ++b) {
        const Addr base = rng.below(1 << 20);
        std::vector<std::int64_t> words(rng.below(2000));
        for (std::int64_t &w : words)
            w = static_cast<std::int64_t>(rng.next());
        paged.writeWords(base, words.data(), words.size());
        for (std::size_t i = 0; i < words.size(); ++i) {
            reference.write(base + 8 * i, words[i]);
            probes.push_back(base + 8 * i);
        }
    }
    for (const Addr addr : probes)
        ASSERT_EQ(paged.read(addr), reference.read(addr)) << addr;
    EXPECT_EQ(paged.residentPages(), reference.residentPages());
}

TEST(Executor, ConditionalBranchOutcomes)
{
    ProgramBuilder b("branches");
    b.movi(intReg(1), 1);
    b.movi(intReg(2), 2);
    b.blt(intReg(1), intReg(2), "taken");   // taken
    b.movi(intReg(3), 111);                  // skipped
    b.label("taken");
    b.bge(intReg(1), intReg(2), "nottaken"); // not taken
    b.movi(intReg(4), 222);
    b.label("nottaken");
    b.halt();
    Program p = b.build();
    auto stream = runAll(p);

    EXPECT_TRUE(stream[2].taken);
    EXPECT_EQ(stream[2].nextPc, stream[2].targetPc);
    EXPECT_FALSE(stream[3].taken);
    EXPECT_EQ(stream[3].nextPc, stream[3].pc + 1);

    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(3)), 0);     // skipped
    EXPECT_EQ(exec.readReg(intReg(4)), 222);   // executed
}

TEST(Executor, CallAndReturn)
{
    ProgramBuilder b("callret");
    b.jump("main");
    b.label("fn");
    b.movi(intReg(2), 55);
    b.ret();
    b.label("main");
    b.call("fn");
    b.movi(intReg(3), 66);
    b.halt();
    Program p = b.build();
    auto stream = runAll(p);

    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(2)), 55);
    EXPECT_EQ(exec.readReg(intReg(3)), 66);

    // The call's record carries the taken target and the return lands
    // back at call + 1.
    const DynInst &call = stream[1];
    EXPECT_TRUE(call.isCallOp());
    EXPECT_EQ(call.targetPc, 1u);
    const DynInst &ret = stream[3];
    EXPECT_TRUE(ret.isReturnOp());
    EXPECT_EQ(ret.targetPc, call.pc + 1);
}

TEST(Executor, FloatingPoint)
{
    ProgramBuilder b("fp");
    b.movi(intReg(1), 9);
    b.fcvtif(fpReg(1), intReg(1));      // 9.0
    b.fsqrt(fpReg(2), fpReg(1));        // 3.0
    b.fcvtif(fpReg(3), intReg(1));
    b.fmul(fpReg(4), fpReg(2), fpReg(3));   // 27.0
    b.fcvtfi(intReg(2), fpReg(4));
    b.fcmplt(intReg(3), fpReg(2), fpReg(4));   // 3 < 27
    b.halt();
    Program p = b.build();
    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.readReg(intReg(2)), 27);
    EXPECT_EQ(exec.readReg(intReg(3)), 1);
    EXPECT_DOUBLE_EQ(std::bit_cast<double>(exec.readReg(fpReg(2))), 3.0);
}

TEST(Executor, StreamSequencing)
{
    ProgramBuilder b("seq");
    b.movi(intReg(1), 0);
    b.label("top");
    b.addi(intReg(1), intReg(1), 1);
    b.slti(intReg(2), intReg(1), 3);
    b.bne(intReg(2), zeroReg, "top");
    b.halt();
    Program p = b.build();
    auto stream = runAll(p);

    for (std::size_t i = 0; i < stream.size(); ++i)
        EXPECT_EQ(stream[i].seq, i);
    // 1 movi + 3 * (addi, slti, bne) + halt.
    EXPECT_EQ(stream.size(), 11u);
    EXPECT_EQ(stream.back().op, Opcode::Halt);
}

TEST(Executor, ResetRestoresInitialState)
{
    ProgramBuilder b("reset");
    b.data(0x3000, {10});
    b.movi(intReg(1), 0x3000);
    b.load(intReg(2), intReg(1), 0);
    b.addi(intReg(2), intReg(2), 1);
    b.store(intReg(2), intReg(1), 0);
    b.halt();
    Program p = b.build();

    Executor exec(p);
    DynInst d;
    while (exec.step(d)) {}
    EXPECT_EQ(exec.memory().read(0x3000), 11);

    exec.reset();
    EXPECT_EQ(exec.memory().read(0x3000), 10);
    EXPECT_EQ(exec.readReg(intReg(2)), 0);
    EXPECT_FALSE(exec.halted());
    while (exec.step(d)) {}
    EXPECT_EQ(exec.memory().read(0x3000), 11);
}

TEST(SparseMemory, ZeroFillAndPages)
{
    SparseMemory mem;
    EXPECT_EQ(mem.read(0xdeadbeef), 0);
    EXPECT_EQ(mem.residentPages(), 0u);
    mem.write(0x0, 1);
    mem.write(0xfff, 2);     // same 4 KiB page
    mem.write(0x1000, 3);    // next page
    EXPECT_EQ(mem.residentPages(), 2u);
    EXPECT_EQ(mem.read(0x1000), 3);
}

TEST(SparseMemory, WordGranularity)
{
    SparseMemory mem;
    mem.write(0x100, 42);
    // Any byte address within the word reads the same value.
    EXPECT_EQ(mem.read(0x101), 42);
    EXPECT_EQ(mem.read(0x107), 42);
    EXPECT_EQ(mem.read(0x108), 0);
}

} // namespace
} // namespace ctcp
