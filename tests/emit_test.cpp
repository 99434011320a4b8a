#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/record.h"
#include "emit/asmout.h"
#include "emit/encode.h"
#include "ir/builder.h"

namespace record::emit {
namespace {

const core::RetargetResult& c25() {
  static const core::RetargetResult target = [] {
    util::DiagnosticSink diags;
    auto r = core::Record::retarget_model("tms320c25",
                                          core::RetargetOptions{}, diags);
    EXPECT_TRUE(r) << diags.str();
    return std::move(*r);
  }();
  return target;
}

core::CompileResult compile(const ir::Program& prog) {
  core::Compiler compiler(c25());
  util::DiagnosticSink diags;
  auto result = compiler.compile(prog, core::CompileOptions{}, diags);
  EXPECT_TRUE(result) << diags.str();
  return std::move(*result);
}

TEST(Encode, WordsHaveInstructionWidth) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(0));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 1u);
  EXPECT_EQ(r.encoded.assembly.words[0].bits.size(), 27u);
}

TEST(Encode, ImmediateValueAppearsInWord) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 5);
  b.let("acc", ir::e_var("x"));
  core::CompileResult r = compile(b.take());
  // LAC x: address field (bits 15:0) must hold 5.
  std::uint64_t word = r.encoded.assembly.words[0].to_u64();
  EXPECT_EQ(word & 0xffff, 5u);
}

TEST(Encode, OpcodeFieldDistinguishesInstructions) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.cell("x", "ram", 1).cell("h", "ram", 2);
  b.let("acc", ir::e_add(ir::e_var("acc"),
                         ir::e_mul(ir::e_var("x"), ir::e_var("h"))));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 3u);
  auto op = [&](int i) {
    return (r.encoded.assembly.words[static_cast<std::size_t>(i)].to_u64() >>
            22) & 0xf;
  };
  EXPECT_EQ(op(0), 6u);  // LT
  EXPECT_EQ(op(1), 7u);  // MPY
  EXPECT_EQ(op(2), 8u);  // APAC
}

TEST(Encode, SideEffectSuppressionZeroesUnusedUnits) {
  // LT x must not accidentally enable the accumulator or memory writes:
  // its word decodes to op=6 which the decoder maps to t_ld only.
  ir::ProgramBuilder b("t");
  b.reg("t", "T");
  b.cell("x", "ram", 1);
  b.let("t", ir::e_var("x"));
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.size(), 1u);
  EXPECT_GT(r.encoded.stats.suppressed, 0u);
  std::uint64_t word = r.encoded.assembly.words[0].to_u64();
  EXPECT_EQ((word >> 22) & 0xf, 6u);  // LT opcode
}

TEST(Encode, BranchTargetsResolveToAddresses) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.let("acc", ir::e_const(0));   // word 0
  b.label("top");                 // address 1
  b.let("acc", ir::e_const(1));   // word 1
  b.program().branch_if_not_zero("acc", "top");  // word 2
  core::CompileResult r = compile(b.take());
  ASSERT_EQ(r.encoded.assembly.labels.count("top"), 1u);
  int target = r.encoded.assembly.labels.at("top");
  EXPECT_EQ(target, 1);
  std::uint64_t branch_word = r.encoded.assembly.words.back().to_u64();
  EXPECT_EQ(branch_word & 0xffff, static_cast<std::uint64_t>(target));
}

TEST(Encode, HexRendering) {
  EncodedWord w;
  w.bits = {true, false, true, false, true, false, true, false};  // 0x55
  EXPECT_EQ(w.hex(), "55");
  EXPECT_EQ(w.to_u64(), 0x55u);
}

TEST(Encode, UnsealedBaseIsAnError) {
  rtl::TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.instruction_width = 4;
  compact::CompactedProgram prog;
  prog.regions.emplace_back();
  prog.regions.back().words.emplace_back();  // one NOP word

  util::DiagnosticSink diags;
  EncodeResult r = encode(prog, base, diags);
  EXPECT_FALSE(diags.ok());
  EXPECT_TRUE(r.assembly.words.empty());

  base.seal();
  util::DiagnosticSink sealed;
  r = encode(prog, base, sealed);
  EXPECT_TRUE(sealed.ok()) << sealed.str();
  ASSERT_EQ(r.assembly.size(), 1u);
  EXPECT_EQ(r.assembly.words[0].hex(), "0");
}

TEST(Asmout, ListingShowsAddressesAndComments) {
  ir::ProgramBuilder b("t");
  b.cell("a", "ram", 1).cell("c", "ram", 3);
  b.let("c", ir::e_var("a"));
  core::CompileResult r = compile(b.take());
  std::string listing = emit::listing(r.encoded.assembly);
  EXPECT_NE(listing.find("   0  "), std::string::npos);
  EXPECT_NE(listing.find("ACC :="), std::string::npos);
  std::string sum = summary(r.encoded.assembly);
  EXPECT_NE(sum.find("words"), std::string::npos);
}

TEST(Asmout, LabelsAppearInListing) {
  ir::ProgramBuilder b("t");
  b.reg("acc", "ACC");
  b.label("loop");
  b.let("acc", ir::e_const(0));
  b.jump("loop");
  core::CompileResult r = compile(b.take());
  std::string listing = emit::listing(r.encoded.assembly);
  EXPECT_NE(listing.find("loop:"), std::string::npos);
}

}  // namespace
}  // namespace record::emit
