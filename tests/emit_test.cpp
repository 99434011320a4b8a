#include <gtest/gtest.h>

#include <set>

#include "core/compiler.h"
#include "core/record.h"
#include "dspstone/kernels.h"
#include "emit/asmout.h"
#include "emit/encode.h"
#include "ir/builder.h"
#include "models/workload.h"
#include "testgen/modelgen.h"
#include "testgen/programgen.h"

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

// The encoder as a plain BDD loop: every side-effect suppression step is a
// BDD conjunction with the writer's negated condition, no bit-mask test.
struct Reference {
  std::vector<std::string> words;  // EncodedWord::hex()
  std::size_t suppressed = 0;
  std::size_t unsuppressible = 0;
};

Reference reference_encode(const compact::CompactedProgram& prog,
                           const rtl::TemplateBase& base) {
  bdd::BddManager& mgr = *base.mgr;
  const rtl::CondVars& vars = base.vars();
  std::map<std::string, int> labels;
  int addr = 0;
  for (const compact::CompactedRegion& r : prog.regions) {
    if (!r.label.empty()) labels[r.label] = addr;
    addr += static_cast<int>(r.words.size());
  }
  Reference out;
  for (const compact::CompactedRegion& r : prog.regions) {
    for (const compact::Word& w : r.words) {
      bdd::Ref cond = w.cond;
      auto target = labels.find(w.branch_target);
      if (w.has_branch && target != labels.end()) {
        for (const select::SelectedRT* rt : w.rts)
          if (rt->is_branch && rt->tmpl &&
              rt->tmpl->value->kind == rtl::RTNode::Kind::Imm)
            cond = vars.with_field(mgr, cond, rt->tmpl->value->imm_bits,
                                   static_cast<std::uint64_t>(target->second));
      }
      std::set<std::string> written;
      std::set<const rtl::RTTemplate*> own;
      for (const select::SelectedRT* rt : w.rts) {
        written.insert(rt->dest);
        if (rt->tmpl) own.insert(rt->tmpl);
      }
      auto guard = [&](bdd::Ref writer) {
        bdd::Ref guarded = mgr.land(cond, mgr.lnot(writer));
        if (guarded != bdd::kFalse) {
          cond = guarded;
          ++out.suppressed;
        } else {
          ++out.unsuppressible;
        }
      };
      for (const auto& [storage, wc] : base.writers()) {
        if (!written.count(storage)) {
          guard(wc.any);
          continue;
        }
        for (const rtl::Writer& wr : wc.each)
          if (!own.count(&base.templates[wr.tmpl])) guard(wr.cond);
      }
      if (cond == bdd::kFalse) cond = w.cond;
      EncodedWord ew;
      ew.bits.assign(static_cast<std::size_t>(base.instruction_width), false);
      const std::optional<bdd::Assignment> sat = mgr.any_sat(cond);
      for (const auto& [var, val] : sat.value_or(bdd::Assignment{})) {
        const rtl::VarInfo& v = vars.info(var);
        if (v.kind == rtl::VarKind::Instr && v.bit < base.instruction_width)
          ew.bits[static_cast<std::size_t>(v.bit)] = val;
      }
      out.words.push_back(ew.hex());
    }
  }
  return out;
}

/// Compiles `prog` compacted and sequential and checks encode() against
/// the reference; returns how many of the two compiles succeeded.
int expect_reference_encoding(const core::RetargetResult& target,
                              const ir::Program& prog,
                              core::CompileOptions options,
                              const std::string& what) {
  int compiled = 0;
  for (const bool compacted : {true, false}) {
    options.compact.enabled = compacted;
    util::DiagnosticSink diags;
    auto r = core::Compiler(target).compile(prog, options, diags);
    if (!r) continue;  // e.g. a generated program with no spill path
    ++compiled;
    Reference ref = reference_encode(r->compacted.program, *target.base);
    std::vector<std::string> words;
    for (const EncodedWord& ew : r->encoded.assembly.words)
      words.push_back(ew.hex());
    EXPECT_EQ(words, ref.words) << what << " compacted=" << compacted;
    EXPECT_EQ(r->encoded.stats.suppressed, ref.suppressed) << what;
    EXPECT_EQ(r->encoded.stats.unsuppressible, ref.unsuppressible) << what;
  }
  return compiled;
}

TEST(Encode, MatchesPlainBddReferenceOnBuiltInModels) {
  for (const models::ChainShape& shape : models::kChainShapes) {
    util::DiagnosticSink diags;
    auto target = core::Record::retarget_model(
        shape.model, core::RetargetOptions{}, diags);
    ASSERT_TRUE(target) << diags.str();
    for (int k = 1; k <= 16; ++k)
      EXPECT_EQ(expect_reference_encoding(
                    *target, models::chain_program(shape, k), {},
                    std::string(shape.model) + " k=" + std::to_string(k)),
                2);
  }
  for (const std::string& name : dspstone::kernel_names())
    EXPECT_EQ(expect_reference_encoding(c25(), dspstone::kernel(name), {},
                                        name),
              2);
}

TEST(Encode, MatchesPlainBddReferenceOnGeneratedMachines) {
  int compiled = 0;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    testgen::GeneratedModel model = testgen::generate_model(seed);
    util::DiagnosticSink diags;
    auto target =
        core::Record::retarget(model.hdl, core::RetargetOptions{}, diags);
    ASSERT_TRUE(target) << model.name << ": " << diags.str();
    core::CompileOptions options;
    if (model.spill_slots > 0) {
      options.spill.scratch_base = model.spill_base;
      options.spill.scratch_slots = model.spill_slots;
    }
    for (std::uint64_t p = 0; p < 3; ++p)
      compiled += expect_reference_encoding(
          *target, testgen::generate_program(model, p).program, options,
          model.name + " program " + std::to_string(p));
  }
  // 193 of the 240 compiles succeed; the rest stop before encoding (no
  // spill path, immediate conflicts).
  EXPECT_GE(compiled, 180);
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
