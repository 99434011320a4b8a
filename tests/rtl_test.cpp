#include <gtest/gtest.h>

#include "rtl/condvars.h"
#include "rtl/extend.h"
#include "rtl/rewrite.h"
#include "rtl/template.h"

namespace record::rtl {
namespace {

RTNodePtr reg(const char* name, int w = 16) { return make_reg_read(name, w); }

RTNodePtr add(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Add, "", w}, std::move(kids));
}

RTNodePtr sub(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Sub, "", w}, std::move(kids));
}

RTNodePtr shl(RTNodePtr a, RTNodePtr b, int w = 16) {
  std::vector<RTNodePtr> kids;
  kids.push_back(std::move(a));
  kids.push_back(std::move(b));
  return make_op(OpSig{hdl::OpKind::Shl, "", w}, std::move(kids));
}

RTTemplate make_template(RTNodePtr value, const char* dest = "A") {
  RTTemplate t;
  t.dest_kind = DestKind::Register;
  t.dest = dest;
  t.dest_width = 16;
  t.value = std::move(value);
  t.provenance = "test";
  return t;
}

TEST(OpSig, NamesIncludeWidth) {
  EXPECT_EQ((OpSig{hdl::OpKind::Add, "", 16}).name(), "+.16");
  EXPECT_EQ((OpSig{hdl::OpKind::Mul, "", 32}).name(), "*.32");
  EXPECT_EQ((OpSig{hdl::OpKind::Custom, "RND", 16}).name(), "RND.16");
}

TEST(OpSig, SliceOpNaming) {
  OpSig lo = slice_op_sig(15, 0);
  EXPECT_EQ(lo.name(), "bits15_0.16");
  OpSig hi = slice_op_sig(31, 16);
  EXPECT_EQ(hi.name(), "bits31_16.16");
  EXPECT_EQ(hi.width, 16);
}

TEST(RTNode, ToStringCanonical) {
  RTNodePtr t = add(reg("A"), make_hard_const(1, 16));
  EXPECT_EQ(to_string(*t), "+.16(A,#1.16)");
  RTNodePtr m = make_mem_load("ram", 16, make_imm({0, 1, 2, 3}));
  EXPECT_EQ(to_string(*m), "ram[#imm.4@0]");
  RTNodePtr m2 = make_mem_load("ram", 16, make_imm({8, 9}));
  EXPECT_EQ(to_string(*m2), "ram[#imm.2@8]");
}

TEST(RTNode, EqualIsStructural) {
  RTNodePtr a = add(reg("A"), reg("B"));
  RTNodePtr b = add(reg("A"), reg("B"));
  RTNodePtr c = add(reg("B"), reg("A"));
  EXPECT_TRUE(equal(*a, *b));
  EXPECT_FALSE(equal(*a, *c));
}

TEST(RTNode, CloneIsDeep) {
  RTNodePtr a = add(reg("A"), reg("B"));
  RTNodePtr b = a->clone();
  EXPECT_TRUE(equal(*a, *b));
  EXPECT_NE(a->children[0].get(), b->children[0].get());
}

TEST(RTNode, TreeSize) {
  EXPECT_EQ(tree_size(*reg("A")), 1u);
  EXPECT_EQ(tree_size(*add(reg("A"), add(reg("B"), reg("C")))), 5u);
}

TEST(TemplateBase, AddUniqueDeduplicates) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  EXPECT_TRUE(base.add_unique(make_template(add(reg("A"), reg("B")))));
  EXPECT_FALSE(base.add_unique(make_template(add(reg("A"), reg("B")))));
  EXPECT_TRUE(base.add_unique(make_template(add(reg("B"), reg("A")))));
  EXPECT_EQ(base.size(), 2u);
  EXPECT_EQ(base.templates[0].id, 0);
  EXPECT_EQ(base.templates[1].id, 1);
}

TEST(CondVars, ClassifiesEveryNameFormTheControlAnalyzerEmits) {
  struct Case {
    std::string name;
    const char* spelled;
    VarKind kind;
    int bit;
    const char* inst;
  };
  const Case cases[] = {
      {instr_var_name(7), "I[7]", VarKind::Instr, 7, ""},
      {bit_var_name(mode_tag("MR"), 1), "M:MR[1]", VarKind::Mode, 1, "MR"},
      {bit_var_name(dynamic_tag("@cc"), 0), "S:@cc[0]", VarKind::Dynamic, 0,
       "@cc"},
      {bit_var_name(dynamic_tag("ST.q"), 12), "S:ST.q[12]",
       VarKind::Dynamic, 12, "ST"},
      {bit_var_name(dynamic_tag("cyc:dec.f"), 0), "S:cyc:dec.f[0]",
       VarKind::Dynamic, 0, "cyc:dec"},
      {bit_var_name(dynamic_tag("bad:dec.x"), 1), "S:bad:dec.x[1]",
       VarKind::Dynamic, 1, "bad:dec"},
      {bit_var_name(dynamic_tag("slice:dec.0"), 2), "S:slice:dec.0[2]",
       VarKind::Dynamic, 2, "slice:dec"},
      {bit_var_name(dynamic_tag("opaque:alu.3"), 0),
       "S:opaque:alu.3[0]", VarKind::Dynamic, 0, "opaque:alu"},
      {bit_var_name(dynamic_tag("undriven:alu.op"), 2),
       "S:undriven:alu.op[2]", VarKind::Dynamic, 2, "undriven:alu"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(c.name, c.spelled);
    VarInfo v = classify_var(c.name);
    EXPECT_EQ(v.kind, c.kind) << c.name;
    EXPECT_EQ(v.bit, c.bit) << c.name;
    EXPECT_EQ(v.inst, c.inst) << c.name;
  }
  // A malformed suffix never reads as an instruction or mode bit.
  for (const char* bad : {"I[x]", "I[]", "I[3", "I3]", "I[-1]",
                          "I[12345678901]", "M:MR", "M:MR[b]", "M:[2]", "J[1]"})
    EXPECT_EQ(classify_var(bad).kind, VarKind::Dynamic) << bad;
}

TEST(CondVars, TableResolvesBitsAndProjectsOntoInstructionBits) {
  bdd::BddManager mgr;
  const int i0 = mgr.new_var(instr_var_name(0));
  const int m1 = mgr.new_var(bit_var_name(mode_tag("MR"), 1));
  const int s0 = mgr.new_var(bit_var_name(dynamic_tag("ST.q"), 0));
  const int i2 = mgr.new_var(instr_var_name(2));
  (void)mgr.new_var(instr_var_name(0));  // a duplicate: first one wins
  CondVars vars(mgr);
  EXPECT_EQ(vars.instr_var(0), i0);
  EXPECT_EQ(vars.instr_var(2), i2);
  EXPECT_EQ(vars.instr_var(1), -1);
  EXPECT_EQ(vars.instr_var(9), -1);
  EXPECT_EQ(vars.mode_var("MR", 1), m1);
  EXPECT_EQ(vars.mode_var("MR", 0), -1);
  EXPECT_EQ(vars.mode_var("ST", 0), -1);
  EXPECT_EQ(vars.kind(s0), VarKind::Dynamic);
  bdd::Ref c = mgr.land(mgr.land(mgr.var(i0), mgr.nvar(m1)),
                        mgr.land(mgr.var(s0), mgr.nvar(i2)));
  EXPECT_EQ(vars.project_to_instr(mgr, c),
            mgr.land(mgr.var(i0), mgr.nvar(i2)));
}

TEST(TemplateBase, SealComputesWriterConditionsOnce) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  bdd::BddManager& mgr = *base.mgr;
  const int i0 = mgr.new_var(instr_var_name(0));
  const int m0 = mgr.new_var(bit_var_name(mode_tag("MR"), 0));
  RTTemplate a = make_template(add(reg("A"), reg("B")), "B");
  a.cond = mgr.land(mgr.var(i0), mgr.var(m0));
  RTTemplate b = make_template(reg("A"), "A");
  b.cond = mgr.nvar(i0);
  RTTemplate c = make_template(reg("B"), "B");
  c.cond = mgr.nvar(i0);
  ASSERT_TRUE(base.add_unique(std::move(a)));
  ASSERT_TRUE(base.add_unique(std::move(b)));
  ASSERT_TRUE(base.add_unique(std::move(c)));
  EXPECT_FALSE(base.sealed());
  EXPECT_THROW((void)base.writers(), std::logic_error);

  base.seal();
  ASSERT_TRUE(base.sealed());
  const auto& w = base.writers();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w.begin()->first, "A");  // storage-name order
  const StorageWriters& wb = w.at("B");
  EXPECT_EQ(wb.any, bdd::kTrue);  // I[0] (mode quantified) or not I[0]
  ASSERT_EQ(wb.each.size(), 2u);  // template order
  EXPECT_EQ(wb.each[0], std::make_pair(std::size_t{0}, mgr.var(i0)));
  EXPECT_EQ(wb.each[1], std::make_pair(std::size_t{2}, mgr.nvar(i0)));

  (void)base.add_unique(make_template(reg("B"), "A"));
  EXPECT_FALSE(base.sealed());
}

TEST(Extend, CommutativityAddsSwappedVariant) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(add(reg("A"), reg("B"))));
  ExtendOptions options;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_EQ(stats.commutative_added, 1u);
  EXPECT_EQ(base.templates[1].signature(), "A := +.16(B,A)");
  EXPECT_EQ(base.templates[1].provenance, "commute(0)");
}

TEST(Extend, NonCommutativeOpsUntouched) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(sub(reg("A"), reg("B"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 0u);
}

TEST(Extend, IdenticalChildrenNotSwapped) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(add(reg("A"), reg("A"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 0u);
}

TEST(Extend, NestedCommutativeNodesGenerateCombinations) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  // (A + B) + C: three commutable nodes -> 3 variants (2^2 - 1).
  base.add_unique(make_template(add(add(reg("A"), reg("B")), reg("C"))));
  ExtendStats stats = extend_template_base(base, ExtendOptions{});
  EXPECT_EQ(stats.commutative_added, 3u);
  EXPECT_EQ(base.size(), 4u);
}

TEST(Extend, VariantCapRespected) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  // Deep sum: many commutative nodes.
  RTNodePtr t = reg("R0");
  for (int i = 1; i < 12; ++i)
    t = add(std::move(t), reg(("R" + std::to_string(i)).c_str()));
  base.add_unique(make_template(std::move(t)));
  ExtendOptions options;
  options.max_variants_per_template = 16;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_LE(stats.commutative_added, 16u);
  EXPECT_EQ(stats.variant_capped, 1u);
}

TEST(Rewrite, Shl1BecomesAddSelf) {
  RewriteLibrary lib = RewriteLibrary::standard();
  RTNodePtr t = shl(reg("A"), make_hard_const(1, 16));
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "shl1-to-add") rule = &r;
  ASSERT_NE(rule, nullptr);
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "+.16(A,A)");
}

TEST(Rewrite, VariableBindingIsConsistent) {
  // add(x, neg(y)) -> sub(x, y): x and y bind distinct subtrees.
  RewriteLibrary lib = RewriteLibrary::standard();
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "addneg-to-sub") rule = &r;
  ASSERT_NE(rule, nullptr);
  std::vector<RTNodePtr> neg_kids;
  neg_kids.push_back(reg("B"));
  RTNodePtr t = add(reg("A"), make_op(OpSig{hdl::OpKind::Neg, "", 16},
                                      std::move(neg_kids)));
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "-.16(A,B)");
}

TEST(Rewrite, AppliesAtInnerPositions) {
  RewriteLibrary lib = RewriteLibrary::standard();
  const RewriteRule* rule = nullptr;
  for (const RewriteRule& r : lib.rules())
    if (r.name == "add0-elim") rule = &r;
  ASSERT_NE(rule, nullptr);
  // sub(add(A, 0), B) -> sub(A, B) via the inner position.
  RTNodePtr t = sub(add(reg("A"), make_hard_const(0, 16)), reg("B"));
  auto variants = apply_rule(*t, *rule);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "-.16(A,B)");
}

TEST(Rewrite, NoMatchYieldsNoVariants) {
  RewriteLibrary lib = RewriteLibrary::standard();
  RTNodePtr t = reg("A");
  for (const RewriteRule& r : lib.rules())
    EXPECT_TRUE(apply_rule(*t, r).empty()) << r.name;
}

TEST(Rewrite, ExtendAppliesLibrary) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  base.add_unique(make_template(shl(reg("A"), make_hard_const(1, 16))));
  RewriteLibrary lib = RewriteLibrary::standard();
  ExtendOptions options;
  options.commutativity = false;
  options.rewrites = &lib;
  ExtendStats stats = extend_template_base(base, options);
  EXPECT_GE(stats.rewrite_added, 1u);
  bool found = false;
  for (const auto& t : base.templates)
    if (t.signature() == "A := +.16(A,A)") found = true;
  EXPECT_TRUE(found);
}

TEST(Rewrite, CustomLibrary) {
  // mul(x, 2) => shl(x, 1)
  RewriteLibrary lib;
  {
    std::vector<RWPatPtr> l;
    l.push_back(pat_var("x"));
    l.push_back(pat_const(2));
    std::vector<RWPatPtr> r;
    r.push_back(pat_var("x"));
    r.push_back(pat_const(1));
    lib.add("mul2-to-shl", pat_op(hdl::OpKind::Mul, std::move(l)),
            pat_op(hdl::OpKind::Shl, std::move(r)));
  }
  std::vector<RTNodePtr> kids;
  kids.push_back(reg("A"));
  kids.push_back(make_hard_const(2, 16));
  RTNodePtr t = make_op(OpSig{hdl::OpKind::Mul, "", 16}, std::move(kids));
  auto variants = apply_rule(*t, lib.rules()[0]);
  ASSERT_EQ(variants.size(), 1u);
  EXPECT_EQ(to_string(*variants[0]), "<<.16(A,#1.16)");
}

TEST(Template, SignatureIncludesMemoryAddress) {
  RTTemplate t;
  t.dest_kind = DestKind::Memory;
  t.dest = "ram";
  t.dest_width = 16;
  t.addr = make_imm({0, 1, 2});
  t.value = reg("A");
  EXPECT_EQ(t.signature(), "ram[#imm.3@0] := A");
}

TEST(Template, PrettyIncludesCondition) {
  TemplateBase base;
  base.mgr = std::make_shared<bdd::BddManager>();
  int v = base.mgr->new_var("I[0]");
  RTTemplate t = make_template(reg("B"));
  t.cond = base.mgr->var(v);
  EXPECT_NE(t.pretty(*base.mgr).find("I[0]"), std::string::npos);
}

}  // namespace
}  // namespace record::rtl
