#include <gtest/gtest.h>

#include <algorithm>

#include "hdl/parser.h"
#include "hdl/sema.h"
#include "ise/control.h"
#include "ise/extract.h"
#include "netlist/netlist.h"
#include "rtl/condvars.h"

namespace record::ise {
namespace {

netlist::Netlist make_netlist(std::string_view src) {
  util::DiagnosticSink diags;
  auto model = hdl::parse(src, diags);
  EXPECT_TRUE(model) << diags.str();
  EXPECT_TRUE(hdl::check_model(*model, diags)) << diags.str();
  auto nl = netlist::elaborate(std::move(*model), diags);
  EXPECT_TRUE(nl) << diags.str();
  return std::move(*nl);
}

ExtractResult extract_from(std::string_view src,
                           ExtractOptions options = {}) {
  netlist::Netlist nl = make_netlist(src);
  util::DiagnosticSink diags;
  return extract(nl, options, diags);
}

bool has_template(const rtl::TemplateBase& base, std::string_view sig) {
  return std::any_of(base.templates.begin(), base.templates.end(),
                     [&](const rtl::RTTemplate& t) {
                       return t.signature() == sig;
                     });
}

std::vector<std::string> signatures(const rtl::TemplateBase& base) {
  std::vector<std::string> out;
  for (const auto& t : base.templates) out.push_back(t.signature());
  return out;
}

// A small accumulator machine exercising ALU forks, immediates and
// a self-incrementing pointer register.
constexpr const char* kAccMachine = R"(
PROCESSOR acc;
CONTROLLER im (OUT w:(15:0));
REGISTER A (IN d:(7:0); OUT q:(7:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
REGISTER PTR (IN d:(3:0); OUT q:(3:0); CTRL c:(1:0));
BEHAVIOR
  q := d WHEN c = 1;
  q := q + 1 WHEN c = 2;
END;
MEMORY mm (IN addr:(3:0); IN din:(7:0); OUT dout:(7:0); CTRL we:(0:0)) SIZE 16;
BEHAVIOR
  dout := CELL[addr];
  CELL[addr] := din WHEN we = 1;
END;
MODULE alu (IN a:(7:0); IN b:(7:0); OUT y:(7:0); CTRL f:(1:0));
BEHAVIOR
  y := a + b WHEN f = 0;
  y := a - b WHEN f = 1;
  y := b     WHEN f = 2;
END;
MODULE amux (IN i:(3:0); IN p:(3:0); OUT y:(3:0); CTRL s:(0:0));
BEHAVIOR
  y := i WHEN s = 0;
  y := p WHEN s = 1;
END;
STRUCTURE
PARTS
  IM: im;  A: A;  PTR: PTR;  M: mm;  ALU: alu;  AM: amux;
CONNECTIONS
  AM.i := IM.w(3:0);
  AM.p := PTR.q;
  AM.s := IM.w(4:4);
  M.addr := AM.y;
  M.din := A.q;
  M.we := IM.w(5:5);
  ALU.a := A.q;
  ALU.b := M.dout;
  ALU.f := IM.w(7:6);
  A.d := ALU.y;
  A.ld := IM.w(8:8);
  PTR.d := IM.w(3:0);
  PTR.c := IM.w(10:9);
END;
)";

TEST(ControlAnalysis, InstructionBitsAreVariables) {
  netlist::Netlist nl = make_netlist(kAccMachine);
  bdd::BddManager mgr;
  util::DiagnosticSink diags;
  ControlAnalyzer ctrl(nl, mgr, diags);
  bdd::BitVec w = ctrl.out_port_bits(nl.controller(), "w");
  EXPECT_EQ(w.width(), 16);
  EXPECT_EQ(w.bit(3), mgr.var(ctrl.instruction_var(3)));
  EXPECT_EQ(rtl::CondVars(mgr).instr_var(0), ctrl.instruction_var(0));
}

TEST(ControlAnalysis, GuardBecomesInstructionBitCondition) {
  netlist::Netlist nl = make_netlist(kAccMachine);
  bdd::BddManager mgr;
  util::DiagnosticSink diags;
  ControlAnalyzer ctrl(nl, mgr, diags);
  netlist::InstanceId alu = nl.find_instance("ALU");
  // f = 1  <=>  w6=1 & w7=0 (f wired to w(7:6)).
  auto cmp = hdl::make_cmp("", "f", 1);
  bdd::Ref g = ctrl.guard_bdd(alu, *cmp);
  EXPECT_TRUE(mgr.eval(g, {{ctrl.instruction_var(6), true},
                           {ctrl.instruction_var(7), false}}));
  EXPECT_FALSE(mgr.eval(g, {{ctrl.instruction_var(6), true},
                            {ctrl.instruction_var(7), true}}));
}

TEST(ControlAnalysis, RegisterOutputIsDynamic) {
  netlist::Netlist nl = make_netlist(kAccMachine);
  bdd::BddManager mgr;
  util::DiagnosticSink diags;
  ControlAnalyzer ctrl(nl, mgr, diags);
  bdd::BitVec q = ctrl.out_port_bits(nl.find_instance("A"), "q");
  ASSERT_EQ(q.width(), 8);
  int v = mgr.top_var(q.bit(0));
  EXPECT_EQ(rtl::CondVars(mgr).kind(v), rtl::VarKind::Dynamic);
  EXPECT_EQ(rtl::CondVars(mgr).info(v).inst, "A");
}

TEST(Extraction, FindsAluTemplatesForAllFunctions) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_TRUE(has_template(r.base, "A := +.8(A,M[#imm.4@0])"));
  EXPECT_TRUE(has_template(r.base, "A := -.8(A,M[#imm.4@0])"));
  EXPECT_TRUE(has_template(r.base, "A := M[#imm.4@0]"));
}

TEST(Extraction, ForksOverAddressingModes) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_TRUE(has_template(r.base, "A := +.8(A,M[PTR])"));
  EXPECT_TRUE(has_template(r.base, "A := M[PTR]"));
}

TEST(Extraction, PostModifyPointerTemplates) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_TRUE(has_template(r.base, "PTR := +.4(PTR,#1.4)"));
  EXPECT_TRUE(has_template(r.base, "PTR := #imm.4@0"));
}

TEST(Extraction, MemoryWriteTemplates) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_TRUE(has_template(r.base, "M[#imm.4@0] := A"));
  EXPECT_TRUE(has_template(r.base, "M[PTR] := A"));
}

TEST(Extraction, StorageInventoryComplete) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_NE(r.base.find_storage("A"), nullptr);
  EXPECT_NE(r.base.find_storage("PTR"), nullptr);
  EXPECT_NE(r.base.find_storage("M"), nullptr);
  EXPECT_EQ(r.base.find_storage("ALU"), nullptr);  // combinational
  EXPECT_EQ(r.base.instruction_width, 16);
}

TEST(Extraction, ConditionsEncodeControlSignals) {
  ExtractResult r = extract_from(kAccMachine);
  const bdd::BddManager& mgr = *r.base.mgr;
  for (const rtl::RTTemplate& t : r.base.templates) {
    if (t.signature() == "A := +.8(A,M[#imm.4@0])") {
      // Requires A.ld=1 (w8), f=0 (w6=0,w7=0), amux s=0 (w4=0).
      std::string sop = mgr.to_sop(t.cond);
      EXPECT_NE(sop.find("I[8]"), std::string::npos) << sop;
      return;
    }
  }
  FAIL() << "template not found";
}

// --- encoding-conflict pruning -------------------------------------------

// Machine where the same field both selects the ALU function and gates a
// mux, so some (f, mux) combinations are unencodable.
constexpr const char* kConflict = R"(
PROCESSOR conflict;
CONTROLLER im (OUT w:(7:0));
REGISTER A (IN d:(3:0); OUT q:(3:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
REGISTER B (IN d:(3:0); OUT q:(3:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
MODULE mux (IN a:(3:0); IN b:(3:0); OUT y:(3:0); CTRL s:(0:0));
BEHAVIOR
  y := a WHEN s = 0;
  y := b WHEN s = 1;
END;
MODULE alu (IN a:(3:0); OUT y:(3:0); CTRL f:(0:0));
BEHAVIOR
  y := a     WHEN f = 0;
  y := a + 1 WHEN f = 1;
END;
STRUCTURE
PARTS
  IM: im;  A: A;  B: B;  MX: mux;  ALU: alu;
CONNECTIONS
  MX.a := IM.w(3:0);
  MX.b := B.q;
  MX.s := IM.w(4:4);
  ALU.a := MX.y;
  ALU.f := IM.w(4:4);   -- shared bit: f=1 forces s=1
  A.d := ALU.y;
  A.ld := IM.w(5:5);
  B.d := IM.w(3:0);
  B.ld := IM.w(6:6);
END;
)";

TEST(Extraction, SharedFieldPrunesImpossibleCombos) {
  ExtractResult r = extract_from(kConflict);
  // f=1 (increment) forces s=1 (operand B): "A := B+1" exists,
  // "A := imm+1" (f=1 with s=0) is unencodable and must be pruned.
  EXPECT_TRUE(has_template(r.base, "A := +.4(B,#1.4)"));
  EXPECT_FALSE(has_template(r.base, "A := +.4(#imm.4@0,#1.4)"));
  EXPECT_TRUE(has_template(r.base, "A := #imm.4@0"));
  EXPECT_GT(r.stats.route_stats.unsat_pruned, 0u);
}

TEST(Extraction, DisablingPruningKeepsInvalidTemplates) {
  ExtractOptions options;
  options.prune_unsat = false;
  ExtractResult r = extract_from(kConflict, options);
  EXPECT_TRUE(has_template(r.base, "A := +.4(#imm.4@0,#1.4)"));
}

// --- buses and contention ---------------------------------------------------

constexpr const char* kBusMachine = R"(
PROCESSOR busm;
CONTROLLER im (OUT w:(7:0));
REGISTER A (IN d:(3:0); OUT q:(3:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
REGISTER B (IN d:(3:0); OUT q:(3:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
STRUCTURE
PARTS
  IM: im;  A: A;  B: B;
BUS db: (3:0);
CONNECTIONS
  db := A.q WHEN IM.w(1:0) = 1;
  db := B.q WHEN IM.w(1:0) = 2;
  db := IM.w(7:4) WHEN IM.w(1:0) = 3;
  A.d := db;
  A.ld := IM.w(2:2);
  B.d := db;
  B.ld := IM.w(3:3);
END;
)";

TEST(Extraction, BusForksOverAllDrivers) {
  ExtractResult r = extract_from(kBusMachine);
  EXPECT_TRUE(has_template(r.base, "A := B"));
  EXPECT_TRUE(has_template(r.base, "B := A"));
  EXPECT_TRUE(has_template(r.base, "A := #imm.4@4"));
  EXPECT_TRUE(has_template(r.base, "A := A"));  // self-move via the bus
}

TEST(Extraction, BusDriverConditionsAreExclusive) {
  ExtractResult r = extract_from(kBusMachine);
  const bdd::BddManager& mgr = *r.base.mgr;
  for (const rtl::RTTemplate& t : r.base.templates) {
    if (t.signature() == "A := B") {
      // Condition must force the select field to exactly 2.
      auto vars = mgr.support(t.cond);
      EXPECT_FALSE(vars.empty());
      // select=1 (A drives) must contradict the chosen driver.
      bdd::Ref sel1 = r.base.mgr->land(
          r.base.mgr->literal(0, true),
          r.base.mgr->literal(1, false));  // w(1:0) = 1
      EXPECT_EQ(r.base.mgr->land(t.cond, sel1), bdd::kFalse);
      return;
    }
  }
  FAIL() << "template not found";
}

TEST(Extraction, DuplicateTransfersMerged) {
  ExtractResult r = extract_from(kBusMachine);
  auto sigs = signatures(r.base);
  std::sort(sigs.begin(), sigs.end());
  // Identical (signature, condition) pairs must not appear twice.
  EXPECT_EQ(std::adjacent_find(sigs.begin(), sigs.end()), sigs.end())
      << "bases may contain equal signatures only under different "
         "conditions";
}

TEST(Extraction, StatsAreConsistent) {
  ExtractResult r = extract_from(kAccMachine);
  EXPECT_GT(r.stats.destinations, 0u);
  EXPECT_GE(r.stats.raw_routes, r.base.templates.size());
}

// --- regression: nonzero-lsb immediate-field slices (PR-2 fix) --------------

// A stripped bass_boost shape: the coefficient-ROM address comes straight off
// a mid-word instruction slice IW.w(10:6). Route enumeration used to apply
// driver slices twice here, reading past the field's bits and emitting
// templates whose immediates referenced garbage instruction-word positions.
constexpr const char* kMidSliceMachine = R"(
PROCESSOR midslice;
CONTROLLER iw (OUT w:(11:0));
REGISTER A (IN d:(7:0); OUT q:(7:0); CTRL ld:(0:0));
BEHAVIOR q := d WHEN ld = 1; END;
MEMORY rom (IN addr:(4:0); OUT dout:(7:0)) SIZE 32;
BEHAVIOR dout := CELL[addr]; END;
MODULE alu (IN a:(7:0); IN b:(7:0); OUT y:(7:0); CTRL f:(0:0));
BEHAVIOR
  y := a + b WHEN f = 0;
  y := b     WHEN f = 1;
END;
STRUCTURE
PARTS
  IW: iw;  A: A;  rom: rom;  ALU: alu;
CONNECTIONS
  rom.addr := IW.w(10:6);
  ALU.a := A.q;
  ALU.b := rom.dout;
  ALU.f := IW.w(11:11);
  A.d  := ALU.y;
  A.ld := IW.w(0:0);
END;
)";

void expect_imm_bits_in_range(const rtl::RTNode& n, int lo, int hi,
                              const std::string& sig) {
  if (n.kind == rtl::RTNode::Kind::Imm) {
    EXPECT_EQ(n.imm_bits.size(), static_cast<std::size_t>(hi - lo + 1))
        << sig;
    for (std::size_t j = 0; j < n.imm_bits.size(); ++j) {
      EXPECT_GE(n.imm_bits[j], lo) << sig;
      EXPECT_LE(n.imm_bits[j], hi) << sig;
      if (j > 0) {  // lsb-first field order
        EXPECT_EQ(n.imm_bits[j], n.imm_bits[j - 1] + 1) << sig;
      }
    }
  }
  for (const rtl::RTNodePtr& c : n.children)
    expect_imm_bits_in_range(*c, lo, hi, sig);
}

TEST(Extraction, NonzeroLsbImmediateFieldStaysInBounds) {
  ExtractResult r = extract_from(kMidSliceMachine);
  ASSERT_GT(r.base.templates.size(), 0u);
  EXPECT_EQ(r.base.instruction_width, 12);
  bool saw_imm = false;
  for (const rtl::RTTemplate& t : r.base.templates) {
    // Every immediate field in this machine is the rom address IW.w(10:6):
    // exactly 5 consecutive bits inside the word, never positions >= 12.
    std::string sig = t.signature();
    expect_imm_bits_in_range(*t.value, 6, 10, sig);
    if (t.addr) expect_imm_bits_in_range(*t.addr, 6, 10, sig);
    if (sig.find("#imm") != std::string::npos) saw_imm = true;
  }
  EXPECT_TRUE(saw_imm) << "no immediate templates extracted — the mid-word "
                          "address slice path was not exercised";
  // The direct-addressed ROM routes must exist with the field anchored at
  // bit 6 ("@6" in the canonical form): the accumulate and the plain load.
  EXPECT_TRUE(has_template(r.base, "A := +.8(A,rom[#imm.5@6])"))
      << "missing the accumulate route";
  EXPECT_TRUE(has_template(r.base, "A := rom[#imm.5@6]"))
      << "missing the load route";
}

}  // namespace
}  // namespace record::ise
