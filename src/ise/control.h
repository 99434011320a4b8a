// Control-signal analysis (paper section 2, "Analysis of control signals").
//
// Every module control port is traced backwards through the netlist — across
// wires, buses and random-logic decoder modules — to the primary control
// sources: the instruction word and mode registers. Signals are represented
// bit-wise as BDDs (bdd::BitVec), so arbitrary decoder logic composes
// symbolically. Guard conditions ("f = 2") then become BDDs over
// instruction-word bits I[k], mode-register bits M:<inst>[k] and dynamic
// (data-dependent) bits S:...[k] — free variables that make e.g.
// condition-code-dependent branches expressible. rtl/condvars.h owns the
// naming scheme: this analyzer only calls its builders, and every later
// stage reads the per-target table it classifies the names into.
//
// Unsatisfiable template conditions (encoding conflicts, bus contention) are
// pruned by the extractor using these BDDs.
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "bdd/bdd.h"
#include "hdl/ast.h"
#include "netlist/netlist.h"
#include "util/diagnostics.h"

namespace record::ise {

class ControlAnalyzer {
 public:
  ControlAnalyzer(const netlist::Netlist& nl, bdd::BddManager& mgr,
                  util::DiagnosticSink& diags);

  /// Symbolic per-bit value of an instance OUT port.
  [[nodiscard]] bdd::BitVec out_port_bits(netlist::InstanceId inst,
                                          std::string_view port);

  /// Symbolic value arriving at an instance IN/CTRL port (resolves its
  /// driver; undriven ports yield fresh dynamic bits and a warning).
  [[nodiscard]] bdd::BitVec in_port_bits(netlist::InstanceId inst,
                                         std::string_view port);

  /// BDD of a module-behaviour guard evaluated in the context of `inst`.
  [[nodiscard]] bdd::Ref guard_bdd(netlist::InstanceId inst,
                                   const hdl::Cond& guard);

  /// BDD of a structural guard (bus-driver WHEN clause; references are
  /// `instance.port`).
  [[nodiscard]] bdd::Ref structural_guard_bdd(const hdl::Cond& guard);

  /// Index of the BDD variable for instruction-word bit k.
  [[nodiscard]] int instruction_var(int k) const;

  [[nodiscard]] bdd::BddManager& manager() { return mgr_; }

 private:
  [[nodiscard]] bdd::BitVec source_bits(const netlist::NetSource& src,
                                        int width_hint);
  [[nodiscard]] bdd::BitVec dynamic_bits(const std::string& tag, int width);
  [[nodiscard]] bdd::BitVec combinational_out_bits(netlist::InstanceId inst,
                                                   std::string_view port);
  [[nodiscard]] bdd::BitVec expr_bits(netlist::InstanceId inst,
                                      const hdl::Expr& e, int width_hint);
  [[nodiscard]] static bdd::BitVec apply_slice(const bdd::BitVec& bits,
                                               bool has_slice,
                                               hdl::BitRange slice);

  const netlist::Netlist& nl_;
  bdd::BddManager& mgr_;
  util::DiagnosticSink& diags_;

  int first_instr_var_ = 0;
  std::unordered_map<std::string, bdd::BitVec> out_memo_;
  std::unordered_map<std::string, bdd::BitVec> dynamic_memo_;
  std::unordered_set<std::string> in_progress_;
  std::unordered_set<std::string> warned_;
  int opaque_counter_ = 0;
};

}  // namespace record::ise
