// Condition-variable vocabulary (paper section 2, "Analysis of control
// signals"): the one owner of the names of BDD condition variables.
//
//   I[k]         instruction-word bit k                           Instr
//   M:<inst>[k]  bit k of mode register <inst>                    Mode
//   S:<src>[k]   dynamic (data-dependent) bit; <src> is           Dynamic
//                <inst>.<port> (storage read as control), @<port> (primary
//                input) or <why>:<inst>.<x>, why in {cyc, bad, slice,
//                opaque, undriven}
//
// ise::ControlAnalyzer names variables with the builders below; compile
// stages read the CondVars table TemplateBase::seal() builds, never the
// strings. sim::Machine and testgen::roundtrip_issues read the names on
// their own on purpose: they are the independent references the encoder is
// checked against.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bdd/bdd.h"

namespace record::rtl {

inline std::string bit_var_name(std::string_view tag, int bit) {
  return std::string(tag) + "[" + std::to_string(bit) + "]";
}
inline std::string instr_var_name(int k) { return bit_var_name("I", k); }
inline std::string mode_tag(std::string_view inst) {
  return "M:" + std::string(inst);
}
inline std::string dynamic_tag(std::string_view src) {
  return "S:" + std::string(src);
}

enum class VarKind : std::uint8_t { Instr, Mode, Dynamic };

struct VarInfo {
  VarKind kind = VarKind::Dynamic;
  int bit = -1;      // the "[k]" suffix; -1 when absent or malformed
  std::string inst;  // M:/S: names: the text after the prefix up to '.'/'['
};

/// An I or M name without a well-formed "[k]" suffix is Dynamic.
[[nodiscard]] VarInfo classify_var(std::string_view name);

/// Per-variable table of one BddManager, built once per target.
class CondVars {
 public:
  CondVars() = default;
  explicit CondVars(const bdd::BddManager& mgr);

  [[nodiscard]] const VarInfo& info(int v) const {
    return vars_.at(static_cast<std::size_t>(v));
  }
  [[nodiscard]] VarKind kind(int v) const { return info(v).kind; }
  /// Variable of instruction bit k / of a mode-register bit; -1 if absent.
  [[nodiscard]] int instr_var(int k) const;
  [[nodiscard]] int mode_var(std::string_view inst, int bit) const;

  /// `cond` with every non-instruction variable existentially quantified:
  /// "could this fire under some machine state?".
  [[nodiscard]] bdd::Ref project_to_instr(bdd::BddManager& mgr,
                                          bdd::Ref cond) const;
  /// `cond` AND instruction field `field` (bit positions, lsb first)
  /// holding `value`.
  [[nodiscard]] bdd::Ref with_field(bdd::BddManager& mgr, bdd::Ref cond,
                                    const std::vector<int>& field,
                                    std::uint64_t value) const;

 private:
  std::vector<VarInfo> vars_;
  std::vector<int> instr_;  // [k] -> variable, -1 absent
};

}  // namespace record::rtl
