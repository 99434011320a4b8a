#include "rtl/condvars.h"

#include <charconv>
#include <climits>

namespace record::rtl {

VarInfo classify_var(std::string_view name) {
  VarInfo out;
  std::string_view stem = name;
  const std::size_t open = name.rfind('[');
  unsigned bit = 0;
  if (open != std::string_view::npos && name.back() == ']') {
    const char* end = name.data() + name.size() - 1;
    auto [ptr, ec] = std::from_chars(name.data() + open + 1, end, bit);
    if (ec == std::errc() && ptr == end && bit <= INT_MAX) {
      out.bit = static_cast<int>(bit);
      stem = name.substr(0, open);
    }
  }
  const bool mode = name.rfind("M:", 0) == 0;
  if (mode || name.rfind("S:", 0) == 0) {
    std::string_view rest = name.substr(2);
    out.inst = std::string(rest.substr(0, rest.find_first_of(".[")));
  }
  if (out.bit >= 0 && (stem == "I" || (mode && stem.size() > 2)))
    out.kind = mode ? VarKind::Mode : VarKind::Instr;
  return out;
}

CondVars::CondVars(const bdd::BddManager& mgr) {
  for (int v = 0; v < mgr.var_count(); ++v) {
    vars_.push_back(classify_var(mgr.var_name(v)));
    const VarInfo& info = vars_.back();
    if (info.kind != VarKind::Instr) continue;
    const auto k = static_cast<std::size_t>(info.bit);
    if (instr_.size() <= k) instr_.resize(k + 1, -1);
    if (instr_[k] < 0) instr_[k] = v;  // first wins, as in find_var
  }
}

int CondVars::instr_var(int k) const {
  return k >= 0 && static_cast<std::size_t>(k) < instr_.size()
             ? instr_[static_cast<std::size_t>(k)]
             : -1;
}

int CondVars::mode_var(std::string_view inst, int bit) const {
  for (std::size_t v = 0; v < vars_.size(); ++v)
    if (vars_[v].kind == VarKind::Mode && vars_[v].bit == bit &&
        vars_[v].inst == inst)
      return static_cast<int>(v);
  return -1;
}

bdd::Ref CondVars::project_to_instr(bdd::BddManager& mgr,
                                    bdd::Ref cond) const {
  for (int v : mgr.support(cond))
    if (kind(v) != VarKind::Instr) cond = mgr.exists(cond, v);
  return cond;
}

bdd::Ref CondVars::with_field(bdd::BddManager& mgr, bdd::Ref cond,
                              const std::vector<int>& field,
                              std::uint64_t value) const {
  for (std::size_t j = 0; j < field.size(); ++j) {
    const int var = instr_var(field[j]);
    if (var >= 0)
      cond = mgr.land(cond, mgr.literal(var, ((value >> j) & 1u) != 0));
  }
  return cond;
}

}  // namespace record::rtl
