#include "ise/control.h"

#include "rtl/condvars.h"
#include "util/strings.h"

namespace record::ise {

using hdl::Cond;
using hdl::Expr;
using hdl::ModuleKind;
using hdl::PortClass;
using netlist::InstanceId;
using netlist::NetSource;
using util::fmt;

ControlAnalyzer::ControlAnalyzer(const netlist::Netlist& nl,
                                 bdd::BddManager& mgr,
                                 util::DiagnosticSink& diags)
    : nl_(nl), mgr_(mgr), diags_(diags) {
  first_instr_var_ = mgr_.var_count();
  for (int k = 0; k < nl_.instruction_width(); ++k)
    (void)mgr_.new_var(rtl::instr_var_name(k));
}

int ControlAnalyzer::instruction_var(int k) const {
  return first_instr_var_ + k;
}

bdd::BitVec ControlAnalyzer::dynamic_bits(const std::string& tag, int width) {
  auto it = dynamic_memo_.find(tag);
  if (it != dynamic_memo_.end()) return it->second;
  std::vector<bdd::Ref> bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    bits[static_cast<std::size_t>(i)] =
        mgr_.var(mgr_.new_var(rtl::bit_var_name(tag, i)));
  bdd::BitVec vec(std::move(bits));
  dynamic_memo_.emplace(tag, vec);
  return vec;
}

bdd::BitVec ControlAnalyzer::apply_slice(const bdd::BitVec& bits,
                                         bool has_slice,
                                         hdl::BitRange slice) {
  if (!has_slice) return bits;
  return bits.slice(slice.msb, slice.lsb);
}

bdd::BitVec ControlAnalyzer::out_port_bits(InstanceId inst,
                                           std::string_view port) {
  const netlist::Instance& in = nl_.instance(inst);
  std::string key = in.name + "." + std::string(port);
  if (auto it = out_memo_.find(key); it != out_memo_.end()) return it->second;

  const hdl::PortDecl* decl = in.decl->find_port(port);
  int width = decl ? decl->range.width() : 1;

  if (in_progress_.count(key)) {
    if (warned_.insert("cyc:" + key).second)
      diags_.warning({}, fmt("combinational cycle through '{}'; treating as "
                             "dynamic signal",
                             key));
    return dynamic_bits(rtl::dynamic_tag("cyc:" + key), width);
  }

  bdd::BitVec result;
  switch (in.kind()) {
    case ModuleKind::Controller: {
      std::vector<bdd::Ref> bits(static_cast<std::size_t>(width));
      for (int i = 0; i < width; ++i)
        bits[static_cast<std::size_t>(i)] = mgr_.var(instruction_var(i));
      result = bdd::BitVec(std::move(bits));
      break;
    }
    case ModuleKind::ModeReg:
      result = dynamic_bits(rtl::mode_tag(in.name), width);
      break;
    case ModuleKind::Register:
    case ModuleKind::Memory:
      // Data storage read as a control signal: data-dependent (e.g. status
      // flags feeding conditional-branch control).
      result = dynamic_bits(rtl::dynamic_tag(key), width);
      break;
    case ModuleKind::Combinational: {
      in_progress_.insert(key);
      result = combinational_out_bits(inst, port);
      in_progress_.erase(key);
      break;
    }
  }
  out_memo_.emplace(key, result);
  return result;
}

bdd::BitVec ControlAnalyzer::combinational_out_bits(InstanceId inst,
                                                    std::string_view port) {
  const netlist::Instance& in = nl_.instance(inst);
  const hdl::PortDecl* decl = in.decl->find_port(port);
  int width = decl ? decl->range.width() : 1;
  std::vector<bdd::Ref> bits(static_cast<std::size_t>(width), bdd::kFalse);
  for (const hdl::Transfer& t : in.decl->transfers) {
    if (t.is_cell_write() || t.target_port != port) continue;
    bdd::Ref g = t.guard ? guard_bdd(inst, *t.guard) : bdd::kTrue;
    if (g == bdd::kFalse) continue;
    bdd::BitVec v = expr_bits(inst, *t.rhs, width);
    for (int i = 0; i < width && i < v.width(); ++i)
      bits[static_cast<std::size_t>(i)] =
          mgr_.lor(bits[static_cast<std::size_t>(i)], mgr_.land(g, v.bit(i)));
  }
  return bdd::BitVec(std::move(bits));
}

bdd::BitVec ControlAnalyzer::expr_bits(InstanceId inst, const Expr& e,
                                       int width_hint) {
  const netlist::Instance& in = nl_.instance(inst);
  switch (e.kind) {
    case Expr::Kind::Const:
      return bdd::BitVec::constant(static_cast<std::uint64_t>(e.value),
                                   width_hint);
    case Expr::Kind::PortRef: {
      const hdl::PortDecl* p = in.decl->find_port(e.name);
      if (!p)
        return dynamic_bits(rtl::dynamic_tag("bad:" + in.name + "." + e.name),
                            width_hint);
      if (p->cls == PortClass::Out) return out_port_bits(inst, e.name);
      return in_port_bits(inst, e.name);
    }
    case Expr::Kind::Slice: {
      bdd::BitVec inner = expr_bits(inst, *e.args[0], e.slice.msb + 1);
      if (e.slice.msb >= inner.width())
        return dynamic_bits(
            rtl::dynamic_tag(fmt("slice:{}.{}", in.name, opaque_counter_++)),
            e.slice.width());
      return inner.slice(e.slice.msb, e.slice.lsb);
    }
    case Expr::Kind::CellRead:
    case Expr::Kind::Unary:
    case Expr::Kind::Binary:
    case Expr::Kind::Call:
      // Arithmetic inside control paths is opaque: its bits are fresh
      // unknowns. (Decoders are expected to use case-style guarded constant
      // assignments, which stay fully symbolic.)
      return dynamic_bits(
          rtl::dynamic_tag(fmt("opaque:{}.{}", in.name, opaque_counter_++)),
          width_hint);
  }
  return bdd::BitVec::constant(0, width_hint);
}

bdd::BitVec ControlAnalyzer::in_port_bits(InstanceId inst,
                                          std::string_view port) {
  const netlist::Instance& in = nl_.instance(inst);
  const hdl::PortDecl* decl = in.decl->find_port(port);
  int width = decl ? decl->range.width() : 1;
  const netlist::Driver* d = nl_.port_driver(inst, port);
  if (!d) {
    std::string key = in.name + "." + std::string(port);
    if (warned_.insert("undriven:" + key).second)
      diags_.warning({}, fmt("control port '{}' is undriven", key));
    return dynamic_bits(rtl::dynamic_tag("undriven:" + key), width);
  }
  bdd::BitVec bits = source_bits(d->source, width);
  return apply_slice(bits, d->source.has_slice, d->source.slice);
}

bdd::BitVec ControlAnalyzer::source_bits(const NetSource& src,
                                         int width_hint) {
  switch (src.kind) {
    case NetSource::Kind::Const: {
      int w = src.has_slice ? src.slice.width() : width_hint;
      return bdd::BitVec::constant(static_cast<std::uint64_t>(src.value), w);
    }
    case NetSource::Kind::ProcPort: {
      const hdl::ProcPortDecl* p = nl_.model().find_proc_port(src.port);
      int w = p ? p->range.width() : width_hint;
      return dynamic_bits(rtl::dynamic_tag("@" + src.port), w);
    }
    case NetSource::Kind::InstancePort:
      return out_port_bits(src.inst, src.port);
    case NetSource::Kind::Bus: {
      const std::vector<netlist::Driver>& drivers = nl_.bus_drivers(src.port);
      int w = nl_.bus_width(src.port);
      if (drivers.size() == 1) {
        const netlist::Driver& d = drivers.front();
        bdd::BitVec bits = source_bits(d.source, w);
        return apply_slice(bits, d.source.has_slice, d.source.slice);
      }
      // Control through a multi-driver bus: merge as OR of enabled values.
      std::vector<bdd::Ref> bits(static_cast<std::size_t>(w), bdd::kFalse);
      for (const netlist::Driver& d : drivers) {
        bdd::Ref en =
            d.guard ? structural_guard_bdd(*d.guard) : bdd::kTrue;
        bdd::BitVec v = apply_slice(source_bits(d.source, w),
                                    d.source.has_slice, d.source.slice);
        for (int i = 0; i < w && i < v.width(); ++i)
          bits[static_cast<std::size_t>(i)] =
              mgr_.lor(bits[static_cast<std::size_t>(i)],
                       mgr_.land(en, v.bit(i)));
      }
      return bdd::BitVec(std::move(bits));
    }
  }
  return bdd::BitVec::constant(0, width_hint);
}

bdd::Ref ControlAnalyzer::guard_bdd(InstanceId inst, const Cond& c) {
  switch (c.kind) {
    case Cond::Kind::True:
      return bdd::kTrue;
    case Cond::Kind::Cmp: {
      const netlist::Instance& in = nl_.instance(inst);
      const hdl::PortDecl* p = in.decl->find_port(c.port);
      bdd::BitVec bits;
      if (p && p->cls == PortClass::Out)
        bits = out_port_bits(inst, c.port);
      else
        bits = in_port_bits(inst, c.port);
      bits = apply_slice(bits, c.has_slice, c.slice);
      bdd::Ref eq =
          bits.equals_const(mgr_, static_cast<std::uint64_t>(c.value));
      return c.neq ? mgr_.lnot(eq) : eq;
    }
    case Cond::Kind::And: {
      bdd::Ref r = bdd::kTrue;
      for (const hdl::CondPtr& a : c.args) r = mgr_.land(r, guard_bdd(inst, *a));
      return r;
    }
    case Cond::Kind::Or: {
      bdd::Ref r = bdd::kFalse;
      for (const hdl::CondPtr& a : c.args) r = mgr_.lor(r, guard_bdd(inst, *a));
      return r;
    }
    case Cond::Kind::Not:
      return mgr_.lnot(guard_bdd(inst, *c.args[0]));
  }
  return bdd::kTrue;
}

bdd::Ref ControlAnalyzer::structural_guard_bdd(const Cond& c) {
  switch (c.kind) {
    case Cond::Kind::True:
      return bdd::kTrue;
    case Cond::Kind::Cmp: {
      InstanceId inst = nl_.find_instance(c.inst);
      if (inst < 0) {
        diags_.error(c.loc, fmt("guard references unknown instance '{}'",
                                c.inst));
        return bdd::kFalse;
      }
      bdd::BitVec bits = out_port_bits(inst, c.port);
      bits = apply_slice(bits, c.has_slice, c.slice);
      bdd::Ref eq =
          bits.equals_const(mgr_, static_cast<std::uint64_t>(c.value));
      return c.neq ? mgr_.lnot(eq) : eq;
    }
    case Cond::Kind::And: {
      bdd::Ref r = bdd::kTrue;
      for (const hdl::CondPtr& a : c.args)
        r = mgr_.land(r, structural_guard_bdd(*a));
      return r;
    }
    case Cond::Kind::Or: {
      bdd::Ref r = bdd::kFalse;
      for (const hdl::CondPtr& a : c.args)
        r = mgr_.lor(r, structural_guard_bdd(*a));
      return r;
    }
    case Cond::Kind::Not:
      return mgr_.lnot(structural_guard_bdd(*c.args[0]));
  }
  return bdd::kTrue;
}

}  // namespace record::ise
