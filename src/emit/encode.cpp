#include "emit/encode.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/strings.h"

namespace record::emit {

using util::fmt;

std::string EncodedWord::hex() const {
  // Render MSB-first, 4 bits per nibble.
  std::ostringstream os;
  int width = static_cast<int>(bits.size());
  int nibbles = (width + 3) / 4;
  for (int n = nibbles - 1; n >= 0; --n) {
    int v = 0;
    for (int b = 3; b >= 0; --b) {
      int idx = n * 4 + b;
      v = (v << 1) |
          (idx < width && bits[static_cast<std::size_t>(idx)] ? 1 : 0);
    }
    os << "0123456789abcdef"[v];
  }
  return os.str();
}

std::uint64_t EncodedWord::to_u64() const {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size() && i < 64; ++i)
    if (bits[i]) v |= (1ull << i);
  return v;
}

EncodeResult encode(const compact::CompactedProgram& prog,
                    const rtl::TemplateBase& base,
                    util::DiagnosticSink& diags) {
  EncodeResult result;
  if (!base.sealed()) {
    diags.error({}, "cannot encode against an unsealed template base");
    return result;
  }
  bdd::BddManager& mgr = *base.mgr;
  const rtl::CondVars& vars = base.vars();
  const auto& writers = base.writers();
  const int iw = base.instruction_width;
  // Per word: the storages it writes (by StorageWriters::index) and its
  // own templates (by id).
  std::vector<bool> written(writers.size(), false);
  std::vector<bool> own(base.templates.size(), false);

  // Pass 1: addresses.
  int addr = 0;
  for (const compact::CompactedRegion& r : prog.regions) {
    if (!r.label.empty()) result.assembly.labels[r.label] = addr;
    addr += static_cast<int>(r.words.size());
  }

  addr = 0;
  for (const compact::CompactedRegion& r : prog.regions) {
    bool first_in_region = true;
    for (const compact::Word& w : r.words) {
      EncodedWord ew;
      ew.word = &w;
      ew.address = addr++;
      if (first_in_region) {
        ew.label = r.label;
        first_in_region = false;
      }
      bdd::Ref cond = w.cond;

      // Branch-target fixup.
      if (w.has_branch) {
        auto it = result.assembly.labels.find(w.branch_target);
        if (it == result.assembly.labels.end()) {
          ++result.stats.unresolved_labels;
          diags.error({}, fmt("unresolved branch target '{}'",
                              w.branch_target));
        } else {
          for (const select::SelectedRT* rt : w.rts) {
            if (!rt->is_branch || !rt->tmpl) continue;
            if (rt->tmpl->value->kind != rtl::RTNode::Kind::Imm) continue;
            cond = vars.with_field(mgr, cond, rt->tmpl->value->imm_bits,
                                   static_cast<std::uint64_t>(it->second));
          }
        }
      }

      // Side-effect suppression. A storage the word does not write must not
      // be written by any template; a storage the word DOES write must not
      // also be written by a template outside the word's own RTs (two units
      // writing one location is a decode-time contention). A writer whose
      // cube conflicts with cond's cannot fire under cond, so guarding
      // against it leaves cond as it is: the bit test settles the step and
      // the BDD conjunction runs only when it cannot. cond only ever gains
      // conjuncts, so the cube taken here stays implied by it.
      std::fill(written.begin(), written.end(), false);
      std::fill(own.begin(), own.end(), false);
      for (const select::SelectedRT* rt : w.rts) {
        auto it = writers.find(rt->dest);
        if (it != writers.end()) written[it->second.index] = true;
        if (rt->tmpl) own[static_cast<std::size_t>(rt->tmpl->id)] = true;
      }
      const bdd::Cube cube = mgr.implied_literals(cond);
      auto excluded = [&](const rtl::Writer& wr) {
        return cube.conflicts(wr.cube);
      };
      auto suppress = [&](bool decided, bdd::Ref not_writer) {
        bdd::Ref guarded = decided ? cond : mgr.land(cond, not_writer);
        if (guarded != bdd::kFalse) {
          cond = guarded;
          ++result.stats.suppressed;
        } else {
          ++result.stats.unsuppressible;
        }
      };
      for (const auto& [storage, wc] : writers) {
        if (!written[wc.index]) {
          suppress(std::all_of(wc.each.begin(), wc.each.end(), excluded),
                   wc.not_any);
          continue;
        }
        for (const rtl::Writer& wr : wc.each)
          if (!own[wr.tmpl]) suppress(excluded(wr), wr.not_cond);
      }
      if (cond == bdd::kFalse) {
        diags.error({}, "instruction word condition unsatisfiable after "
                        "encoding fixups");
        cond = w.cond;  // fall back to the raw condition
      }

      ew.bits.assign(static_cast<std::size_t>(iw), false);
      if (auto sat = mgr.any_sat(cond)) {
        for (const auto& [var, val] : *sat) {
          const rtl::VarInfo& v = vars.info(var);
          if (v.kind == rtl::VarKind::Instr && v.bit < iw)
            ew.bits[static_cast<std::size_t>(v.bit)] = val;
        }
      }
      result.assembly.words.push_back(std::move(ew));
    }
  }
  return result;
}

}  // namespace record::emit
