#include "burstab/tables.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>

#include "burstab/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "treeparse/burs.h"
#include "util/strings.h"

namespace record::burstab {

using grammar::NtId;
using grammar::PatNode;
using grammar::Rule;
using grammar::TermId;

namespace {

/// Saturating addition in the kInf domain.
int sat_add(int a, int b) {
  if (a >= kInf || b >= kInf) return kInf;
  return a + b;
}

std::int64_t const_pair_key(int fit_index, int const_class) {
  return (static_cast<std::int64_t>(fit_index + 1) << 32) |
         static_cast<std::int64_t>(const_class + 1);
}

/// Build-closure budgets. The closure stops (and marks itself incomplete)
/// when either is hit; whatever it did not reach is computed per parse.
constexpr std::size_t kMaxStates = 512;
constexpr std::size_t kMaxTransitions = std::size_t{1} << 14;

/// Row counts beyond this leave one operator out of the packed tables (its
/// transitions are computed per parse) rather than materialise a
/// pathological displacement table.
constexpr std::size_t kMaxFrozenRows = std::size_t{1} << 20;

/// First word of every frozen pool. The pool is written to disk verbatim
/// (host int32s), so a blob produced on a foreign-endianness machine reads
/// back a scrambled marker and is rejected as a clean cache miss.
constexpr std::int32_t kPoolByteOrder = 0x01020304;
constexpr std::size_t kPoolHeaderWords = 12;
constexpr std::size_t kPoolOpHeaderWords = 8;

struct TransKey {
  TermId term;
  std::vector<int> children;
  friend bool operator==(const TransKey&, const TransKey&) = default;
};
struct TransKeyHash {
  std::size_t operator()(const TransKey& k) const {
    std::size_t h = 1469598103934665603ull ^ static_cast<std::size_t>(k.term);
    for (int c : k.children)
      h = (h ^ static_cast<std::size_t>(c)) * 1099511628211ull;
    return h;
  }
};

}  // namespace

std::size_t RowHash::operator()(const std::int32_t* row) const {
  std::size_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < words; ++i)
    h = (h ^ static_cast<std::size_t>(static_cast<std::uint32_t>(row[i]))) *
        1099511628211ull;
  return h;
}

bool RowEq::operator()(const std::int32_t* a, const std::int32_t* b) const {
  return std::memcmp(a, b, words * sizeof(std::int32_t)) == 0;
}

// --- construction -----------------------------------------------------------

bool TargetTables::pattern_is_constrained(const PatNode& pat) {
  // A rule is side-constrained iff its pattern contains two NonTerm leaves
  // of one non-terminal (structural-equality binding) or two Imm leaves
  // drawing from the same instruction field.
  std::vector<NtId> nts;
  std::vector<const std::vector<int>*> imms;
  bool constrained = false;
  auto walk = [&](auto&& self, const PatNode& p) -> void {
    if (constrained) return;
    switch (p.kind) {
      case PatNode::Kind::NonTerm:
        if (std::find(nts.begin(), nts.end(), p.nt) != nts.end())
          constrained = true;
        nts.push_back(p.nt);
        return;
      case PatNode::Kind::Imm:
        for (const std::vector<int>* prev : imms)
          if (*prev == p.imm_bits) constrained = true;
        imms.push_back(&p.imm_bits);
        return;
      case PatNode::Kind::Const:
        return;
      case PatNode::Kind::Term:
        for (const grammar::PatNodePtr& c : p.children) self(self, *c);
        return;
    }
  };
  walk(walk, pat);
  return constrained;
}

std::string TargetTables::pattern_key(const PatNode& p) {
  // Structural key for subpattern dedup. Imm leaves collapse to their width:
  // two Imm leaves of equal width match identically (bindings are collected
  // from the subject at reduce time, not from the table).
  switch (p.kind) {
    case PatNode::Kind::Term: {
      std::string k = util::fmt("T{}(", p.term);
      for (const grammar::PatNodePtr& c : p.children) {
        k += pattern_key(*c);
        k += ',';
      }
      k += ')';
      return k;
    }
    case PatNode::Kind::NonTerm:
      return util::fmt("N{}", p.nt);
    case PatNode::Kind::Imm:
      return util::fmt("I{}", p.width);
    case PatNode::Kind::Const:
      return util::fmt("C{}", p.value);
  }
  return "?";
}

void TargetTables::prepare(const grammar::TreeGrammar& g) {
  nt_count_ = g.nonterminal_count();
  const_term_ = g.const_terminal();
  fingerprint_ = ::record::burstab::grammar_fingerprint(g);
  const std::size_t terms = static_cast<std::size_t>(g.terminal_count());

  rules_by_terminal_.assign(terms, {});
  sub_plans_.assign(terms, {});
  chains_from_.assign(static_cast<std::size_t>(nt_count_), {});
  terminal_constrained_.assign(terms, false);
  subs_by_terminal_.assign(terms, {});
  constrained_precheck_.assign(terms, {});
  arities_by_terminal_.assign(terms, {});

  std::unordered_map<std::string, int> key_index;
  std::unordered_map<const PatNode*, int> sub_of;

  // Registers `p` (a Term-kind pattern position) and, recursively, its
  // Term-kind descendants.
  auto register_sub = [&](auto&& self, const PatNode& p) -> void {
    if (p.kind != PatNode::Kind::Term) return;
    std::string key = pattern_key(p);
    auto [it, inserted] =
        key_index.emplace(std::move(key), static_cast<int>(subpatterns_.size()));
    if (inserted) {
      subpatterns_.push_back(&p);
      subs_by_terminal_[static_cast<std::size_t>(p.term)].push_back(
          it->second);
    }
    sub_of.emplace(&p, it->second);
    for (const grammar::PatNodePtr& c : p.children) self(self, *c);
  };

  // Collects Imm widths / Const values and records operator arities.
  auto scan_leaves = [&](auto&& self, const PatNode& p) -> void {
    switch (p.kind) {
      case PatNode::Kind::Imm:
        fit_widths_.push_back(p.width);
        return;
      case PatNode::Kind::Const:
        const_values_.push_back(p.value);
        return;
      case PatNode::Kind::NonTerm:
        return;
      case PatNode::Kind::Term: {
        std::vector<int>& ar =
            arities_by_terminal_[static_cast<std::size_t>(p.term)];
        int k = static_cast<int>(p.children.size());
        if (std::find(ar.begin(), ar.end(), k) == ar.end()) ar.push_back(k);
        for (const grammar::PatNodePtr& c : p.children) self(self, *c);
        return;
      }
    }
  };

  for (const Rule& r : g.rules()) {
    if (r.is_chain()) {
      chains_from_[static_cast<std::size_t>(r.pattern->nt)].push_back(
          ChainPlan{r.id, r.lhs, r.cost});
      continue;
    }
    scan_leaves(scan_leaves, *r.pattern);  // constrained arities matter too
    if (pattern_is_constrained(*r.pattern)) {
      ++constrained_rules_;
      // Nodes of this operator run the hybrid path: table transition plus
      // a matcher sweep over exactly these rules.
      TermId root_term = r.pattern->kind == PatNode::Kind::Term
                             ? r.pattern->term
                             : const_term_;
      terminal_constrained_[static_cast<std::size_t>(root_term)] = true;
      if (r.pattern->kind == PatNode::Kind::Term) {
        ConstrainedPrecheck pc;
        pc.rule = r.id;
        pc.arity = static_cast<std::uint32_t>(r.pattern->children.size());
        for (std::size_t i = 0; i < r.pattern->children.size(); ++i) {
          const PatNode& c = *r.pattern->children[i];
          ConstrainedPrecheck::Req req;
          req.pos = static_cast<std::uint32_t>(i);
          switch (c.kind) {
            case PatNode::Kind::NonTerm:
              continue;  // matches anything derivable; matcher decides
            case PatNode::Kind::Imm:
            case PatNode::Kind::Const:
              req.want_const = true;
              break;
            case PatNode::Kind::Term:
              req.term = c.term;
              req.term_arity =
                  static_cast<std::uint32_t>(c.children.size());
              break;
          }
          pc.reqs.push_back(req);
        }
        constrained_precheck_[static_cast<std::size_t>(root_term)].push_back(
            std::move(pc));
      }
      continue;
    }
    ++table_rules_;
    RulePlan plan{r.id, r.lhs, r.cost, r.pattern.get(), {}};
    if (r.pattern->kind == PatNode::Kind::Term) {
      rules_by_terminal_[static_cast<std::size_t>(r.pattern->term)].push_back(
          plan);
      if (r.pattern->term == const_term_) const_root_rules_.push_back(plan);
      for (const grammar::PatNodePtr& c : r.pattern->children)
        register_sub(register_sub, *c);
    } else {
      // Imm/Const-rooted rules attach to the constant terminal.
      const_root_rules_.push_back(plan);
    }
  }

  std::sort(fit_widths_.begin(), fit_widths_.end());
  fit_widths_.erase(std::unique(fit_widths_.begin(), fit_widths_.end()),
                    fit_widths_.end());
  std::sort(const_values_.begin(), const_values_.end());
  const_values_.erase(
      std::unique(const_values_.begin(), const_values_.end()),
      const_values_.end());
  stride_ = 2 * nt_count_ + static_cast<int>(subpatterns_.size()) + 3;

  // Resolve every pattern child to its row test once, so state computation
  // never looks a pattern node up.
  auto child_matches = [&](const PatNode& p) {
    std::vector<ChildMatch> kids;
    for (const grammar::PatNodePtr& c : p.children) {
      ChildMatch m;
      switch (c->kind) {
        case PatNode::Kind::NonTerm:
          m.arg = c->nt;
          break;
        case PatNode::Kind::Term:
          m.arg = 2 * nt_count_ + sub_of.at(c.get());
          break;
        case PatNode::Kind::Imm:
          // Fit is monotone in width: a value fits every registered width
          // >= its minimal fitting one.
          m.kind = ChildMatch::Kind::kImm;
          m.arg = static_cast<int>(
              std::lower_bound(fit_widths_.begin(), fit_widths_.end(),
                               c->width) -
              fit_widths_.begin());
          break;
        case PatNode::Kind::Const:
          m.kind = ChildMatch::Kind::kConst;
          m.arg = const_class_index(c->value);
          break;
      }
      kids.push_back(m);
    }
    return kids;
  };
  rule_groups_.assign(terms, {});
  for (std::size_t t = 0; t < terms; ++t) {
    std::vector<RulePlan>& plans = rules_by_terminal_[t];
    for (std::size_t pi = 0; pi < plans.size(); ++pi) {
      RulePlan& plan = plans[pi];
      plan.kids = child_matches(*plan.pattern);
      if (plan.kids.empty()) continue;
      const ChildMatch& first = plan.kids.front();
      std::vector<RuleGroup>& groups = rule_groups_[t];
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const RuleGroup& g) {
                               return g.first.kind == first.kind &&
                                      g.first.arg == first.arg;
                             });
      if (it == groups.end())
        it = groups.insert(groups.end(), RuleGroup{first, {}});
      it->plans.push_back(static_cast<int>(pi));
    }
  }
  for (std::size_t qi = 0; qi < subpatterns_.size(); ++qi) {
    const PatNode& q = *subpatterns_[qi];
    sub_plans_[static_cast<std::size_t>(q.term)].push_back(
        RulePlan{static_cast<int>(qi), -1, 0, &q, child_matches(q)});
  }
}

TargetTables::TargetTables(const grammar::TreeGrammar& g, NoBuild) {
  prepare(g);
}

TargetTables::TargetTables(const grammar::TreeGrammar& g)
    : TargetTables(g, NoBuild{}) {
  run_closure();
}

// --- state computation ------------------------------------------------------

StateView TargetTables::view_of_row(const std::int32_t* row) const {
  StateView v;
  v.cost = row;
  v.rule = row + nt_count_;
  v.sub = row + 2 * nt_count_;
  const std::int32_t* meta = row + stride_ - 3;
  v.is_const_leaf = meta[0] != 0;
  v.fit_width_index = meta[1];
  v.const_class = meta[2];
  return v;
}

int TargetTables::match_cost(const ChildMatch& m,
                             const std::int32_t* s) const {
  const std::int32_t* meta = s + stride_ - 3;
  switch (m.kind) {
    case ChildMatch::Kind::kWord:
      return s[static_cast<std::size_t>(m.arg)];
    case ChildMatch::Kind::kImm:
      return meta[0] != 0 && meta[1] >= 0 && meta[1] <= m.arg ? 0 : kInf;
    case ChildMatch::Kind::kConst:
      return meta[0] != 0 && meta[2] >= 0 && meta[2] == m.arg ? 0 : kInf;
  }
  return kInf;
}

void TargetTables::close_chains(std::int32_t* cost, std::int32_t* rule) const {
  bool changed = true;
  while (changed) {
    changed = false;
    for (int y = 0; y < nt_count_; ++y) {
      int base = cost[static_cast<std::size_t>(y)];
      if (base >= kInf) continue;
      for (const ChainPlan& c : chains_from_[static_cast<std::size_t>(y)]) {
        int total = sat_add(base, c.cost);
        std::size_t lhs = static_cast<std::size_t>(c.lhs);
        if (total < cost[lhs]) {
          cost[lhs] = total;
          rule[lhs] = c.id;
          changed = true;
        }
      }
    }
  }
}

void TargetTables::match_rules(TermId term,
                               const std::int32_t* const* kid_rows,
                               std::size_t k, std::int32_t* cost,
                               std::int32_t* rule) const {
  const std::size_t t = static_cast<std::size_t>(term);
  for (int i = 0; i < nt_count_; ++i) cost[i] = kInf;
  for (int i = 0; i < nt_count_; ++i) rule[i] = -1;
  // The interpreter scans rules in id order with strict improvement: per
  // non-terminal the cheapest rule wins, the lowest id among equals. The
  // lexicographic (cost, rule id) argmin below is the same choice, so only
  // the groups whose first child matches need visiting, in any order.
  const auto offer = [&](const RulePlan& plan, int sum) {
    const int total = sat_add(sum, plan.cost);
    const std::size_t lhs = static_cast<std::size_t>(plan.lhs);
    if (total < cost[lhs] || (total == cost[lhs] && plan.id < rule[lhs])) {
      cost[lhs] = total;
      rule[lhs] = plan.id;
    }
  };
  const std::vector<RulePlan>& plans = rules_by_terminal_[t];
  if (k == 0) {
    for (const RulePlan& plan : plans)
      if (plan.kids.empty()) offer(plan, 0);
    return;
  }
  for (const RuleGroup& group : rule_groups_[t]) {
    const int first = match_cost(group.first, kid_rows[0]);
    if (first >= kInf) continue;
    for (int pi : group.plans) {
      const RulePlan& plan = plans[static_cast<std::size_t>(pi)];
      if (plan.kids.size() != k) continue;
      int sum = first;
      for (std::size_t i = 1; i < k && sum < kInf; ++i)
        sum = sat_add(sum, match_cost(plan.kids[i], kid_rows[i]));
      if (sum < kInf) offer(plan, sum);
    }
  }
}

int TargetTables::compute_transition(TermId term,
                                     const std::int32_t* const* kid_rows,
                                     std::size_t k, std::int32_t* row) const {
  const std::size_t nts = static_cast<std::size_t>(nt_count_);
  const std::size_t subs = subpatterns_.size();

  // Mirrors TreeParser::label exactly: the same rule per non-terminal (see
  // match_rules), then chain closure to fixpoint in the same sweep order —
  // identical costs AND identical tie-breaking.
  std::int32_t* cost = row;
  std::int32_t* rule = row + nts;
  std::int32_t* sub = row + 2 * nts;
  match_rules(term, kid_rows, k, cost, rule);
  close_chains(cost, rule);

  int delta = kInf;
  for (std::size_t i = 0; i < nts; ++i) delta = std::min(delta, cost[i]);
  if (delta >= kInf) delta = 0;
  for (std::size_t i = 0; i < nts; ++i)
    if (cost[i] < kInf) cost[i] -= delta;

  for (std::size_t i = 0; i < subs; ++i) sub[i] = kInf;
  for (const RulePlan& q : sub_plans_[static_cast<std::size_t>(term)]) {
    if (q.kids.size() != k) continue;
    int sum = 0;
    for (std::size_t i = 0; i < k && sum < kInf; ++i)
      sum = sat_add(sum, match_cost(q.kids[i], kid_rows[i]));
    if (sum < kInf) sub[static_cast<std::size_t>(q.id)] = sum - delta;
  }
  std::int32_t* meta = row + stride_ - 3;
  meta[0] = 0;
  meta[1] = -1;
  meta[2] = -1;
  return delta;
}

void TargetTables::compute_const_state(int fit_index, int const_class,
                                       std::int32_t* row) const {
  // #const leaves keep absolute costs (base 0) so that rules consuming the
  // leaf through an Imm/Const pattern (operand cost 0) and through a
  // NonTerm (operand cost = the leaf's absolute cost) agree on one base.
  const std::size_t nts = static_cast<std::size_t>(nt_count_);
  const std::size_t subs = subpatterns_.size();
  std::int32_t* cost = row;
  std::int32_t* rule = row + nts;
  std::int32_t* sub = row + 2 * nts;
  for (std::size_t i = 0; i < nts; ++i) cost[i] = kInf;
  for (std::size_t i = 0; i < nts; ++i) rule[i] = -1;
  for (const RulePlan& plan : const_root_rules_) {
    bool matches = false;
    switch (plan.pattern->kind) {
      case PatNode::Kind::Imm:
        matches = fit_index >= 0 &&
                  fit_widths_[static_cast<std::size_t>(fit_index)] <=
                      plan.pattern->width;
        break;
      case PatNode::Kind::Const:
        matches = const_class >= 0 &&
                  const_values_[static_cast<std::size_t>(const_class)] ==
                      plan.pattern->value;
        break;
      case PatNode::Kind::Term:
        matches = plan.pattern->children.empty();
        break;
      case PatNode::Kind::NonTerm:
        break;
    }
    if (!matches) continue;
    std::size_t lhs = static_cast<std::size_t>(plan.lhs);
    if (plan.cost < cost[lhs]) {
      cost[lhs] = plan.cost;
      rule[lhs] = plan.id;
    }
  }
  close_chains(cost, rule);

  for (std::size_t i = 0; i < subs; ++i) sub[i] = kInf;
  for (const RulePlan& q : sub_plans_[static_cast<std::size_t>(const_term_)])
    if (q.kids.empty()) sub[static_cast<std::size_t>(q.id)] = 0;
  std::int32_t* meta = row + stride_ - 3;
  meta[0] = 1;
  meta[1] = fit_index;
  meta[2] = const_class;
}

void TargetTables::compute_const_row(std::int64_t value,
                                     std::int32_t* row) const {
  compute_const_state(fit_index_of(value), const_class_index(value), row);
}

// --- lookups ----------------------------------------------------------------

int TargetTables::fit_index_of(std::int64_t value) const {
  for (std::size_t i = 0; i < fit_widths_.size(); ++i)
    if (treeparse::TreeParser::immediate_fits(value, fit_widths_[i]))
      return static_cast<int>(i);
  return -1;
}

int TargetTables::const_class_index(std::int64_t value) const {
  auto it = std::lower_bound(const_values_.begin(), const_values_.end(),
                             value);
  return it == const_values_.end() || *it != value
             ? -1
             : static_cast<int>(it - const_values_.begin());
}

int TargetTables::const_leaf_state(std::int64_t value) const {
  return frozen_->const_lookup(fit_index_of(value), const_class_index(value));
}

int TargetTables::find_state(const std::int32_t* row) const {
  auto it = row_index_.find(row);
  return it == row_index_.end() ? -1 : it->second;
}

// --- frozen lookups ---------------------------------------------------------

bool TargetTables::FrozenTables::lookup(TermId term, const int* children,
                                        std::size_t arity, Transition& out,
                                        std::int32_t* slot_out) const {
  if (term < 0 || static_cast<std::size_t>(term) >= op_begin.size())
    return false;
  for (std::int32_t oi = op_begin[static_cast<std::size_t>(term)];
       oi < op_end[static_cast<std::size_t>(term)]; ++oi) {
    const Op& op = ops[static_cast<std::size_t>(oi)];
    if (static_cast<std::size_t>(op.arity) != arity) continue;
    if (arity == 0) {
      if (!op.has_leaf) return false;
      out = op.leaf;
      if (slot_out) *slot_out = op.slot_base;
      return true;
    }
    const std::int32_t* maps = op.maps.data();
    std::int32_t row = 0;
    for (std::size_t p = 0; p + 1 < arity; ++p) {
      const unsigned s = static_cast<unsigned>(children[p]);
      if (s >= static_cast<unsigned>(state_count)) return false;
      std::int32_t idx = maps[p * static_cast<std::size_t>(state_count) + s];
      if (idx < 0) return false;
      row = row * op.dims[p] + idx;
    }
    const unsigned s = static_cast<unsigned>(children[arity - 1]);
    if (s >= static_cast<unsigned>(state_count)) return false;
    std::int32_t col =
        maps[(arity - 1) * static_cast<std::size_t>(state_count) + s];
    if (col < 0) return false;
    std::size_t slot = static_cast<std::size_t>(
        op.disp[static_cast<std::size_t>(row)] + col);
    if (slot >= op.check.size() || op.check[slot] != row) return false;
    out.state = op.val_state[slot];
    out.delta = op.val_delta[slot];
    if (slot_out) *slot_out = op.slot_base + static_cast<std::int32_t>(slot);
    return true;
  }
  return false;
}

int TargetTables::FrozenTables::const_lookup(int fit_index,
                                             int const_class) const {
  std::size_t idx = static_cast<std::size_t>(fit_index + 1) *
                        static_cast<std::size_t>(cc_dim) +
                    static_cast<std::size_t>(const_class + 1);
  if (idx >= const_state.size()) return -1;
  return const_state[idx];
}

// Pool layout (all host int32s; written to disk verbatim, so everything is
// an offset — never a pointer):
//   header[12]: byte-order marker, state_count, stride, fit_dim, cc_dim,
//               term_count, op_count, transitions, slot_count, 3 reserved
//   state rows      [state_count * stride]
//   const_state     [fit_dim * cc_dim]
//   op_begin        [term_count]
//   op_end          [term_count]
//   per op:
//     header[8]: term, arity, has_leaf, leaf_state, leaf_delta, slot_base,
//                disp_len, check_len
//     dims[arity]  maps[arity*state_count]  disp[disp_len]
//     check[check_len]  val_state[check_len]  val_delta[check_len]
bool TargetTables::FrozenTables::init_from_pool(const std::int32_t* w,
                                                std::size_t word_count,
                                                int stride,
                                                std::size_t term_count,
                                                std::size_t fit_dim_expected,
                                                int cc_dim_expected) {
  if (word_count < kPoolHeaderWords) return false;
  if (w[0] != kPoolByteOrder) return false;
  const std::int32_t sc = w[1];
  if (sc < 0 || sc > (1 << 22)) return false;
  if (w[2] != stride) return false;
  if (w[3] != static_cast<std::int32_t>(fit_dim_expected)) return false;
  if (w[4] != cc_dim_expected) return false;
  if (w[5] != static_cast<std::int32_t>(term_count)) return false;
  const std::int32_t op_count = w[6];
  if (op_count < 0 || w[7] < 0 || w[8] < 0) return false;
  state_count = sc;
  cc_dim = cc_dim_expected;
  transitions = static_cast<std::size_t>(w[7]);
  slot_count = static_cast<std::size_t>(w[8]);
  pool_data = w;
  pool_words = word_count;

  std::size_t pos = kPoolHeaderWords;
  auto span = [&](std::size_t len, Span32& out) -> bool {
    if (len > word_count - pos) return false;
    out = Span32{w + pos, len};
    pos += len;
    return true;
  };

  const std::size_t scz = static_cast<std::size_t>(sc);
  const std::size_t stridez = static_cast<std::size_t>(stride);
  if (scz * stridez > word_count - pos) return false;
  rows.resize(scz);
  for (std::size_t i = 0; i < scz; ++i) {
    const std::int32_t* row = w + pos + i * stridez;
    // The meta words index fit_widths_ / const_values_ downstream — bound
    // them here so a corrupt blob cannot steer reads out of those arrays.
    const std::int32_t* meta = row + stridez - 3;
    if (meta[1] < -1 || meta[1] + 1 >= static_cast<std::int32_t>(fit_dim_expected))
      return false;
    if (meta[2] < -1 || meta[2] + 1 >= cc_dim_expected) return false;
    rows[i] = row;
  }
  pos += scz * stridez;

  if (!span(fit_dim_expected * static_cast<std::size_t>(cc_dim_expected),
            const_state))
    return false;
  for (std::size_t i = 0; i < const_state.size(); ++i)
    if (const_state[i] < -1 || const_state[i] >= sc) return false;
  if (!span(term_count, op_begin) || !span(term_count, op_end)) return false;
  for (std::size_t t = 0; t < term_count; ++t)
    if (op_begin[t] < 0 || op_begin[t] > op_end[t] || op_end[t] > op_count)
      return false;

  ops.reserve(static_cast<std::size_t>(op_count));
  for (std::int32_t i = 0; i < op_count; ++i) {
    if (kPoolOpHeaderWords > word_count - pos) return false;
    Op op;
    op.term = w[pos];
    op.arity = w[pos + 1];
    op.has_leaf = w[pos + 2] != 0;
    op.leaf.state = w[pos + 3];
    op.leaf.delta = w[pos + 4];
    op.slot_base = w[pos + 5];
    const std::int32_t disp_len = w[pos + 6];
    const std::int32_t check_len = w[pos + 7];
    pos += kPoolOpHeaderWords;
    if (op.term < 0 || static_cast<std::size_t>(op.term) >= term_count)
      return false;
    if (op.arity < 0 || op.arity > 64) return false;
    if (disp_len < 0 || check_len < 0) return false;
    const std::size_t k = static_cast<std::size_t>(op.arity);
    if (!span(k, op.dims) || !span(k * scz, op.maps) ||
        !span(static_cast<std::size_t>(disp_len), op.disp) ||
        !span(static_cast<std::size_t>(check_len), op.check) ||
        !span(static_cast<std::size_t>(check_len), op.val_state) ||
        !span(static_cast<std::size_t>(check_len), op.val_delta))
      return false;
    if (op.arity == 0) {
      if (op.has_leaf && (op.leaf.state < 0 || op.leaf.state >= sc))
        return false;
    } else {
      for (std::size_t p = 0; p < k; ++p) {
        if (op.dims[p] < 0) return false;
        for (std::size_t s = 0; s < scz; ++s) {
          std::int32_t idx = op.maps[p * scz + s];
          if (idx < -1 || idx >= op.dims[p]) return false;
        }
      }
      const std::int32_t col_count = op.dims[k - 1];
      for (std::size_t r = 0; r < op.disp.size(); ++r)
        if (op.disp[r] < 0 || op.disp[r] + col_count > check_len)
          return false;
      for (std::size_t s = 0; s < op.check.size(); ++s) {
        if (op.check[s] < -1 || op.check[s] >= disp_len) return false;
        if (op.check[s] >= 0 &&
            (op.val_state[s] < 0 || op.val_state[s] >= sc))
          return false;
      }
    }
    ops.push_back(op);
  }
  for (std::size_t t = 0; t < term_count; ++t)
    for (std::int32_t oi = op_begin[t]; oi < op_end[t]; ++oi)
      if (ops[static_cast<std::size_t>(oi)].term !=
          static_cast<std::int32_t>(t))
        return false;
  return pos == word_count;
}

// --- build closure ----------------------------------------------------------

/// Build-time state of the closure: the state arena, its row index, the
/// transition map and the #const pairs. Lives only inside run_closure();
/// pack() turns it into the FrozenTables the object keeps.
struct TargetTables::Closure {
  explicit Closure(const TargetTables& tables)
      : t(tables),
        index(64, RowHash{tables.stride()}, RowEq{tables.stride()}),
        scratch(tables.stride()) {}

  const TargetTables& t;
  std::vector<std::unique_ptr<std::int32_t[]>> rows;  // per state; stable
  RowIndex index;
  std::vector<std::int32_t> scratch;  // staging row for compute_*
  std::vector<const std::int32_t*> kid_rows;  // staging for add_transition
  std::unordered_map<TransKey, Transition, TransKeyHash> trans;
  std::unordered_map<std::int64_t, int> const_state_by_pair;

  [[nodiscard]] int state_count() const { return static_cast<int>(rows.size()); }

  /// Interns the scratch row.
  int intern() {
    auto it = index.find(scratch.data());
    if (it != index.end()) return it->second;
    rows.push_back(std::make_unique<std::int32_t[]>(scratch.size()));
    std::copy(scratch.begin(), scratch.end(), rows.back().get());
    const int id = state_count() - 1;
    index.emplace(rows.back().get(), id);
    return id;
  }

  void add_const(int fit_index, int const_class) {
    const std::int64_t key = const_pair_key(fit_index, const_class);
    if (const_state_by_pair.count(key)) return;
    t.compute_const_state(fit_index, const_class, scratch.data());
    const_state_by_pair.emplace(key, intern());
  }

  void add_transition(TermId term, const std::vector<int>& children) {
    TransKey key{term, children};
    if (trans.count(key)) return;
    kid_rows.clear();
    for (int c : children)
      kid_rows.push_back(rows[static_cast<std::size_t>(c)].get());
    const int delta = t.compute_transition(term, kid_rows.data(),
                                           kid_rows.size(), scratch.data());
    trans.emplace(std::move(key), Transition{intern(), delta});
  }

  [[nodiscard]] std::unique_ptr<FrozenTables> pack() const;
};

void TargetTables::run_closure() {
  Closure c(*this);
  const std::size_t work_cap = kMaxTransitions * 64;
  std::size_t work = 0;

  // Leaf seeding: one state per hardwired pattern constant, one per
  // immediate-fit class, one per leaf operator.
  for (std::int64_t v : const_values_)
    c.add_const(fit_index_of(v), const_class_index(v));
  for (int fi = -1; fi < static_cast<int>(fit_widths_.size()); ++fi)
    c.add_const(fi, -1);
  const std::vector<int> no_children;
  for (std::size_t t = 0; t < rules_by_terminal_.size(); ++t)
    if (!terminal_constrained_[t])
      c.add_transition(static_cast<TermId>(t), no_children);

  // Bottom-up closure: combine known states under every operator arity until
  // nothing new appears or a budget is hit. Tuples whose prefix already
  // rules out every rule and subpattern are pruned. Operators that own a
  // side-constrained rule stay out: closing over them multiplies the
  // transitions past the budget (ref: 408 -> 16384+), so their nodes are
  // computed per job instead.
  std::size_t frontier_begin = 0;
  bool out_of_budget = false;
  while (frontier_begin < static_cast<std::size_t>(c.state_count()) &&
         !out_of_budget) {
    std::size_t frontier_end = static_cast<std::size_t>(c.state_count());
    for (std::size_t t = 0;
         t < rules_by_terminal_.size() && !out_of_budget; ++t) {
      if (terminal_constrained_[t]) continue;
      if (static_cast<TermId>(t) == const_term_) continue;
      for (int arity : arities_by_terminal_[t]) {
        if (arity < 1) continue;
        std::vector<const RulePlan*> plans;
        for (const RulePlan& p : rules_by_terminal_[t])
          if (static_cast<int>(p.kids.size()) == arity) plans.push_back(&p);
        for (const RulePlan& q : sub_plans_[t])
          if (static_cast<int>(q.kids.size()) == arity) plans.push_back(&q);
        if (plans.empty()) continue;

        std::vector<int> tuple(static_cast<std::size_t>(arity));
        auto enumerate = [&](auto&& self, int pos, bool has_new) -> void {
          if (out_of_budget) return;
          if (++work > work_cap ||
              static_cast<std::size_t>(c.state_count()) >= kMaxStates ||
              c.trans.size() >= kMaxTransitions) {
            out_of_budget = true;
            return;
          }
          if (pos == arity) {
            if (has_new) c.add_transition(static_cast<TermId>(t), tuple);
            return;
          }
          for (std::size_t sid = 0; sid < frontier_end; ++sid) {
            const std::int32_t* s = c.rows[sid].get();
            // Prune: some rule or subpattern must still be able to match
            // with this state at position `pos`.
            bool viable = false;
            for (const RulePlan* p : plans) {
              if (match_cost(p->kids[static_cast<std::size_t>(pos)], s) <
                  kInf) {
                viable = true;
                break;
              }
            }
            if (!viable) continue;
            tuple[static_cast<std::size_t>(pos)] = static_cast<int>(sid);
            self(self, pos + 1, has_new || sid >= frontier_begin);
            if (out_of_budget) return;
          }
        };
        enumerate(enumerate, 0, false);
      }
    }
    frontier_begin = frontier_end;
  }
  closure_complete_ = !out_of_budget;
  adopt(c.pack());
}

std::unique_ptr<TargetTables::FrozenTables> TargetTables::Closure::pack()
    const {
  OBS_SPAN("burstab.freeze");
  obs::metrics().counter("burstab.freeze").add(1);

  /// Staging of one Op (mutable vectors; packed into the pool once the
  /// displacement tables are final).
  struct OpBuild {
    std::int32_t term = -1;
    std::int32_t arity = 0;
    bool has_leaf = false;
    Transition leaf{};
    std::int32_t slot_base = 0;
    std::vector<std::int32_t> dims, maps, disp, check, val_state, val_delta;
  };

  const std::size_t fit_dim = t.fit_widths_.size() + 1;
  const int ccd = static_cast<int>(t.const_values_.size()) + 1;
  std::vector<std::int32_t> const_state(
      fit_dim * static_cast<std::size_t>(ccd), -1);
  for (const auto& [key, sid] : const_state_by_pair) {
    std::size_t fit1 = static_cast<std::size_t>(key >> 32);
    std::size_t cc1 = static_cast<std::size_t>(key & 0xffffffff);
    const_state[fit1 * static_cast<std::size_t>(ccd) + cc1] = sid;
  }

  // Bucket the transitions by (term, arity).
  const std::size_t terms = t.rules_by_terminal_.size();
  using Entry = std::pair<const TransKey, Transition>;
  std::vector<std::vector<std::pair<int, std::vector<const Entry*>>>> by_term(
      terms);
  for (const Entry& entry : trans) {
    const TransKey& key = entry.first;
    auto& groups = by_term[static_cast<std::size_t>(key.term)];
    const int arity = static_cast<int>(key.children.size());
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&](const auto& g) { return g.first == arity; });
    if (it == groups.end()) {
      groups.emplace_back(arity, std::vector<const Entry*>{});
      it = groups.end() - 1;
    }
    it->second.push_back(&entry);
  }

  std::vector<std::int32_t> op_begin(terms, 0);
  std::vector<std::int32_t> op_end(terms, 0);
  std::vector<OpBuild> built;
  std::size_t transitions = 0;
  const std::size_t sc = rows.size();
  // Transition-slot numbering (coverage identity): each op owns a
  // contiguous span — one slot for a leaf, check.size() slots for a packed
  // op (holes where check stays -1 are simply never hit).
  std::size_t slot_running = 0;
  for (std::size_t term = 0; term < terms; ++term) {
    op_begin[term] = static_cast<std::int32_t>(built.size());
    for (auto& [arity, entries] : by_term[term]) {
      OpBuild op;
      op.term = static_cast<std::int32_t>(term);
      op.arity = arity;
      if (arity == 0) {
        op.has_leaf = true;
        op.leaf = entries.front()->second;
        op.slot_base = static_cast<std::int32_t>(slot_running);
        slot_running += 1;
        transitions += 1;
        built.push_back(std::move(op));
        continue;
      }
      const std::size_t k = static_cast<std::size_t>(arity);
      // Chase-style index maps: per child position, child state -> compact
      // index over the states actually seen there.
      op.dims.assign(k, 0);
      op.maps.assign(k * sc, -1);
      for (const Entry* e : entries)
        for (std::size_t p = 0; p < k; ++p) {
          std::int32_t& slot = op.maps[p * sc + static_cast<std::size_t>(
                                                    e->first.children[p])];
          if (slot < 0) slot = op.dims[p]++;
        }
      std::size_t row_count = 1;
      for (std::size_t p = 0; p + 1 < k; ++p)
        row_count *= static_cast<std::size_t>(op.dims[p]);
      const std::size_t col_count = static_cast<std::size_t>(op.dims[k - 1]);
      if (row_count > kMaxFrozenRows) continue;  // computed per parse

      // Row-displacement packing: rows (all but the last child index,
      // flattened) share one value array; a check column verifies the
      // probed slot belongs to the probing row.
      std::vector<std::vector<std::pair<std::int32_t, Transition>>> dense(
          row_count);
      for (const Entry* e : entries) {
        std::int32_t row = 0;
        for (std::size_t p = 0; p + 1 < k; ++p)
          row = row * op.dims[p] +
                op.maps[p * sc +
                        static_cast<std::size_t>(e->first.children[p])];
        std::int32_t col =
            op.maps[(k - 1) * sc +
                    static_cast<std::size_t>(e->first.children[k - 1])];
        dense[static_cast<std::size_t>(row)].emplace_back(col, e->second);
      }
      std::vector<std::size_t> order(row_count);
      std::iota(order.begin(), order.end(), 0);
      std::stable_sort(order.begin(), order.end(),
                       [&](std::size_t a, std::size_t b) {
                         return dense[a].size() > dense[b].size();
                       });
      op.disp.assign(row_count, 0);
      op.check.assign(col_count, -1);
      op.val_state.assign(col_count, -1);
      op.val_delta.assign(col_count, 0);
      for (std::size_t r : order) {
        if (dense[r].empty()) continue;
        std::size_t d = 0;
        for (;; ++d) {
          bool fits = true;
          for (const auto& [col, tr] : dense[r]) {
            (void)tr;
            std::size_t slot = d + static_cast<std::size_t>(col);
            if (slot < op.check.size() && op.check[slot] != -1) {
              fits = false;
              break;
            }
          }
          if (fits) break;
        }
        std::size_t need = d + col_count;
        if (op.check.size() < need) {
          op.check.resize(need, -1);
          op.val_state.resize(need, -1);
          op.val_delta.resize(need, 0);
        }
        op.disp[r] = static_cast<std::int32_t>(d);
        for (const auto& [col, tr] : dense[r]) {
          std::size_t slot = d + static_cast<std::size_t>(col);
          op.check[slot] = static_cast<std::int32_t>(r);
          op.val_state[slot] = tr.state;
          op.val_delta[slot] = tr.delta;
        }
        transitions += dense[r].size();
      }
      op.slot_base = static_cast<std::int32_t>(slot_running);
      slot_running += op.check.size();
      built.push_back(std::move(op));
    }
    op_end[term] = static_cast<std::int32_t>(built.size());
  }

  // Pack everything into one position-independent pool, then point the
  // views at it.
  const std::size_t stride = static_cast<std::size_t>(t.stride_);
  std::size_t words =
      kPoolHeaderWords + sc * stride + const_state.size() + 2 * terms;
  for (const OpBuild& b : built)
    words += kPoolOpHeaderWords + b.dims.size() + b.maps.size() +
             b.disp.size() + 3 * b.check.size();

  auto f = std::make_unique<FrozenTables>();
  std::vector<std::int32_t>& pool = f->pool;
  pool.reserve(words);
  pool.push_back(kPoolByteOrder);
  pool.push_back(static_cast<std::int32_t>(sc));
  pool.push_back(t.stride_);
  pool.push_back(static_cast<std::int32_t>(fit_dim));
  pool.push_back(ccd);
  pool.push_back(static_cast<std::int32_t>(terms));
  pool.push_back(static_cast<std::int32_t>(built.size()));
  pool.push_back(static_cast<std::int32_t>(transitions));
  pool.push_back(static_cast<std::int32_t>(slot_running));
  pool.insert(pool.end(), 3, 0);  // reserved
  for (const std::unique_ptr<std::int32_t[]>& row : rows)
    pool.insert(pool.end(), row.get(), row.get() + stride);
  pool.insert(pool.end(), const_state.begin(), const_state.end());
  pool.insert(pool.end(), op_begin.begin(), op_begin.end());
  pool.insert(pool.end(), op_end.begin(), op_end.end());
  for (const OpBuild& b : built) {
    pool.push_back(b.term);
    pool.push_back(b.arity);
    pool.push_back(b.has_leaf ? 1 : 0);
    pool.push_back(b.leaf.state);
    pool.push_back(b.leaf.delta);
    pool.push_back(b.slot_base);
    pool.push_back(static_cast<std::int32_t>(b.disp.size()));
    pool.push_back(static_cast<std::int32_t>(b.check.size()));
    pool.insert(pool.end(), b.dims.begin(), b.dims.end());
    pool.insert(pool.end(), b.maps.begin(), b.maps.end());
    pool.insert(pool.end(), b.disp.begin(), b.disp.end());
    pool.insert(pool.end(), b.check.begin(), b.check.end());
    pool.insert(pool.end(), b.val_state.begin(), b.val_state.end());
    pool.insert(pool.end(), b.val_delta.begin(), b.val_delta.end());
  }
  assert(pool.size() == words);
  [[maybe_unused]] const bool ok = f->init_from_pool(
      pool.data(), pool.size(), t.stride_, terms, fit_dim, ccd);
  assert(ok && "self-built pool must validate");
  return f;
}

void TargetTables::adopt(std::unique_ptr<FrozenTables> f) {
  frozen_ = std::move(f);
  const std::size_t n = static_cast<std::size_t>(frozen_->state_count);
  row_index_ = RowIndex(n, RowHash{stride()}, RowEq{stride()});
  for (std::size_t id = 0; id < n; ++id)
    row_index_.emplace(frozen_->rows[id], static_cast<int>(id));
}

// --- parser-facing accessors ------------------------------------------------

bool TargetTables::ConstrainedPrecheck::check(
    const treeparse::SubjectNode& node) const {
  if (node.children.size() != arity) return false;
  for (const Req& r : reqs) {
    const treeparse::SubjectNode& c = *node.children[r.pos];
    if (r.want_const) {
      if (!c.is_const) return false;
    } else if (c.is_const || c.term != r.term ||
               c.children.size() != r.term_arity) {
      return false;
    }
  }
  return true;
}

const std::vector<TargetTables::ConstrainedPrecheck>&
TargetTables::constrained_prechecks_of(TermId t) const {
  static const std::vector<ConstrainedPrecheck> kEmpty;
  if (t < 0 || static_cast<std::size_t>(t) >= constrained_precheck_.size())
    return kEmpty;
  return constrained_precheck_[static_cast<std::size_t>(t)];
}

void TargetTables::raw_candidates(TermId term,
                                  const std::int32_t* const* kid_rows,
                                  std::size_t k, std::vector<int>& cost,
                                  std::vector<int>& rule) const {
  cost.resize(static_cast<std::size_t>(nt_count_));
  rule.resize(static_cast<std::size_t>(nt_count_));
  match_rules(term, kid_rows, k, cost.data(), rule.data());
}

bool TargetTables::terminal_has_constrained(TermId t) const {
  return t >= 0 &&
         static_cast<std::size_t>(t) < terminal_constrained_.size() &&
         terminal_constrained_[static_cast<std::size_t>(t)];
}

const std::vector<int>& TargetTables::subpatterns_of_terminal(
    TermId t) const {
  static const std::vector<int> kEmpty;
  if (t < 0 || static_cast<std::size_t>(t) >= subs_by_terminal_.size())
    return kEmpty;
  return subs_by_terminal_[static_cast<std::size_t>(t)];
}

const PatNode* TargetTables::subpattern(int index) const {
  return subpatterns_[static_cast<std::size_t>(index)];
}

void TargetTables::count_misses(std::size_t n) const {
  misses_.fetch_add(n, std::memory_order_relaxed);
  obs::metrics().counter("burstab.frozen_miss").add(n);
}

TableStats TargetTables::stats() const {
  TableStats s;
  s.states = static_cast<std::size_t>(frozen_->state_count);
  s.transitions = frozen_->transitions;
  s.subpatterns = subpatterns_.size();
  s.table_rules = table_rules_;
  s.constrained_rules = constrained_rules_;
  for (std::size_t i = 0; i < frozen_->const_state.size(); ++i)
    if (frozen_->const_state[i] >= 0) ++s.const_classes;
  s.closure_complete = closure_complete_;
  s.frozen_misses = misses_.load(std::memory_order_relaxed);
  return s;
}

// --- persistence ------------------------------------------------------------

namespace {
// "BTR4": the position-independent pool verbatim (mmap-able, zero-copy).
// BTR3 also carried a hash-mode section behind a mode byte; the magic bump
// keeps those blobs out.
constexpr std::uint32_t kTablesMagic = 0x42545234;
}

void TargetTables::serialize(std::string& out) const {
  ByteWriter w;
  w.u32(kTablesMagic);
  w.u64(fingerprint_);
  w.u32(static_cast<std::uint32_t>(nt_count_));
  w.u32(static_cast<std::uint32_t>(subpatterns_.size()));
  w.u8(closure_complete_ ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(frozen_->pool_words));
  // Pad so the pool lands 4-byte aligned relative to the start of `out`
  // (the cache blob header is a multiple of 4 bytes, so payload-relative
  // alignment is file-relative alignment — the mmap zero-copy condition).
  std::size_t here = out.size() + w.bytes().size() + 1;  // + pad_len byte
  std::uint8_t pad = static_cast<std::uint8_t>((4 - here % 4) % 4);
  w.u8(pad);
  for (std::uint8_t i = 0; i < pad; ++i) w.u8(0);
  w.raw(frozen_->pool_data, frozen_->pool_words * sizeof(std::int32_t));
  w.append_to(out);
}

std::unique_ptr<TargetTables> TargetTables::deserialize(
    const grammar::TreeGrammar& g, std::string_view blob,
    std::size_t& offset, std::shared_ptr<const void> pin) {
  std::unique_ptr<TargetTables> tables(new TargetTables(g, NoBuild{}));

  ByteReader r(blob, offset);
  if (r.u32() != kTablesMagic) return nullptr;
  if (r.u64() != tables->fingerprint_) return nullptr;
  if (r.u32() != static_cast<std::uint32_t>(tables->nt_count_)) return nullptr;
  if (r.u32() != static_cast<std::uint32_t>(tables->subpatterns_.size()))
    return nullptr;
  tables->closure_complete_ = r.u8() != 0;
  // Validate and adopt the pool in place — no closure, no re-packing.
  // Zero-copy when the caller pins the blob's memory (mmap) and the pool is
  // aligned; one memcpy otherwise.
  OBS_SPAN("burstab.tables.map");
  std::uint32_t n_words = r.u32();
  std::uint8_t pad = r.u8();
  if (!r.ok() || pad > 3) return nullptr;
  for (std::uint8_t i = 0; i < pad; ++i) (void)r.u8();
  if (!r.ok()) return nullptr;
  const std::size_t pos = r.pos();
  if (n_words > (blob.size() - pos) / sizeof(std::int32_t)) return nullptr;
  const char* bytes = blob.data() + pos;
  auto f = std::make_unique<FrozenTables>();
  const std::int32_t* pool;
  const bool aligned = (reinterpret_cast<std::uintptr_t>(bytes) & 3u) == 0;
  if (pin && aligned) {
    pool = reinterpret_cast<const std::int32_t*>(bytes);
    f->pin = std::move(pin);
    obs::metrics().counter("burstab.tables.map_zero_copy").add(1);
  } else {
    f->pool.resize(n_words);
    std::memcpy(f->pool.data(), bytes,
                static_cast<std::size_t>(n_words) * sizeof(std::int32_t));
    pool = f->pool.data();
    obs::metrics().counter("burstab.tables.map_copied").add(1);
  }
  if (!f->init_from_pool(pool, n_words, tables->stride_,
                         tables->rules_by_terminal_.size(),
                         tables->fit_widths_.size() + 1,
                         static_cast<int>(tables->const_values_.size()) + 1))
    return nullptr;
  offset = pos + static_cast<std::size_t>(n_words) * sizeof(std::int32_t);
  tables->adopt(std::move(f));
  return tables;
}

}  // namespace record::burstab
