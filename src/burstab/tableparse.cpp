#include "burstab/tableparse.h"

#include <algorithm>

namespace record::burstab {

using grammar::PatNode;
using grammar::Rule;
using treeparse::LabelEntry;
using treeparse::LabelResult;
using treeparse::SubjectNode;
using treeparse::SubjectTree;

namespace {

int sat_add(int a, int b) {
  if (a >= kInf || b >= kInf) return kInf;
  return a + b;
}

}  // namespace

std::size_t TableParser::KeyHash::operator()(
    const std::vector<int>& key) const {
  std::size_t h = 1469598103934665603ull;
  for (int v : key)
    h = (h ^ static_cast<std::size_t>(static_cast<std::uint32_t>(v))) *
        1099511628211ull;
  return h;
}

const std::int32_t* TableParser::row_of(int state) const {
  const TargetTables::FrozenTables& frozen = *tables_.frozen();
  return state < frozen.state_count
             ? frozen.rows[static_cast<std::size_t>(state)]
             : overlay_.rows[static_cast<std::size_t>(
                                 state - frozen.state_count)]
                   .get();
}

int TableParser::settle() const {
  const std::int32_t* row = overlay_.staging.data();
  const int found = tables_.find_state(row);
  if (found >= 0) return found;
  auto it = overlay_.index.find(row);
  if (it != overlay_.index.end()) return it->second;
  const std::size_t words = overlay_.staging.size();
  overlay_.rows.push_back(std::make_unique<std::int32_t[]>(words));
  std::int32_t* kept = overlay_.rows.back().get();
  std::copy(row, row + words, kept);
  const int id = tables_.frozen()->state_count +
                 static_cast<int>(overlay_.rows.size()) - 1;
  overlay_.index.emplace(kept, id);
  return id;
}

void TableParser::label_into(const SubjectTree& tree,
                             LabelResult& result) const {
  const int nts = tables_.nonterminal_count();
  result.reset(tree.size(), nts);
  if (!tree.root()) return;

  const TargetTables::FrozenTables& frozen = *tables_.frozen();
  const int table_states = frozen.state_count;

  std::vector<int> state_of(tree.size(), -1);
  std::vector<int> base_of(tree.size(), 0);
  std::size_t misses = 0;  // rows computed by this call

  std::vector<const std::int32_t*> kid_rows;
  const auto gather_kid_rows = [&](const SubjectNode& node) {
    kid_rows.clear();
    for (const SubjectNode* c : node.children)
      kid_rows.push_back(row_of(state_of[static_cast<std::size_t>(c->id)]));
  };

  // Closed absolute costs of already-labelled descendants, for the
  // side-constraint fallback matcher.
  const auto closed_cost = [&result](const SubjectNode& n,
                                     grammar::NtId nt) {
    return result.at(static_cast<std::size_t>(n.id),
                     static_cast<std::size_t>(nt))
        .cost;
  };
  const treeparse::CostLookup costs(closed_cost);

  struct Candidate {
    grammar::NtId lhs;
    int cost;  // absolute
    int rid;
  };
  std::vector<Candidate> cands;
  std::vector<int> raw_cost, raw_rule;
  std::vector<treeparse::ImmBinding> imm_fields;
  std::vector<std::pair<grammar::NtId, const SubjectNode*>> nt_binds;

  // Chain closure over this node's label row, in the interpreter's order.
  const auto close_chains = [&](LabelEntry* mine) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int y = 0; y < nts; ++y) {
        int base = mine[static_cast<std::size_t>(y)].cost;
        if (base >= kInf) continue;
        for (int rid : g_.chain_rules_from(y)) {
          const Rule& r = g_.rule(rid);
          int total = base + r.cost;
          LabelEntry& e = mine[static_cast<std::size_t>(r.lhs)];
          if (total < e.cost) {
            e.cost = total;
            e.rule = rid;
            changed = true;
          }
        }
      }
    }
  };
  // Stages the signature of a fallback-labelled node (costs relative to
  // `base`, winning rules, matched subpatterns, #const meta) and settles it.
  const auto settle_fallback = [&](const SubjectNode& node,
                                   const LabelEntry* mine, int base) {
    std::int32_t* row = overlay_.stage();
    for (int i = 0; i < nts; ++i) {
      const LabelEntry& e = mine[static_cast<std::size_t>(i)];
      row[i] = e.cost >= kInf ? kInf : e.cost - base;
      row[nts + i] = e.rule;
    }
    std::int32_t* sub = row + 2 * nts;
    std::fill(sub, sub + tables_.subpattern_count(), kInf);
    for (int qi : tables_.subpatterns_of_terminal(node.term)) {
      imm_fields.clear();
      nt_binds.clear();
      std::optional<int> c = treeparse::match_pattern_cost(
          *tables_.subpattern(qi), node, costs, imm_fields, nt_binds);
      if (c) sub[qi] = *c - base;
    }
    std::int32_t* meta = row + tables_.stride() - 3;
    meta[0] = node.is_const ? 1 : 0;
    meta[1] = node.is_const ? tables_.fit_index_of(node.value) : -1;
    meta[2] = node.is_const ? tables_.const_class_index(node.value) : -1;
    return settle();
  };

  std::vector<int> child_states;
  for (std::size_t id = 0; id < tree.size(); ++id) {
    const SubjectNode& node = tree.node(static_cast<int>(id));
    LabelEntry* mine = result.row(id);

    bool merged = false;
    if (tables_.terminal_has_constrained(node.term) && !node.is_const) {
      // Hybrid path: match only the side-constrained rules through the
      // shared matcher. When none bind (the common case — x+x patterns need
      // structurally equal operands) the node proceeds on the plain table
      // path below; otherwise the matches are interleaved with the table
      // rules' pre-closure candidates by (cost, rule id), reproducing the
      // interpreter's scan order.
      cands.clear();
      for (const TargetTables::ConstrainedPrecheck& pc :
           tables_.constrained_prechecks_of(node.term)) {
        if (!pc.check(node)) continue;  // cheap structural reject
        const Rule& r = g_.rule(pc.rule);
        imm_fields.clear();
        nt_binds.clear();
        std::optional<int> c = treeparse::match_pattern_cost(
            *r.pattern, node, costs, imm_fields, nt_binds);
        if (c) cands.push_back(Candidate{r.lhs, *c + r.cost, pc.rule});
      }
      if (!cands.empty()) {
        int base_sum = 0;
        for (const SubjectNode* c : node.children)
          base_sum =
              sat_add(base_sum, base_of[static_cast<std::size_t>(c->id)]);
        gather_kid_rows(node);
        tables_.raw_candidates(node.term, kid_rows.data(), kid_rows.size(),
                               raw_cost, raw_rule);
        for (int i = 0; i < nts; ++i) {
          const std::size_t idx = static_cast<std::size_t>(i);
          mine[idx].cost = sat_add(base_sum, raw_cost[idx]);
          mine[idx].rule = raw_rule[idx];
        }
        // Lexicographic (cost, rule id) argmin == the interpreter's strict-
        // improvement scan over all rules in id order.
        for (const Candidate& c : cands) {
          LabelEntry& e = mine[static_cast<std::size_t>(c.lhs)];
          if (c.cost < e.cost ||
              (c.cost == e.cost && (e.rule < 0 || c.rid < e.rule))) {
            e.cost = c.cost;
            e.rule = c.rid;
          }
        }
        close_chains(mine);
        int base = kInf;
        for (int i = 0; i < nts; ++i)
          base = std::min(base, mine[static_cast<std::size_t>(i)].cost);
        if (base >= kInf) base = 0;
        state_of[id] = settle_fallback(node, mine, base);
        base_of[id] = base;
        merged = true;
      }
    } else if (tables_.terminal_has_constrained(node.term)) {
      // Constrained #const operators (possible only with exotic grammars):
      // full interpreter step; const leaves keep base 0.
      for (int rid : g_.rules_for_terminal(node.term)) {
        const Rule& r = g_.rule(rid);
        imm_fields.clear();
        nt_binds.clear();
        std::optional<int> c = treeparse::match_pattern_cost(
            *r.pattern, node, costs, imm_fields, nt_binds);
        if (!c) continue;
        int total = *c + r.cost;
        LabelEntry& e = mine[static_cast<std::size_t>(r.lhs)];
        if (total < e.cost) {
          e.cost = total;
          e.rule = rid;
        }
      }
      close_chains(mine);
      state_of[id] = settle_fallback(node, mine, 0);
      base_of[id] = 0;
      merged = true;
    }
    if (merged) {
      // Fallback labels bypass the frozen probe; they count as cold so
      // transition coverage denominators stay honest.
      if (coverage_) coverage_->record_cold_transition();
      continue;
    }

    int state;
    int base;
    if (node.is_const) {
      state = tables_.const_leaf_state(node.value);
      if (state < 0) {
        ++misses;
        tables_.compute_const_row(node.value, overlay_.stage());
        state = settle();
      }
      base = 0;  // #const states are kept absolute
      if (coverage_) coverage_->record_cold_transition();
    } else {
      child_states.clear();
      base = 0;
      // Children precede parents in id order by SubjectTree construction.
      for (const SubjectNode* c : node.children) {
        child_states.push_back(state_of[static_cast<std::size_t>(c->id)]);
        base = sat_add(base, base_of[static_cast<std::size_t>(c->id)]);
      }
      TargetTables::Transition t;
      std::int32_t slot = -1;
      if (frozen.lookup(node.term, child_states.data(), child_states.size(),
                        t, &slot)) {
        if (coverage_) coverage_->record_transition(slot);
      } else {
        // Miss: this job may have computed it already; else compute it.
        std::vector<int>& key = overlay_.key;
        key.assign(1, node.term);
        key.insert(key.end(), child_states.begin(), child_states.end());
        auto it = overlay_.transitions.find(key);
        if (it != overlay_.transitions.end()) {
          t = it->second;
        } else {
          ++misses;
          gather_kid_rows(node);
          t.delta = tables_.compute_transition(node.term, kid_rows.data(),
                                               kid_rows.size(),
                                               overlay_.stage());
          t.state = settle();
          overlay_.transitions.emplace(key, t);
        }
        if (coverage_) coverage_->record_cold_transition();
      }
      state = t.state;
      base = sat_add(base, t.delta);
    }
    state_of[id] = state;
    base_of[id] = base;

    const StateView s = tables_.view_of_row(row_of(state));
    for (int i = 0; i < nts; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      mine[idx].cost = sat_add(base, s.cost[idx]);
      mine[idx].rule = s.rule[idx];
    }
  }
  if (misses) tables_.count_misses(misses);

  if (coverage_) {
    for (std::size_t id = 0; id < tree.size(); ++id) {
      // Overlay states have no table identity; their labels were already
      // recorded as cold.
      if (state_of[id] < table_states) coverage_->record_state(state_of[id]);
      const LabelEntry* row = result.row(id);
      for (int i = 0; i < nts; ++i) {
        const LabelEntry& e = row[static_cast<std::size_t>(i)];
        if (e.rule >= 0 && e.cost < kInf)
          coverage_->record_rule_matched(e.rule);
      }
    }
  }

  result.root_cost = result
                         .at(static_cast<std::size_t>(tree.root()->id),
                             static_cast<std::size_t>(grammar::kStart))
                         .cost;
  result.ok = result.root_cost < kInf;
}

treeparse::Derivation* TableParser::parse(
    const SubjectTree& tree, treeparse::DerivationArena& arena) const {
  LabelResult r = label(tree);
  if (!r.ok) return nullptr;
  return reduce(tree, r, arena);
}

}  // namespace record::burstab
