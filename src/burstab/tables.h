// Table-driven BURS: precomputed state tables for tree-pattern labelling
// (the burg line of work — Chase 1987, Proebsting 1992 — applied to the
// paper's processor-specific tree grammars).
//
// The dynamic-programming TreeParser recomputes, at every subject node, the
// cheapest derivation of every non-terminal by re-matching every rule. The
// key observation behind table-driven BURS is that the *behaviour* of a
// subtree under any parent rule is fully captured by a finite signature:
//
//   * its delta-normalised cost vector over non-terminals (costs relative to
//     the subtree minimum) together with the winning rule per non-terminal,
//   * the normalised match cost of every interior pattern position
//     ("subpattern") rooted at its operator, and
//   * for "#const" leaves, which immediate widths the constant fits and
//     which hardwired pattern constants it equals.
//
// Subtrees with equal signatures are interchangeable, so signatures are
// interned as *states* and per-node labelling becomes a single transition
// lookup (operator, child states) -> (state, cost delta).
//
// Like burg's, these tables are built once and never change. Construction
// runs a bounded bottom-up closure over the leaf states (its state arena and
// transition map are locals of the build) and packs the result into one
// FrozenTables — the Chase-style compressed form. Per operator and arity it
// keeps child-position index maps (child state -> compact index, -1 = never
// seen in that position) and packs the resulting dense rows into a single
// row-displaced value array with a check column, so a lookup is: per-child
// map indexation, one displacement probe, one check compare — a handful of
// array reads with no hashing and no lock. Every state signature is one
// fixed-stride int32 row [cost(nts) | rule(nts) | sub(subs) | meta(3)].
//
// The FrozenTables live in ONE contiguous, position-independent int32 pool
// (offsets only — the Op arrays are Span32 views into the pool), so
// serialize() writes the pool verbatim and deserialize() reconstitutes the
// tables by pointing views at the blob: a warm TargetCache reload is a
// validation pass plus O(states) setup. With a pinned, aligned mapping (the
// cache's mmap tier) the pool is not even copied: N daemon processes share
// one read-only page set.
//
// A lookup the tables cannot answer — the parent of a side-constrained node
// whose signature is new, an operator with no table rule (the closure skips
// operators that own a side-constrained rule), an operator too large to
// pack — is computed at label time by compute_transition(), the same pure
// function the build uses, into a per-job overlay owned by TableParser
// (ids >= state_count), which also keeps the transitions it computed. Each computed row is first looked up in the
// immutable row -> state index, so ancestors return to array probes.
// Labels depend on rows, never on state ids, so the overlay is exact.
//
// Rules carrying side-constraints that a finite state cannot encode — two
// Imm leaves drawing the same instruction field, or two leaves of one
// non-terminal requiring structurally equal operands (x+x shifter patterns)
// — are excluded from the tables. Nodes whose operator owns such a rule are
// labelled through the shared treeparse::match_pattern_cost path instead,
// which keeps the engine *exactly* equivalent to the interpreter,
// tie-breaking included.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "grammar/grammar.h"
#include "treeparse/subject.h"

namespace record::burstab {

inline constexpr int kInf = grammar::kInfCost;

struct TableStats {
  std::size_t states = 0;             // states in the tables
  std::size_t transitions = 0;        // transitions in the tables
  std::size_t subpatterns = 0;
  std::size_t table_rules = 0;        // rules encoded in the tables
  std::size_t constrained_rules = 0;  // rules left to the fallback matcher
  std::size_t const_classes = 0;      // distinct #const leaf behaviours
  bool closure_complete = false;      // build closure finished within budget
  /// Rows computed at label time because the tables could not answer (see
  /// compute_transition), summed over every parse since construction.
  std::size_t frozen_misses = 0;
};

/// Zero-copy view of one state row [cost | rule | sub | meta].
struct StateView {
  const std::int32_t* cost = nullptr;  // [nonterminal_count]
  const std::int32_t* rule = nullptr;  // [nonterminal_count]
  const std::int32_t* sub = nullptr;   // [subpattern_count]
  bool is_const_leaf = false;
  int fit_width_index = -1;
  int const_class = -1;
};

/// Non-owning view over int32s inside a frozen pool (the frozen tables
/// store offsets, never pointers, so blobs are position-independent; the
/// views are materialised once per pool).
struct Span32 {
  const std::int32_t* ptr = nullptr;
  std::size_t len = 0;

  [[nodiscard]] const std::int32_t* data() const { return ptr; }
  [[nodiscard]] std::size_t size() const { return len; }
  [[nodiscard]] bool empty() const { return len == 0; }
  std::int32_t operator[](std::size_t i) const { return ptr[i]; }
};

/// Content hash and equality of `words`-wide signature rows, for indexes
/// keyed by rows that live elsewhere (table pool, build arena, overlay).
struct RowHash {
  std::size_t words = 0;
  std::size_t operator()(const std::int32_t* row) const;
};
struct RowEq {
  std::size_t words = 0;
  bool operator()(const std::int32_t* a, const std::int32_t* b) const;
};
/// Signature row -> state id.
using RowIndex = std::unordered_map<const std::int32_t*, int, RowHash, RowEq>;

/// Compiled BURS tables for one grammar. Immutable once constructed (the
/// one write afterwards is the relaxed miss counter behind
/// TableStats::frozen_misses), so any number of threads may label against
/// one instance without synchronisation.
class TargetTables {
 public:
  struct Transition {
    int state = -1;
    int delta = 0;  // node cost base = sum of child bases + delta
  };

  /// The compressed tables: Chase index maps plus a row-displaced
  /// transition array per (operator, arity). Probed without locking; every
  /// miss is computed by the caller (see TableParser).
  ///
  /// All table data lives in one contiguous int32 pool (see
  /// tables.cpp:pool layout); the members below are views into it. The pool
  /// is owned (`pool` — built by the closure or copied from a blob) or
  /// borrowed from a pinned mapping (`pin` — the zero-copy mmap tier).
  struct FrozenTables {
    int state_count = 0;
    std::vector<const std::int32_t*> rows;  // per state: flat signature row

    // #const leaf states by (fit index + 1, const class + 1); -1 unknown.
    int cc_dim = 0;
    Span32 const_state;

    struct Op {
      std::int32_t term = -1;
      std::int32_t arity = 0;
      bool has_leaf = false;
      Transition leaf{};                // arity == 0
      /// First transition-slot id owned by this Op (leaf ops own exactly
      /// one; packed ops own one per check/val column, with holes where
      /// check is -1). Coverage maps index by these ids.
      std::int32_t slot_base = 0;
      Span32 dims;   // [arity] compact index counts
      Span32 maps;   // arity x state_count -> index | -1
      Span32 disp;   // row -> displacement into check
      Span32 check;  // slot -> owning row | -1
      Span32 val_state;
      Span32 val_delta;
    };
    std::vector<Op> ops;  // sorted by term
    Span32 op_begin;      // [term] -> ops slice
    Span32 op_end;
    std::size_t transitions = 0;
    /// One past the largest slot id (sum of all Ops' slot spans, holes
    /// included).
    std::size_t slot_count = 0;

    /// Pool storage: exactly one of the two is set. `pin` keeps a shared
    /// read-only mapping alive for the tables' lifetime. `pool_data` /
    /// `pool_words` always view the whole pool (serialize writes it back
    /// verbatim regardless of ownership).
    std::vector<std::int32_t> pool;
    std::shared_ptr<const void> pin;
    const std::int32_t* pool_data = nullptr;
    std::size_t pool_words = 0;

    /// Points rows/const_state/ops at a pool and validates its structure
    /// (every span in bounds, displacement invariants hold). `words` is the
    /// pool length in int32s. False = malformed pool; the tables must be
    /// discarded.
    [[nodiscard]] bool init_from_pool(const std::int32_t* words,
                                      std::size_t word_count, int stride,
                                      std::size_t term_count,
                                      std::size_t fit_dim_expected,
                                      int cc_dim_expected);

    /// Lock-free probe; false = miss (caller computes the transition).
    /// On a hit, `slot_out` (when non-null) receives the transition-slot
    /// id — the coverage-map index of this transition.
    [[nodiscard]] bool lookup(grammar::TermId term, const int* children,
                              std::size_t arity, Transition& out,
                              std::int32_t* slot_out = nullptr) const;
    /// Lock-free #const-leaf probe; -1 = unknown pair.
    [[nodiscard]] int const_lookup(int fit_index, int const_class) const;
  };

  /// Compiles the grammar into tables. The grammar may be moved afterwards
  /// (pattern nodes are heap-stable); it must not be destroyed or mutated
  /// while the tables are in use.
  explicit TargetTables(const grammar::TreeGrammar& g);

  TargetTables(const TargetTables&) = delete;
  TargetTables& operator=(const TargetTables&) = delete;

  /// The compressed tables (never null).
  [[nodiscard]] const FrozenTables* frozen() const { return frozen_.get(); }

  /// State for a "#const" leaf holding `value`; -1 when the tables hold no
  /// state for its behaviour class (compute_const_row then builds one).
  [[nodiscard]] int const_leaf_state(std::int64_t value) const;

  /// State id of a signature row, or -1 when the tables do not hold it.
  [[nodiscard]] int find_state(const std::int32_t* row) const;

  /// The miss path, shared with the build: the signature of an operator
  /// node over child states with rows `child_rows` is written to `row`
  /// (stride() int32s); returns the node's cost delta. Pure — nothing is
  /// memoised.
  [[nodiscard]] int compute_transition(grammar::TermId term,
                                       const std::int32_t* const* child_rows,
                                       std::size_t arity,
                                       std::int32_t* row) const;

  /// Signature of a "#const" leaf holding `value`, written to `row`.
  void compute_const_row(std::int64_t value, std::int32_t* row) const;

  /// Adds `n` label-time computations to TableStats::frozen_misses (and to
  /// the process-wide "burstab.frozen_miss" counter).
  void count_misses(std::size_t n) const;

  /// View of a signature row (a frozen row or a caller's overlay row).
  [[nodiscard]] StateView view_of_row(const std::int32_t* row) const;

  /// int32s per signature row: 2 * nonterminals + subpatterns + 3 meta.
  [[nodiscard]] std::size_t stride() const {
    return static_cast<std::size_t>(stride_);
  }

  /// True if some rule rooted at this terminal carries a side-constraint
  /// (such nodes must be labelled through the fallback matcher).
  [[nodiscard]] bool terminal_has_constrained(grammar::TermId t) const;

  /// One-level structural precheck of a side-constrained rule: the root
  /// arity plus the subject requirements of every non-NonTerm child
  /// position. check() rejects (in O(children)) most rules the recursive
  /// matcher would walk a whole pattern to refute — grammars rich in
  /// constrained rules would otherwise pay that walk per rule per node.
  struct ConstrainedPrecheck {
    int rule = -1;
    std::uint32_t arity = 0;
    struct Req {
      std::uint32_t pos = 0;
      bool want_const = false;     // child must be a #const leaf (Imm/Const)
      grammar::TermId term = -1;   // else: required terminal...
      std::uint32_t term_arity = 0;  // ...with this many children
    };
    std::vector<Req> reqs;

    [[nodiscard]] bool check(const treeparse::SubjectNode& node) const;
  };

  /// Prechecks of the side-constrained rules rooted at `t`, in rule order.
  [[nodiscard]] const std::vector<ConstrainedPrecheck>& constrained_prechecks_of(
      grammar::TermId t) const;

  /// Pre-chain-closure (cost, rule) candidates of the table rules at this
  /// operator, relative to the children's base sum. The side-constraint
  /// merge path interleaves these with matched constrained rules by
  /// (cost, rule id) before running chain closure — reproducing the
  /// interpreter's scan order exactly.
  void raw_candidates(grammar::TermId term,
                      const std::int32_t* const* child_rows, std::size_t arity,
                      std::vector<int>& cost, std::vector<int>& rule) const;

  /// All registered subpatterns rooted at `t` (for the fallback signature).
  [[nodiscard]] const std::vector<int>& subpatterns_of_terminal(
      grammar::TermId t) const;

  [[nodiscard]] const grammar::PatNode* subpattern(int index) const;

  /// Index into the registered immediate widths of the smallest width the
  /// value fits (-1 = fits none); index of the hardwired pattern constant
  /// equal to the value (-1 = none). Used for #const signatures.
  [[nodiscard]] int fit_index_of(std::int64_t value) const;
  [[nodiscard]] int const_class_index(std::int64_t value) const;

  [[nodiscard]] int nonterminal_count() const { return nt_count_; }
  [[nodiscard]] int subpattern_count() const {
    return static_cast<int>(subpatterns_.size());
  }

  /// FNV-1a hash of the serialised grammar; guards cache/table identity.
  [[nodiscard]] std::uint64_t grammar_fingerprint() const {
    return fingerprint_;
  }

  [[nodiscard]] TableStats stats() const;

  // --- persistence ---------------------------------------------------------

  /// Appends the tables to `out` (see serialize.h for the primitive
  /// encoding): a short header, then the position-independent pool. The
  /// pool is 4-byte aligned relative to the start of `out`, so a caller
  /// that prepends a header must keep it a multiple of 4 bytes for the
  /// mmap zero-copy path to engage (misalignment only costs one copy).
  void serialize(std::string& out) const;

  /// Rebuilds tables for `g` from a blob produced by serialize(). Returns
  /// nullptr if the blob is malformed or was built for a different grammar.
  /// The pool is adopted as-is — no closure, no re-packing; when `pin` is
  /// non-null (a read-only mapping that must stay valid while the pin is
  /// held) and the pool is 4-byte aligned, the tables borrow the blob's
  /// memory zero-copy instead of copying the pool.
  [[nodiscard]] static std::unique_ptr<TargetTables> deserialize(
      const grammar::TreeGrammar& g, std::string_view blob,
      std::size_t& offset, std::shared_ptr<const void> pin = nullptr);

 private:
  /// How one pattern child matches a child state row: read a row word (the
  /// cost of a non-terminal or of a subpattern), or test the #const meta.
  struct ChildMatch {
    enum class Kind : std::uint8_t { kWord, kImm, kConst };
    Kind kind = Kind::kWord;
    int arg = 0;  // kWord: row offset; kImm: largest fit index; kConst: class
  };
  /// One table rule (or subpattern) prepared for state computation.
  struct RulePlan {
    int id = -1;  // rule id; subpattern index for subpattern plans
    grammar::NtId lhs = -1;
    int cost = 0;
    const grammar::PatNode* pattern = nullptr;
    std::vector<ChildMatch> kids;
  };
  /// The table rules of one operator whose first child matches alike.
  struct RuleGroup {
    ChildMatch first;
    std::vector<int> plans;  // indices into rules_by_terminal_[term]
  };
  struct ChainPlan {
    int id = -1;
    grammar::NtId lhs = -1;
    int cost = 0;
  };
  struct Closure;

  struct NoBuild {};
  TargetTables(const grammar::TreeGrammar& g, NoBuild);

  void prepare(const grammar::TreeGrammar& g);
  [[nodiscard]] static bool pattern_is_constrained(
      const grammar::PatNode& pat);
  [[nodiscard]] static std::string pattern_key(const grammar::PatNode& p);

  [[nodiscard]] int match_cost(const ChildMatch& m,
                               const std::int32_t* s) const;
  /// Pre-chain-closure (cost, rule) per non-terminal over the table rules
  /// of `term` (costs relative to the children's base sum).
  void match_rules(grammar::TermId term, const std::int32_t* const* kid_rows,
                   std::size_t arity, std::int32_t* cost,
                   std::int32_t* rule) const;
  void close_chains(std::int32_t* cost, std::int32_t* rule) const;
  void compute_const_state(int fit_index, int const_class,
                           std::int32_t* row) const;
  void run_closure();
  void adopt(std::unique_ptr<FrozenTables> f);

  int nt_count_ = 0;
  int stride_ = 0;  // ints per state row: 2 * nts + subpatterns + 3 meta
  grammar::TermId const_term_ = -1;
  std::uint64_t fingerprint_ = 0;
  std::vector<std::vector<RulePlan>> rules_by_terminal_;   // [term]
  std::vector<std::vector<RuleGroup>> rule_groups_;        // [term]
  std::vector<std::vector<RulePlan>> sub_plans_;           // [term]
  std::vector<std::vector<ConstrainedPrecheck>>
      constrained_precheck_;                               // [term]
  std::vector<RulePlan> const_root_rules_;                 // #const leaves
  std::vector<std::vector<ChainPlan>> chains_from_;        // [nt]
  std::vector<bool> terminal_constrained_;                 // [term]
  std::size_t constrained_rules_ = 0;
  std::size_t table_rules_ = 0;
  std::vector<const grammar::PatNode*> subpatterns_;
  std::vector<std::vector<int>> subs_by_terminal_;         // [term]
  std::vector<int> fit_widths_;           // sorted distinct Imm widths
  std::vector<std::int64_t> const_values_;  // sorted distinct Const values
  std::vector<std::vector<int>> arities_by_terminal_;      // [term] sorted
  bool closure_complete_ = false;

  std::unique_ptr<const FrozenTables> frozen_;
  RowIndex row_index_;  // frozen row -> state id
  mutable std::atomic<std::uint64_t> misses_{0};  // TableStats::frozen_misses
};

}  // namespace record::burstab
