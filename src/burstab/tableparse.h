// Table-driven subject labelling: the burstab counterpart of
// treeparse::TreeParser.
//
// label() walks the subject bottom-up assigning each node a state via
// table lookups — O(1) per node with a grammar-independent constant — and
// materialises the same LabelResult the interpreter produces, so
// TreeParser::reduce extracts an identical derivation (same optimal costs,
// same winning rules, same RT sequence).
//
// The per-node lookup probes the immutable frozen tables: child-state index
// maps plus one displacement-table probe, no hashing, no lock. A miss is
// computed by TargetTables::compute_transition into this parser's overlay:
// the signature rows the tables do not hold (state ids from the tables'
// state count up), deduplicated, plus the transitions computed so far, so
// a chain of equal misses is computed once. Each computed row is first
// looked up in the tables' row index, so its ancestors return to plain
// array probes. A parser serves one job (one CodeSelector) on one thread,
// so the overlay lives exactly that long and needs no lock; nothing is
// written back to the tables.
//
// Nodes whose operator owns a side-constrained rule (shared immediate
// fields, structural-equality non-terminal bindings) are labelled through
// the shared treeparse::match_pattern_cost fallback in exact TreeParser rule
// order; their signatures settle the same way (table state or overlay row).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "burstab/tables.h"
#include "obs/coverage.h"
#include "treeparse/burs.h"

namespace record::burstab {

class TableParser {
 public:
  /// `g` must be the grammar the tables were compiled from (checked via the
  /// grammar fingerprint in debug builds); both must outlive the parser.
  TableParser(const grammar::TreeGrammar& g, const TargetTables& tables)
      : g_(g),
        tables_(tables),
        reducer_(g),
        overlay_(tables.stride()) {}

  /// Table-driven labelling into a caller-owned (reusable) result;
  /// LabelResult-identical to TreeParser::label on the same tree. Grows
  /// this parser's overlay, so one parser must not label from two threads
  /// at once.
  void label_into(const treeparse::SubjectTree& tree,
                  treeparse::LabelResult& out) const;

  [[nodiscard]] treeparse::LabelResult label(
      const treeparse::SubjectTree& tree) const {
    treeparse::LabelResult r;
    label_into(tree, r);
    return r;
  }

  [[nodiscard]] treeparse::Derivation* reduce(
      const treeparse::SubjectTree& tree,
      const treeparse::LabelResult& result,
      treeparse::DerivationArena& arena) const {
    return reducer_.reduce(tree, result, arena);
  }

  [[nodiscard]] treeparse::Derivation* parse(
      const treeparse::SubjectTree& tree,
      treeparse::DerivationArena& arena) const;

  [[nodiscard]] const TargetTables& tables() const { return tables_; }

  /// Attach a coverage map (null detaches). The disabled cost in
  /// label_into is one pointer test per node; when attached, every table
  /// state assignment, frozen-slot hit, cold (computed) label and matched
  /// rule is recorded.
  void set_coverage(obs::CoverageMap* map) { coverage_ = map; }

 private:
  struct KeyHash {
    std::size_t operator()(const std::vector<int>& key) const;
  };
  /// Rows the tables do not hold and transitions computed at label time
  /// (see the file comment).
  struct Overlay {
    explicit Overlay(std::size_t stride)
        : index(0, RowHash{stride}, RowEq{stride}) {}
    std::vector<std::unique_ptr<std::int32_t[]>> rows;  // id - state_count
    RowIndex index;
    /// (term, child states...) -> transition.
    std::unordered_map<std::vector<int>, TargetTables::Transition, KeyHash>
        transitions;
    std::vector<int> key;                // lookup scratch
    std::vector<std::int32_t> staging;   // the row being computed
    [[nodiscard]] std::int32_t* stage() {
      staging.resize(index.hash_function().words);
      return staging.data();
    }
  };

  /// Row of a table state or an overlay state.
  [[nodiscard]] const std::int32_t* row_of(int state) const;
  /// State id of the staged row: its table state when the tables hold it,
  /// else its overlay state (added on first sight).
  [[nodiscard]] int settle() const;

  const grammar::TreeGrammar& g_;
  const TargetTables& tables_;
  treeparse::TreeParser reducer_;  // shared reduce path
  obs::CoverageMap* coverage_ = nullptr;
  mutable Overlay overlay_;
};

}  // namespace record::burstab
