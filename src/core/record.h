// record::core::Record — the retargeting driver (paper fig. 1).
//
// One call takes an HDL processor model through the complete pipeline:
//   HDL frontend -> netlist -> instruction-set extraction -> template-base
//   extension -> tree-grammar construction -> (optionally) C parser
//   emission and compilation by the host C compiler.
// The result carries the extended template base, the processor-specific
// tree grammar, per-phase wall-clock timings (the Table 3 breakdown) and
// all phase statistics.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "burstab/tables.h"
#include "grammar/build.h"
#include "grammar/grammar.h"
#include "ise/extract.h"
#include "rtl/extend.h"
#include "rtl/template.h"
#include "util/diagnostics.h"
#include "util/timer.h"

namespace record::core {

/// Per-process scratch directory: a pid-unique subdirectory of the system
/// temp dir (created on first use), so concurrent retargets in different
/// processes never clobber each other's generated parser files.
[[nodiscard]] std::string default_work_dir();

struct RetargetOptions {
  ise::ExtractOptions extract;
  grammar::BuildOptions grammar;
  /// Commutative-swap extension (paper section 3).
  bool commutativity = true;
  /// Apply the standard algebraic rewrite library.
  bool standard_rewrites = true;
  /// Additional user rewrite library (applied after the standard one).
  const rtl::RewriteLibrary* extra_rewrites = nullptr;
  /// Generate the standalone C parser source (iburg-equivalent artifact).
  bool emit_c_parser = false;
  /// Additionally compile it with the host C compiler (timing fidelity for
  /// the Table 3 "parser compilation" phase). Implies emit_c_parser.
  bool compile_c_parser = false;
  /// Scratch directory for the generated parser.
  std::string work_dir = default_work_dir();
  /// Compile the tree grammar into BURS state tables (the table-driven
  /// selection engine; RetargetResult::tables).
  bool build_tables = true;
  /// Serve/store this retarget through the persistent TargetCache, keyed by
  /// a content hash of the HDL source and these options. Requests with
  /// `extra_rewrites` bypass the cache (a rewrite library has no stable
  /// content hash).
  bool use_target_cache = false;
  /// Cache directory; empty selects burstab::TargetCache::default_dir().
  std::string cache_dir;
};

/// Canonical rendering of every option that shapes the cached retargeting
/// artifacts (template base, grammar, tables); the second half of the
/// TargetCache / service::TargetRegistry content-hash key. Formatting and
/// emission options are excluded: the C parser is regenerated on demand.
[[nodiscard]] std::string options_digest(const RetargetOptions& options);

/// A complete retargeted code-selector description.
///
/// Thread safety: a RetargetResult is immutable once retarget() returns, and
/// a `const RetargetResult` may be shared across concurrent Compiler::compile
/// jobs — the owned BddManager is internally synchronised (bdd/bdd.h) and
/// TargetTables never changes after construction (label-time misses are
/// computed into per-job overlays; burstab/tables.h). service::TargetRegistry
/// hands results out as shared_ptr<const RetargetResult> on exactly this
/// contract.
struct RetargetResult {
  std::string processor;
  std::shared_ptr<const rtl::TemplateBase> base;
  grammar::TreeGrammar tree_grammar;
  /// Compiled BURS state tables over `tree_grammar` (build_tables); the
  /// tables reference the grammar's pattern nodes, so they stay paired with
  /// this result.
  std::shared_ptr<burstab::TargetTables> tables;
  /// True when this result was served from the persistent TargetCache.
  bool cache_hit = false;

  ise::ExtractStats extract_stats;
  rtl::ExtendStats extend_stats;
  grammar::BuildStats grammar_stats;
  util::PhaseTimes times;  // "hdl", "ise", "extend", "grammar", "tables",
                           // "parsergen", "parsercc"; cache hits: "cacheload"

  std::string c_parser_source;      // if requested
  double c_compile_seconds = 0.0;   // if compile_c_parser
  bool c_compile_ok = false;

  [[nodiscard]] std::size_t template_count() const {
    return base ? base->size() : 0;
  }
};

class Record {
 public:
  /// Retargets from HDL source text.
  [[nodiscard]] static std::optional<RetargetResult> retarget(
      std::string_view hdl_source, const RetargetOptions& options,
      util::DiagnosticSink& diags);

  /// Retargets one of the built-in models (src/models).
  [[nodiscard]] static std::optional<RetargetResult> retarget_model(
      std::string_view model_name, const RetargetOptions& options,
      util::DiagnosticSink& diags);
};

}  // namespace record::core
