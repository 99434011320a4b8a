// Binary instruction-word composition.
//
// Every compacted word carries the BDD conjunction of its RTs' execution
// conditions (including immediate-field values). Encoding:
//   1. resolves branch targets (conjoining the target address into the
//      branch template's immediate field),
//   2. suppresses unintended side effects: for every storage the word does
//      not write, the instruction bits are chosen - when satisfiable - so
//      that no template writing that storage can fire ("don't-care
//      completion" of the partial instruction). Each step first compares
//      the word condition's cube (the literals it implies, taken once per
//      word) with the writer's sealed cube: when they conflict the writer
//      cannot fire and the condition stays as it is; only the other steps
//      conjoin the writer's sealed negation on the BDD,
//   3. extracts one satisfying assignment of the instruction bits; unused
//      bits default to 0.
// The per-storage writer conditions, their negations and cubes, and the
// variable table are target-invariant: rtl::TemplateBase::seal() computes
// them once per target, and encoding an unsealed base is reported as an
// error.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compact/compact.h"
#include "rtl/template.h"
#include "util/diagnostics.h"

namespace record::emit {

struct EncodedWord {
  const compact::Word* word = nullptr;
  int address = 0;
  std::vector<bool> bits;  // bits[k] = instruction bit k
  std::string label;       // label defined at this address (if any)

  [[nodiscard]] std::string hex() const;
  [[nodiscard]] std::uint64_t to_u64() const;  // low 64 bits
};

struct Assembly {
  std::vector<EncodedWord> words;
  std::map<std::string, int> labels;

  /// Code size in instruction words — the Figure-2 metric.
  [[nodiscard]] std::size_t size() const { return words.size(); }
};

struct EncodeStats {
  std::size_t suppressed = 0;         // side-effect suppressions applied
  std::size_t unsuppressible = 0;     // storages that could not be protected
  std::size_t unresolved_labels = 0;
};

struct EncodeResult {
  Assembly assembly;
  EncodeStats stats;
};

[[nodiscard]] EncodeResult encode(const compact::CompactedProgram& prog,
                                  const rtl::TemplateBase& base,
                                  util::DiagnosticSink& diags);

}  // namespace record::emit
