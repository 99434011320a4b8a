// Register-transfer templates: the behavioural processor view (paper sec. 2).
//
// An RT template is one primitive processor operation `dest := exp` executable
// in a single machine cycle, represented as a tree pattern plus a BDD
// execution condition over instruction-word / mode-register / status bits.
// The template base is what instruction-set extraction produces and what tree
// grammar construction consumes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.h"
#include "hdl/ast.h"
#include "rtl/condvars.h"

namespace record::rtl {

/// Operator signature: hardware op kind (+ custom name) qualified by result
/// bit-width. Width qualification keeps 16-bit and 8-bit adders distinct
/// during pattern matching.
struct OpSig {
  hdl::OpKind kind = hdl::OpKind::Add;
  std::string custom;  // OpKind::Custom only
  int width = 0;

  /// Stable terminal name, e.g. "+.16", "RND.16", "bits31_16.16".
  [[nodiscard]] std::string name() const;

  friend bool operator==(const OpSig&, const OpSig&) = default;
};

/// Canonical operator signature for a bit-slice used as data (e.g. storing
/// the high accumulator half). Shared by route enumeration and IR lowering
/// so that patterns and subjects agree on the name.
[[nodiscard]] OpSig slice_op_sig(int msb, int lsb);

struct RTNode;
using RTNodePtr = std::unique_ptr<RTNode>;

/// Node of an RT template tree.
struct RTNode {
  enum class Kind : std::uint8_t {
    Op,         // operator with children
    RegRead,    // read of a register / mode register (leaf)
    MemLoad,    // memory read; child 0 = address tree
    PortIn,     // primary processor input port (leaf)
    Imm,        // instruction-word immediate field (leaf)
    HardConst,  // hardwired constant (leaf)
  };

  Kind kind = Kind::HardConst;
  OpSig op;                 // Op
  std::string name;         // RegRead / MemLoad / PortIn: instance/port name
  int width = 0;            // result width in bits
  std::int64_t value = 0;   // HardConst
  std::vector<int> imm_bits;  // Imm: instruction-word bit positions (lsb first)
  std::vector<RTNodePtr> children;

  [[nodiscard]] RTNodePtr clone() const;
};

[[nodiscard]] RTNodePtr make_op(OpSig sig, std::vector<RTNodePtr> children);
[[nodiscard]] RTNodePtr make_reg_read(std::string name, int width);
[[nodiscard]] RTNodePtr make_mem_load(std::string mem, int width,
                                      RTNodePtr addr);
[[nodiscard]] RTNodePtr make_port_in(std::string port, int width);
[[nodiscard]] RTNodePtr make_imm(std::vector<int> bits);
[[nodiscard]] RTNodePtr make_hard_const(std::int64_t value, int width);

/// Canonical textual form; equal trees have equal strings (used for
/// deduplication and in tests).
[[nodiscard]] std::string to_string(const RTNode& n);

[[nodiscard]] bool equal(const RTNode& a, const RTNode& b);

/// Number of nodes in the tree.
[[nodiscard]] std::size_t tree_size(const RTNode& n);

/// Destination categories of an RT.
enum class DestKind : std::uint8_t { Register, ModeReg, Memory, ProcOut };

[[nodiscard]] std::string_view to_string(DestKind k);

struct RTTemplate {
  int id = -1;
  DestKind dest_kind = DestKind::Register;
  std::string dest;   // instance name (Register/ModeReg/Memory) or port name
  int dest_width = 0;
  RTNodePtr addr;     // Memory destinations: address tree; null otherwise
  RTNodePtr value;    // the transferred value
  bdd::Ref cond = bdd::kTrue;  // execution condition (in the base's manager)
  std::string provenance;      // "ise", "commute(<id>)", "rewrite:<rule>(<id>)"

  [[nodiscard]] RTTemplate clone_shallow_meta() const;
  /// Canonical "dest := tree [addr]" dump including nothing about conditions.
  [[nodiscard]] std::string signature() const;
  /// Human-readable one-liner including the condition (for listings).
  [[nodiscard]] std::string pretty(const bdd::BddManager& mgr) const;
};

/// A storable location known to the grammar (the SEQ set) or a primary port
/// (the PORTS set).
struct StorageInfo {
  std::string name;
  DestKind kind = DestKind::Register;  // ProcOut entries are write-only ports
  int width = 0;
  bool readable = true;  // ProcOut ports are not readable
  /// Memory storages: addressable cells (the model's SIZE); 0 otherwise.
  /// The RT-level simulator bounds-checks decoded write addresses with it.
  std::int64_t cells = 0;
};

struct PortInInfo {
  std::string name;
  int width = 0;
};

/// One writer of a storage: its condition projected onto the instruction
/// bits (CondVars::project_to_instr), the negation of that condition, and
/// the literals it implies. Mode bits go too: otherwise the encoder's
/// any_sat could "suppress" a writer under a mode the machine is not in.
struct Writer {
  std::size_t tmpl = 0;  // template index (== its id)
  bdd::Ref cond = bdd::kFalse;
  bdd::Ref not_cond = bdd::kTrue;
  bdd::Cube cube;  // BddManager::implied_literals(cond)
};

/// Writers of one storage. `any` ORs all writers; `each` keeps them in
/// template order, so a word that writes the storage can still forbid its
/// other writers (a decode-time write contention on multi-issue machines).
struct StorageWriters {
  std::size_t index = 0;  // position in TemplateBase::writers() order
  bdd::Ref any = bdd::kFalse;
  bdd::Ref not_any = bdd::kTrue;
  std::vector<Writer> each;
};

/// The RT template base: everything grammar construction needs.
/// Owns the BDD manager that all template conditions live in.
///
/// Thread safety: a fully built base is immutable and may be shared across
/// concurrent compile jobs. The owned BddManager is internally synchronised
/// (see bdd/bdd.h), so condition manipulation from several threads is safe;
/// mutating the base itself (add_unique, editing templates) is not and must
/// stay confined to the single-threaded retargeting pipeline, which ends by
/// calling seal() before the base is shared.
struct TemplateBase {
  std::shared_ptr<bdd::BddManager> mgr;
  std::vector<RTTemplate> templates;
  std::vector<StorageInfo> storage;   // SEQ ∪ writable ports (dest domain)
  std::vector<PortInInfo> in_ports;   // primary inputs (readable terminals)
  int instruction_width = 0;
  /// Architectural branch delay slots: a write to the program counter lands
  /// this many instruction words late (HDL `DELAY n` on the PC register).
  int branch_delay_slots = 0;

  [[nodiscard]] std::size_t size() const { return templates.size(); }
  [[nodiscard]] const StorageInfo* find_storage(std::string_view name) const;

  /// Appends a template (assigning the next id). If a template with the
  /// same transfer signature already exists, its execution condition is
  /// widened by OR (alternative encodings of the same RT) and false is
  /// returned.
  bool add_unique(RTTemplate t);

  /// Computes the target-invariant facts compile jobs read, once the base
  /// and its manager's variables are complete; add_unique unseals. Reading
  /// them from an unsealed base throws std::logic_error.
  void seal();
  [[nodiscard]] bool sealed() const { return sealed_; }
  [[nodiscard]] const CondVars& vars() const { return checked(vars_); }
  /// Per storage, in storage-name order.
  [[nodiscard]] const std::map<std::string, StorageWriters>& writers() const {
    return checked(writers_);
  }

 private:
  template <class Fact>
  const Fact& checked(const Fact& fact) const {
    if (!sealed_) throw std::logic_error("template base read before seal()");
    return fact;
  }

  std::unordered_map<std::string, std::size_t> signature_index_;
  bool sealed_ = false;
  CondVars vars_;
  std::map<std::string, StorageWriters> writers_;
};

}  // namespace record::rtl
