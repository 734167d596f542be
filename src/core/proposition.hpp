#pragma once
// Propositions (paper Def. 1 / Sec. III-A).
//
// An atomic proposition is a relational predicate over the IP's primary
// inputs/outputs (e.g. "we = 1", "v3 > v4", "wdata = 0xA5"). A
// *proposition* is the AND-composition of atomic propositions derived from
// one row of the truth matrix m: the mining procedure guarantees that in
// each simulation instant exactly one proposition holds, which we realize
// by identifying a proposition with the complete truth signature of the
// whole atom set (true atoms AND negated false atoms). Two instants map
// to the same proposition iff all atoms agree on them.
//
// PropositionDomain owns the atom set of an IP and interns signatures to
// dense PropIds. The domain is shared by every trace of the same IP so
// that proposition identities are consistent across the PSMs that the
// join procedure and the HMM later combine.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bitvector.hpp"
#include "trace/functional_trace.hpp"

namespace psmgen::core {

enum class CmpOp { Eq, Gt };

struct AtomicProposition {
  int lhs = -1;                    ///< variable id
  CmpOp op = CmpOp::Eq;
  int rhs_var = -1;                ///< -1 => compare against rhs_const
  common::BitVector rhs_const;

  bool eval(const std::vector<common::BitVector>& row) const;
  std::string toString(const trace::VariableSet& vars) const;

  bool operator==(const AtomicProposition&) const = default;
};

using PropId = int;
inline constexpr PropId kNoProp = -1;

/// Non-owning view of a truth signature: `size` atoms, bit i of
/// words[i / 64] is atom i. Lets the domain look a row up without
/// building a Signature.
struct SignatureView {
  std::size_t size = 0;
  std::span<const std::uint64_t> words;
};

/// Truth signature of the full atom set at one instant.
class Signature {
 public:
  Signature() = default;
  explicit Signature(const std::vector<bool>& truths);

  bool get(std::size_t atom) const;
  std::size_t size() const { return size_; }
  SignatureView view() const { return {size_, words_}; }

  bool operator==(const Signature&) const = default;

 private:
  friend class PropositionDomain;
  Signature(std::size_t size, std::vector<std::uint64_t> words)
      : size_(size), words_(std::move(words)) {}

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Transparent hash/equality, so index lookups accept a SignatureView.
struct SignatureHash {
  using is_transparent = void;
  std::size_t operator()(SignatureView s) const;
  std::size_t operator()(const Signature& s) const { return (*this)(s.view()); }
};

struct SignatureEq {
  using is_transparent = void;
  bool operator()(SignatureView a, SignatureView b) const;
  bool operator()(const Signature& a, const Signature& b) const {
    return a == b;
  }
  bool operator()(SignatureView a, const Signature& b) const {
    return (*this)(a, b.view());
  }
  bool operator()(const Signature& a, SignatureView b) const {
    return (*this)(a.view(), b);
  }
};

class PropositionDomain {
 public:
  PropositionDomain(trace::VariableSet vars,
                    std::vector<AtomicProposition> atoms);

  const trace::VariableSet& variables() const { return vars_; }
  const std::vector<AtomicProposition>& atoms() const { return atoms_; }

  /// Truth signature of a row (one value per variable).
  Signature evalRow(const std::vector<common::BitVector>& row) const;

  /// Returns the PropId of a signature, creating it if new.
  PropId intern(const Signature& sig);
  /// Returns the PropId of a signature, or kNoProp if never interned.
  PropId find(const Signature& sig) const;

  PropId internRow(const std::vector<common::BitVector>& row);
  /// findRow(row) == find(evalRow(row)), without heap allocation for
  /// domains of up to kInlineWords * 64 atoms (the atoms are evaluated
  /// into stack words and looked up through a SignatureView). Safe to
  /// call concurrently on a shared domain.
  PropId findRow(const std::vector<common::BitVector>& row) const;

  std::size_t size() const { return signatures_.size(); }
  const Signature& signature(PropId id) const { return signatures_.at(id); }

  /// Human-readable rendering in the paper's style: the AND of the atoms
  /// that are true in the signature (e.g. "we=1 & ce=1").
  std::string describe(PropId id) const;
  /// Short name like "p12" used in DOT export and generated code.
  std::string shortName(PropId id) const;

  /// Exact equality (variables, atoms, and interned signatures in id
  /// order); the round-trip contract of serialize::PsmModel is stated in
  /// terms of this comparison.
  bool operator==(const PropositionDomain&) const = default;

 private:
  static constexpr std::size_t kInlineWords = 8;

  /// Sets the row's true atoms in words[0, wordCount()), which the
  /// caller has zeroed.
  void evalWords(const std::vector<common::BitVector>& row,
                 std::uint64_t* words) const;
  std::size_t wordCount() const { return (atoms_.size() + 63) / 64; }

  trace::VariableSet vars_;
  std::vector<AtomicProposition> atoms_;
  std::vector<Signature> signatures_;
  std::unordered_map<Signature, PropId, SignatureHash, SignatureEq> index_;
};

/// A proposition trace (paper Def. 2): the proposition holding at each
/// instant of a functional trace.
struct PropositionTrace {
  std::vector<PropId> ids;

  std::size_t length() const { return ids.size(); }
  PropId at(std::size_t t) const { return ids.at(t); }
};

}  // namespace psmgen::core
