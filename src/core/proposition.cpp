#include "core/proposition.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

namespace psmgen::core {

bool AtomicProposition::eval(const std::vector<common::BitVector>& row) const {
  const common::BitVector& a = row.at(static_cast<std::size_t>(lhs));
  const common::BitVector& b =
      rhs_var >= 0 ? row.at(static_cast<std::size_t>(rhs_var)) : rhs_const;
  switch (op) {
    case CmpOp::Eq: return common::BitVector::compare(a, b) == 0;
    case CmpOp::Gt: return common::BitVector::compare(a, b) > 0;
  }
  return false;
}

std::string AtomicProposition::toString(const trace::VariableSet& vars) const {
  const std::string lhs_name = vars[static_cast<std::size_t>(lhs)].name;
  const std::string op_name = op == CmpOp::Eq ? "=" : ">";
  if (rhs_var >= 0) {
    return lhs_name + op_name + vars[static_cast<std::size_t>(rhs_var)].name;
  }
  if (rhs_const.width() == 1) {
    return lhs_name + op_name + (rhs_const.bit(0) ? "1" : "0");
  }
  return lhs_name + op_name + "0x" + rhs_const.toHex();
}

Signature::Signature(const std::vector<bool>& truths) : size_(truths.size()) {
  words_.assign((size_ + 63) / 64, 0);
  for (std::size_t i = 0; i < size_; ++i) {
    if (truths[i]) words_[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

bool Signature::get(std::size_t atom) const {
  if (atom >= size_) throw std::out_of_range("Signature::get");
  return (words_[atom / 64] >> (atom % 64)) & 1u;
}

std::size_t SignatureHash::operator()(SignatureView s) const {
  std::size_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
    h ^= h >> 29;
  };
  mix(s.size);
  for (const std::uint64_t w : s.words) mix(w);
  return h;
}

bool SignatureEq::operator()(SignatureView a, SignatureView b) const {
  return a.size == b.size && std::ranges::equal(a.words, b.words);
}

PropositionDomain::PropositionDomain(trace::VariableSet vars,
                                     std::vector<AtomicProposition> atoms)
    : vars_(std::move(vars)), atoms_(std::move(atoms)) {}

void PropositionDomain::evalWords(const std::vector<common::BitVector>& row,
                                  std::uint64_t* words) const {
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (atoms_[i].eval(row)) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
}

Signature PropositionDomain::evalRow(
    const std::vector<common::BitVector>& row) const {
  std::vector<std::uint64_t> words(wordCount());
  evalWords(row, words.data());
  return Signature(atoms_.size(), std::move(words));
}

PropId PropositionDomain::intern(const Signature& sig) {
  const auto it = index_.find(sig);
  if (it != index_.end()) return it->second;
  const PropId id = static_cast<PropId>(signatures_.size());
  signatures_.push_back(sig);
  index_.emplace(sig, id);
  return id;
}

PropId PropositionDomain::find(const Signature& sig) const {
  const auto it = index_.find(sig);
  return it == index_.end() ? kNoProp : it->second;
}

PropId PropositionDomain::internRow(const std::vector<common::BitVector>& row) {
  return intern(evalRow(row));
}

PropId PropositionDomain::findRow(
    const std::vector<common::BitVector>& row) const {
  const std::size_t n = wordCount();
  std::array<std::uint64_t, kInlineWords> inline_words{};
  std::vector<std::uint64_t> heap_words;
  std::uint64_t* words = inline_words.data();
  if (n > kInlineWords) {
    heap_words.resize(n);
    words = heap_words.data();
  }
  evalWords(row, words);
  const auto it = index_.find(SignatureView{atoms_.size(), {words, n}});
  return it == index_.end() ? kNoProp : it->second;
}

std::string PropositionDomain::describe(PropId id) const {
  if (id == kNoProp) return "<unknown>";
  const Signature& sig = signatures_.at(id);
  std::string out;
  for (std::size_t i = 0; i < atoms_.size(); ++i) {
    if (!sig.get(i)) continue;
    if (!out.empty()) out += " & ";
    out += atoms_[i].toString(vars_);
  }
  return out.empty() ? "<no-atom-true>" : out;
}

std::string PropositionDomain::shortName(PropId id) const {
  if (id == kNoProp) return "p_nil";
  std::string out = "p";
  out += std::to_string(id);
  return out;
}

}  // namespace psmgen::core
