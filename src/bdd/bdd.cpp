#include "bdd/bdd.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace record::bdd {

BddManager::BddManager() {
  // Slot 0: constant FALSE, slot 1: constant TRUE. Constants sit below every
  // variable in the order (kConstLevel).
  nodes_.push_back(Node{kConstLevel, kFalse, kFalse});
  nodes_.push_back(Node{kConstLevel, kTrue, kTrue});
}

int BddManager::new_var(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

int BddManager::find_var(std::string_view name) const {
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == name) return static_cast<int>(i);
  return -1;
}

Ref BddManager::literal(int v, bool positive) {
  assert(v >= 0 && v < var_count());
  std::lock_guard<std::mutex> lock(mu_);
  return positive ? make_node(v, kFalse, kTrue) : make_node(v, kTrue, kFalse);
}

Ref BddManager::make_node(int var, Ref lo, Ref hi) {
  if (lo == hi) return lo;  // reduction rule
  NodeKey key{var, lo, hi};
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  Ref r = static_cast<Ref>(nodes_.size());
  nodes_.push_back(Node{var, lo, hi});
  unique_.emplace(key, r);
  return r;
}

Ref BddManager::ite(Ref f, Ref g, Ref h) {
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(f, g, h);
}

Ref BddManager::ite_rec(Ref f, Ref g, Ref h) {
  // Terminal cases.
  if (f == kTrue) return g;
  if (f == kFalse) return h;
  if (g == h) return g;
  if (g == kTrue && h == kFalse) return f;

  IteKey key{f, g, h};
  auto it = ite_cache_.find(key);
  if (it != ite_cache_.end()) return it->second;

  int top = std::min({level(f), level(g), level(h)});
  auto cofactor = [&](Ref r, bool hi) {
    if (level(r) != top) return r;
    return hi ? node(r).hi : node(r).lo;
  };
  Ref t = ite_rec(cofactor(f, true), cofactor(g, true), cofactor(h, true));
  Ref e = ite_rec(cofactor(f, false), cofactor(g, false), cofactor(h, false));
  Ref r = make_node(top, e, t);
  ite_cache_.emplace(key, r);
  return r;
}

Ref BddManager::restrict(Ref f, int v, bool value) {
  std::lock_guard<std::mutex> lock(mu_);
  return restrict_rec(f, v, value);
}

Ref BddManager::restrict_rec(Ref f, int v, bool value) {
  if (is_const(f)) return f;
  int top = level(f);
  if (top > v) return f;  // v not in f's remaining support
  if (top == v) return value ? node(f).hi : node(f).lo;
  Ref lo = restrict_rec(node(f).lo, v, value);
  Ref hi = restrict_rec(node(f).hi, v, value);
  return make_node(top, lo, hi);
}

Ref BddManager::compose(Ref f, int v, Ref g) {
  // f[v <- g] = ite(g, f|v=1, f|v=0)
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(g, restrict_rec(f, v, true), restrict_rec(f, v, false));
}

Ref BddManager::exists(Ref f, int v) {
  // lor(f|v=1, f|v=0) spelled through the unlocked core.
  std::lock_guard<std::mutex> lock(mu_);
  return ite_rec(restrict_rec(f, v, true), kTrue, restrict_rec(f, v, false));
}

bool BddManager::eval(Ref f, const Assignment& a) const {
  std::lock_guard<std::mutex> lock(mu_);
  while (!is_const(f)) {
    int v = node(f).var;
    bool value = false;
    for (const auto& [av, aval] : a) {
      if (av == v) {
        value = aval;
        break;
      }
    }
    f = value ? node(f).hi : node(f).lo;
  }
  return f == kTrue;
}

std::optional<Assignment> BddManager::any_sat(Ref f) const {
  if (f == kFalse) return std::nullopt;
  std::lock_guard<std::mutex> lock(mu_);
  Assignment out;
  while (!is_const(f)) {
    const Node& n = node(f);
    if (n.hi != kFalse) {
      out.emplace_back(n.var, true);
      f = n.hi;
    } else {
      out.emplace_back(n.var, false);
      f = n.lo;
    }
  }
  return out;
}

double BddManager::sat_fraction(Ref f,
                                std::unordered_map<Ref, double>& memo) const {
  if (f == kFalse) return 0.0;
  if (f == kTrue) return 1.0;
  auto it = memo.find(f);
  if (it != memo.end()) return it->second;
  const Node& n = node(f);
  double r = 0.5 * sat_fraction(n.lo, memo) + 0.5 * sat_fraction(n.hi, memo);
  memo.emplace(f, r);
  return r;
}

std::uint64_t BddManager::sat_count(Ref f, int nvars) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<Ref, double> memo;
  double fraction = sat_fraction(f, memo);
  double count = fraction;
  for (int i = 0; i < nvars; ++i) count *= 2.0;
  return static_cast<std::uint64_t>(count + 0.5);
}

void BddManager::collect_support(Ref f, std::vector<bool>& seen,
                                 std::vector<bool>& vars) const {
  if (is_const(f) || seen[f]) return;
  seen[f] = true;
  vars[static_cast<std::size_t>(node(f).var)] = true;
  collect_support(node(f).lo, seen, vars);
  collect_support(node(f).hi, seen, vars);
}

std::vector<int> BddManager::support(Ref f) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<bool> vars(names_.size(), false);
  collect_support(f, seen, vars);
  std::vector<int> out;
  for (std::size_t i = 0; i < vars.size(); ++i)
    if (vars[i]) out.push_back(static_cast<int>(i));
  return out;
}

Cube BddManager::implied_literals(Ref f) const {
  Cube cube;
  if (is_const(f)) return cube;
  const int nvars = var_count();
  std::lock_guard<std::mutex> lock(mu_);
  if (visit_.size() < nodes_.size()) visit_.resize(nodes_.size(), 0);
  if (++epoch_ == 0) {  // wrapped: forget every old mark
    std::fill(visit_.begin(), visit_.end(), 0);
    epoch_ = 1;
  }
  // Over the paths from f to TRUE: seen[v] bit 0 / bit 1 = some path leaves
  // a v node by its low / high edge; `skipped` is a difference array of the
  // variable ranges that some path jumps over (those stay free).
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(nvars), 0);
  std::vector<int> skipped(static_cast<std::size_t>(nvars) + 1, 0);
  auto skip = [&](int from, Ref to) {
    const int upto = is_const(to) ? nvars : level(to);
    if (from >= upto) return;
    ++skipped[static_cast<std::size_t>(from)];
    --skipped[static_cast<std::size_t>(upto)];
  };
  skip(0, f);
  std::vector<Ref> stack{f};
  visit_[f] = epoch_;
  while (!stack.empty()) {
    const Node& n = node(stack.back());
    stack.pop_back();
    for (const bool high : {false, true}) {
      const Ref child = high ? n.hi : n.lo;
      if (child == kFalse) continue;
      seen[static_cast<std::size_t>(n.var)] |= high ? 2 : 1;
      skip(n.var + 1, child);
      if (is_const(child) || visit_[child] == epoch_) continue;
      visit_[child] = epoch_;
      stack.push_back(child);
    }
  }
  cube.mask.assign(static_cast<std::size_t>(nvars + 63) / 64, 0);
  cube.value.assign(cube.mask.size(), 0);
  int free_depth = 0;
  for (int v = 0; v < nvars; ++v) {
    free_depth += skipped[static_cast<std::size_t>(v)];
    const std::uint8_t s = seen[static_cast<std::size_t>(v)];
    if (free_depth != 0 || (s != 1 && s != 2)) continue;
    const std::uint64_t bit = std::uint64_t{1} << (v % 64);
    cube.mask[static_cast<std::size_t>(v / 64)] |= bit;
    if (s == 2) cube.value[static_cast<std::size_t>(v / 64)] |= bit;
  }
  return cube;
}

std::string BddManager::to_string(Ref f) const {
  std::lock_guard<std::mutex> lock(mu_);
  return to_string_rec(f);
}

std::string BddManager::to_string_rec(Ref f) const {
  if (f == kFalse) return "0";
  if (f == kTrue) return "1";
  const Node& n = node(f);
  std::ostringstream os;
  os << '(' << var_name(n.var) << " ? " << to_string_rec(n.hi) << " : "
     << to_string_rec(n.lo) << ')';
  return os.str();
}

void BddManager::to_sop_rec(Ref f, std::vector<std::pair<int, bool>>& path,
                            std::vector<std::string>& cubes) const {
  if (f == kFalse) return;
  if (f == kTrue) {
    if (path.empty()) {
      cubes.emplace_back("1");
      return;
    }
    std::ostringstream os;
    for (std::size_t i = 0; i < path.size(); ++i) {
      if (i) os << '&';
      if (!path[i].second) os << '!';
      os << var_name(path[i].first);
    }
    cubes.push_back(os.str());
    return;
  }
  const Node& n = node(f);
  path.emplace_back(n.var, false);
  to_sop_rec(n.lo, path, cubes);
  path.back().second = true;
  to_sop_rec(n.hi, path, cubes);
  path.pop_back();
}

std::string BddManager::to_sop(Ref f) const {
  if (f == kFalse) return "0";
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, bool>> path;
  std::vector<std::string> cubes;
  to_sop_rec(f, path, cubes);
  std::ostringstream os;
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    if (i) os << " | ";
    os << cubes[i];
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Cube

Assignment Cube::literals() const {
  Assignment out;
  for (std::size_t w = 0; w < mask.size(); ++w)
    for (int b = 0; b < 64; ++b)
      if ((mask[w] >> b) & 1u)
        out.emplace_back(static_cast<int>(w * 64) + b, (value[w] >> b) & 1u);
  return out;
}

// ---------------------------------------------------------------------------
// BitVec

BitVec BitVec::constant(std::uint64_t value, int width) {
  std::vector<Ref> bits(static_cast<std::size_t>(width));
  for (int i = 0; i < width; ++i)
    bits[static_cast<std::size_t>(i)] =
        ((value >> i) & 1u) ? kTrue : kFalse;
  return BitVec(std::move(bits));
}

BitVec BitVec::slice(int hi, int lo) const {
  assert(hi >= lo && lo >= 0 && hi < width());
  std::vector<Ref> bits(bits_.begin() + lo, bits_.begin() + hi + 1);
  return BitVec(std::move(bits));
}

BitVec BitVec::concat(const BitVec& high, const BitVec& low) {
  std::vector<Ref> bits = low.bits_;
  bits.insert(bits.end(), high.bits_.begin(), high.bits_.end());
  return BitVec(std::move(bits));
}

Ref BitVec::equals_const(BddManager& mgr, std::uint64_t value) const {
  Ref cond = kTrue;
  for (int i = 0; i < width(); ++i) {
    bool want = ((value >> i) & 1u) != 0;
    Ref bit_cond = want ? bits_[static_cast<std::size_t>(i)]
                        : mgr.lnot(bits_[static_cast<std::size_t>(i)]);
    cond = mgr.land(cond, bit_cond);
  }
  return cond;
}

Ref BitVec::equals(BddManager& mgr, const BitVec& other) const {
  assert(width() == other.width());
  Ref cond = kTrue;
  for (int i = 0; i < width(); ++i) {
    Ref same = mgr.lnot(mgr.lxor(bits_[static_cast<std::size_t>(i)],
                                 other.bits_[static_cast<std::size_t>(i)]));
    cond = mgr.land(cond, same);
  }
  return cond;
}

bool BitVec::is_constant() const {
  return std::all_of(bits_.begin(), bits_.end(),
                     [](Ref b) { return BddManager::is_const(b); });
}

std::uint64_t BitVec::constant_value() const {
  std::uint64_t v = 0;
  for (int i = 0; i < width(); ++i)
    if (bits_[static_cast<std::size_t>(i)] == kTrue) v |= (1ull << i);
  return v;
}

}  // namespace record::bdd
