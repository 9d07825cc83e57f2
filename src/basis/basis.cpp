#include "basis/basis.hpp"

#include <algorithm>
#include <cassert>
#include <mutex>
#include <stdexcept>

#include "math/legendre.hpp"

namespace vdg {

std::string to_string(BasisFamily f) {
  switch (f) {
    case BasisFamily::MaximalOrder: return "max";
    case BasisFamily::Serendipity: return "ser";
    case BasisFamily::Tensor: return "ten";
  }
  return "?";
}

std::string BasisSpec::name() const {
  std::string s;
  if (vdim > 0)
    s = std::to_string(cdim) + "x" + std::to_string(vdim) + "v";
  else
    s = std::to_string(cdim) + "d";
  return s + "_p" + std::to_string(polyOrder) + "_" + to_string(family);
}

namespace {

bool admits(BasisFamily family, const MultiIndex& a, int ndim, int p) {
  switch (family) {
    case BasisFamily::Tensor: return a.maxDegree(ndim) <= p;
    case BasisFamily::MaximalOrder: return a.totalDegree(ndim) <= p;
    case BasisFamily::Serendipity: return a.superlinearDegree(ndim) <= p;
  }
  return false;
}

std::vector<MultiIndex> enumerateModes(const BasisSpec& spec) {
  const int d = spec.ndim();
  const int p = spec.polyOrder;
  std::vector<MultiIndex> modes;
  MultiIndex a;
  // Odometer enumeration of {0..p}^d. (Serendipity/maximal-order per-entry
  // degrees never exceed p, so this covers all families.)
  while (true) {
    if (admits(spec.family, a, d, p)) modes.push_back(a);
    int k = 0;
    while (k < d && a[k] == p) a[k++] = 0;
    if (k == d) break;
    ++a[k];
  }
  std::sort(modes.begin(), modes.end(), [d](const MultiIndex& x, const MultiIndex& y) {
    const int tx = x.totalDegree(d), ty = y.totalDegree(d);
    if (tx != ty) return tx < ty;
    return std::lexicographical_compare(y.v.begin(), y.v.end(), x.v.begin(), x.v.end());
  });
  return modes;
}

}  // namespace

Basis::Basis(const BasisSpec& spec) : spec_(spec) {
  if (spec.ndim() < 1 || spec.ndim() > kMaxDim)
    throw std::invalid_argument("Basis: ndim must be in [1, 6]");
  if (spec.polyOrder < 0 || spec.polyOrder > 3)
    throw std::invalid_argument("Basis: polyOrder must be in [0, 3]");
  modes_ = enumerateModes(spec);
  index_.reserve(modes_.size());
  for (int l = 0; l < numModes(); ++l) index_[modes_[static_cast<std::size_t>(l)]] = l;
}

int Basis::indexOf(const MultiIndex& a) const {
  const auto it = index_.find(a);
  return it == index_.end() ? -1 : it->second;
}

double Basis::evalMode(int l, const double* eta) const {
  const MultiIndex& a = mode(l);
  double v = 1.0;
  for (int d = 0; d < ndim(); ++d) v *= legendrePsi(a[d], eta[d]);
  return v;
}

double Basis::evalModeDeriv(int l, int d, const double* eta) const {
  const MultiIndex& a = mode(l);
  double v = 1.0;
  for (int i = 0; i < ndim(); ++i)
    v *= (i == d) ? legendrePsiDeriv(a[i], eta[i]) : legendrePsi(a[i], eta[i]);
  return v;
}

void Basis::evalAll(const double* eta, double* out) const {
  for (int l = 0; l < numModes(); ++l) out[l] = evalMode(l, eta);
}

double Basis::evalExpansion(const double* coeff, const double* eta) const {
  double s = 0.0;
  for (int l = 0; l < numModes(); ++l) s += coeff[l] * evalMode(l, eta);
  return s;
}

Basis Basis::faceBasis(int dir) const {
  assert(ndim() >= 2 && dir >= 0 && dir < ndim());
  // The face basis keeps the family and order in ndim-1 dimensions. The
  // cdim/vdim split of the face spec is bookkeeping only; pick the split
  // consistent with which side of the phase space the dropped dim lies on.
  BasisSpec fs = spec_;
  if (dir < spec_.cdim)
    fs.cdim -= 1;
  else
    fs.vdim -= 1;
  if (fs.cdim == 0) {  // normalize: basis math only cares about ndim
    fs.cdim = fs.vdim;
    fs.vdim = 0;
  }
  Basis face(fs);
#ifndef NDEBUG
  // Closure property: every restriction of a volume mode is a face mode.
  for (const MultiIndex& a : modes_)
    assert(face.indexOf(a.dropDim(dir, ndim())) >= 0);
#endif
  return face;
}

const Basis& basisFor(const BasisSpec& spec) {
  struct SpecHash {
    std::size_t operator()(const BasisSpec& s) const {
      return static_cast<std::size_t>(s.cdim) * 1000003u +
             static_cast<std::size_t>(s.vdim) * 10007u +
             static_cast<std::size_t>(s.polyOrder) * 101u +
             static_cast<std::size_t>(s.family);
    }
  };
  // Ensemble members build their Simulations on pool threads concurrently,
  // so the lookup is locked. References stay valid after the lock drops:
  // the map is node-based, and Basis(spec) never re-enters basisFor.
  static std::mutex m;
  static std::unordered_map<BasisSpec, Basis, SpecHash> cache;
  const std::scoped_lock lock(m);
  auto it = cache.find(spec);
  if (it == cache.end()) it = cache.emplace(spec, Basis(spec)).first;
  return it->second;
}

int serendipityDim(int ndim, int p) {
  // Independent combinatorial count (Arnold-Awanou): choose the set S of
  // superlinearly-occurring variables (each degree >= 2, degrees summing to
  // at most p), the rest enter with degree 0 or 1.
  auto binom = [](int n, int k) -> long {
    if (k < 0 || k > n) return 0;
    long r = 1;
    for (int i = 0; i < k; ++i) r = r * (n - i) / (i + 1);
    return r;
  };
  long dim = 0;
  for (int s = 0; 2 * s <= p; ++s)
    dim += (1L << (ndim - s)) * binom(ndim, s) * binom(p - s, s);
  return static_cast<int>(dim);
}

}  // namespace vdg
