// Tests of the modal orthonormal basis sets: dimension counts against the
// paper's numbers (5-D p2 Serendipity = 112 DOF, 6-D p1 = 64 DOF), L2
// orthonormality, face-basis closure, and family inclusions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <thread>
#include <vector>

#include "basis/basis.hpp"
#include "math/gauss_legendre.hpp"

namespace vdg {
namespace {

int tensorDim(int d, int p) {
  int n = 1;
  for (int i = 0; i < d; ++i) n *= (p + 1);
  return n;
}

int maxOrderDim(int d, int p) {
  // C(d+p, p)
  long r = 1;
  for (int i = 0; i < p; ++i) r = r * (d + p - i) / (i + 1);
  return static_cast<int>(r);
}

TEST(Basis, TensorCounts) {
  for (int d = 1; d <= 6; ++d)
    for (int p = 1; p <= (d <= 4 ? 3 : 1); ++p) {
      const Basis b(BasisSpec{d, 0, p, BasisFamily::Tensor});
      EXPECT_EQ(b.numModes(), tensorDim(d, p)) << "d=" << d << " p=" << p;
    }
}

TEST(Basis, MaximalOrderCounts) {
  for (int d = 1; d <= 6; ++d)
    for (int p = 1; p <= 3; ++p) {
      const Basis b(BasisSpec{d, 0, p, BasisFamily::MaximalOrder});
      EXPECT_EQ(b.numModes(), maxOrderDim(d, p)) << "d=" << d << " p=" << p;
    }
}

TEST(Basis, SerendipityCountsMatchPaper) {
  // The paper's headline numbers: 2X3V p2 Serendipity has 112 DOF per cell
  // (Table I) and 3X3V p1 has 64 (Section IV weak scaling).
  EXPECT_EQ(Basis(BasisSpec{2, 3, 2, BasisFamily::Serendipity}).numModes(), 112);
  EXPECT_EQ(Basis(BasisSpec{3, 3, 1, BasisFamily::Serendipity}).numModes(), 64);
  // And the closed-form Arnold-Awanou count agrees everywhere we support.
  for (int d = 1; d <= 6; ++d)
    for (int p = 1; p <= 3; ++p) {
      const Basis b(BasisSpec{d, 0, p, BasisFamily::Serendipity});
      EXPECT_EQ(b.numModes(), serendipityDim(d, p)) << "d=" << d << " p=" << p;
    }
}

TEST(Basis, FamilyInclusions) {
  // maximal-order subset of Serendipity subset of tensor (as mode sets).
  for (int d = 2; d <= 4; ++d)
    for (int p = 1; p <= 3; ++p) {
      const Basis mo(BasisSpec{d, 0, p, BasisFamily::MaximalOrder});
      const Basis se(BasisSpec{d, 0, p, BasisFamily::Serendipity});
      const Basis te(BasisSpec{d, 0, p, BasisFamily::Tensor});
      EXPECT_LE(mo.numModes(), se.numModes());
      EXPECT_LE(se.numModes(), te.numModes());
      for (const MultiIndex& a : mo.modes()) EXPECT_GE(se.indexOf(a), 0);
      for (const MultiIndex& a : se.modes()) EXPECT_GE(te.indexOf(a), 0);
    }
}

TEST(Basis, OrthonormalUnderQuadrature) {
  // Check <w_i, w_j> = delta_ij with an exact quadrature rule.
  for (const BasisFamily fam :
       {BasisFamily::MaximalOrder, BasisFamily::Serendipity, BasisFamily::Tensor}) {
    const Basis b(BasisSpec{1, 2, 2, fam});
    const int nd = b.ndim();
    const QuadRule rule = gauss_legendre(4);
    const int np = b.numModes();
    std::vector<double> gram(static_cast<std::size_t>(np) * np, 0.0);
    std::vector<double> w(static_cast<std::size_t>(np));
    // 3-D tensor quadrature.
    for (std::size_t i = 0; i < rule.size(); ++i)
      for (std::size_t j = 0; j < rule.size(); ++j)
        for (std::size_t k = 0; k < rule.size(); ++k) {
          const double eta[3] = {rule.nodes[i], rule.nodes[j], rule.nodes[k]};
          const double wq = rule.weights[i] * rule.weights[j] * rule.weights[k];
          b.evalAll(eta, w.data());
          for (int a = 0; a < np; ++a)
            for (int c = 0; c < np; ++c)
              gram[static_cast<std::size_t>(a) * np + c] +=
                  wq * w[static_cast<std::size_t>(a)] * w[static_cast<std::size_t>(c)];
        }
    (void)nd;
    for (int a = 0; a < np; ++a)
      for (int c = 0; c < np; ++c)
        EXPECT_NEAR(gram[static_cast<std::size_t>(a) * np + c], a == c ? 1.0 : 0.0, 1e-12);
  }
}

TEST(Basis, FaceBasisClosure) {
  // Every volume mode restricted to a face maps to a face mode, and the
  // face basis has exactly the restricted set's size.
  for (const BasisFamily fam :
       {BasisFamily::MaximalOrder, BasisFamily::Serendipity, BasisFamily::Tensor}) {
    const Basis b(BasisSpec{2, 2, 2, fam});
    for (int d = 0; d < b.ndim(); ++d) {
      const Basis face = b.faceBasis(d);
      for (const MultiIndex& a : b.modes())
        EXPECT_GE(face.indexOf(a.dropDim(d, b.ndim())), 0);
      // Face family in d-1 dims is itself the same family.
      EXPECT_EQ(face.spec().polyOrder, b.spec().polyOrder);
      EXPECT_EQ(face.ndim(), b.ndim() - 1);
    }
  }
}

TEST(Basis, EvalExpansionMatchesModeSum) {
  const Basis b(BasisSpec{1, 1, 2, BasisFamily::Serendipity});
  std::vector<double> coeff(static_cast<std::size_t>(b.numModes()));
  for (int l = 0; l < b.numModes(); ++l) coeff[static_cast<std::size_t>(l)] = 0.1 * (l + 1);
  const double eta[2] = {0.25, -0.5};
  double expect = 0.0;
  for (int l = 0; l < b.numModes(); ++l)
    expect += coeff[static_cast<std::size_t>(l)] * b.evalMode(l, eta);
  EXPECT_NEAR(b.evalExpansion(coeff.data(), eta), expect, 1e-14);
}

TEST(Basis, InvalidSpecsThrow) {
  EXPECT_THROW(Basis(BasisSpec{7, 0, 1, BasisFamily::Tensor}), std::invalid_argument);
  EXPECT_THROW(Basis(BasisSpec{1, 0, 4, BasisFamily::Tensor}), std::invalid_argument);
  EXPECT_THROW(Basis(BasisSpec{3, 4, 1, BasisFamily::Tensor}), std::invalid_argument);
}

TEST(Basis, NamesAreStable) {
  EXPECT_EQ((BasisSpec{2, 3, 2, BasisFamily::Serendipity}).name(), "2x3v_p2_ser");
  EXPECT_EQ((BasisSpec{1, 0, 1, BasisFamily::Tensor}).name(), "1d_p1_ten");
  EXPECT_EQ((BasisSpec{3, 3, 1, BasisFamily::MaximalOrder}).name(), "3x3v_p1_max");
}

TEST(Basis, CachedLookupIsThreadSafe) {
  // Several threads race to build and fetch the same uncached bases (specs
  // no other case uses); every thread must get one address per spec.
  const std::array<BasisSpec, 4> specs = {BasisSpec{2, 1, 3, BasisFamily::MaximalOrder},
                                          BasisSpec{1, 2, 3, BasisFamily::Tensor},
                                          BasisSpec{3, 0, 2, BasisFamily::Serendipity},
                                          BasisSpec{2, 2, 3, BasisFamily::MaximalOrder}};
  constexpr int kThreads = 4;
  std::array<std::array<const Basis*, 4>, kThreads> seen{};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int rep = 0; rep < 50; ++rep)
        for (std::size_t s = 0; s < specs.size(); ++s) {
          // Each thread starts at a different spec so the first builds race.
          const std::size_t k = (s + static_cast<std::size_t>(t)) % specs.size();
          const Basis* b = &basisFor(specs[k]);
          if (rep == 0) seen[static_cast<std::size_t>(t)][k] = b;
          EXPECT_EQ(b, seen[static_cast<std::size_t>(t)][k]);
        }
    });
  for (std::thread& th : threads) th.join();
  for (std::size_t k = 0; k < specs.size(); ++k) {
    EXPECT_EQ(seen[0][k]->numModes(), Basis(specs[k]).numModes());
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[static_cast<std::size_t>(t)][k], seen[0][k]);
  }
}

}  // namespace
}  // namespace vdg
