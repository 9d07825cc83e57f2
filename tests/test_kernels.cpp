// Tests of the pre-generated (CAS-emitted, compiled) kernels: they must
// reproduce the sparse-tape interpreter to machine precision — both paths
// evaluate the same exactly-integrated tensors, one as unrolled compiled
// source (the paper's deployed form), one as data. Covers the Vlasov
// updater and the LBO collision operator, for every generated spec. The
// updaters run the B = 1 instantiation on every cell here; test_batch.cpp
// pins the wider lane counts to B = 1 bitwise, so the tape is the
// independent oracle for all of them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "collisions/lbo.hpp"
#include "dg/vlasov.hpp"
#include "kernels/registry.hpp"

namespace vdg {
namespace {

Grid phaseGridFor(const BasisSpec& spec, int nx, int nv) {
  Grid g;
  g.ndim = spec.ndim();
  for (int d = 0; d < spec.cdim; ++d) {
    g.cells[static_cast<std::size_t>(d)] = nx;
    g.lower[static_cast<std::size_t>(d)] = 0.0;
    g.upper[static_cast<std::size_t>(d)] = 2.0 * std::numbers::pi;
  }
  for (int d = spec.cdim; d < spec.ndim(); ++d) {
    g.cells[static_cast<std::size_t>(d)] = nv;
    g.lower[static_cast<std::size_t>(d)] = -4.0;
    g.upper[static_cast<std::size_t>(d)] = 4.0;
  }
  return g;
}

Field randomField(const Grid& g, int ncomp, unsigned seed) {
  Field f(g, ncomp);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  forEachCell(g, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    for (int k = 0; k < ncomp; ++k) c[k] = u(rng);
  });
  return f;
}

TEST(CompiledKernels, RegistryIsPopulated) {
  EXPECT_GE(numCompiledKernelSets(), 11);
  EXPECT_NE(findCompiledKernels("1x1v_p1_ten"), nullptr);
  EXPECT_NE(findCompiledKernels("2x3v_p2_ser"), nullptr);
  EXPECT_EQ(findCompiledKernels("9x9v_p9_xyz"), nullptr);
}

TEST(CompiledKernels, ListSpecsIsSortedAndConsistent) {
  const std::vector<std::string> names = listCompiledKernelSpecs();
  EXPECT_EQ(static_cast<int>(names.size()), numCompiledKernelSets());
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& n : names) EXPECT_NE(findCompiledKernels(n), nullptr);
  EXPECT_NE(std::find(names.begin(), names.end(), "1x1v_p1_ten"), names.end());
}

TEST(CompiledKernels, DuplicateRegistrationIsCountedAndLastWins) {
  // Assertions are delta-based against process-global state so the test
  // stays valid under --gtest_repeat (re-registrations persist).
  const int before = numDuplicateKernelRegistrations();

  const CompiledKernels* orig = findCompiledKernels("1x1v_p1_ten");
  ASSERT_NE(orig, nullptr);
  const CompiledKernels saved = *orig;

  CompiledKernels clone = saved;
  registerCompiledKernels("1x1v_p1_ten", clone);
  EXPECT_EQ(numDuplicateKernelRegistrations(), before + 1);
  // Last registration wins but the entry set is unchanged.
  EXPECT_EQ(static_cast<int>(listCompiledKernelSpecs().size()), numCompiledKernelSets());
  const CompiledKernels* now = findCompiledKernels("1x1v_p1_ten");
  ASSERT_NE(now, nullptr);
  for (int i = 0; i < kNumKernelLanes; ++i)
    EXPECT_EQ(now->sets[i].streamVol, saved.sets[i].streamVol);

  // A registration for a fresh spec name is not a duplicate (on repeat
  // runs the fake entry already exists, so it counts as one then).
  const bool fakePresent = findCompiledKernels("0x0v_p0_test") != nullptr;
  registerCompiledKernels("0x0v_p0_test", clone);
  EXPECT_EQ(numDuplicateKernelRegistrations(), before + 1 + (fakePresent ? 1 : 0));
  EXPECT_NE(findCompiledKernels("0x0v_p0_test"), nullptr);
}

class CompiledBySpec : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(CompiledBySpec, MatchesTapeInterpreter) {
  const BasisSpec spec = GetParam();
  const Grid pg = phaseGridFor(spec, 4, 4);
  Grid cg;
  cg.ndim = spec.cdim;
  for (int d = 0; d < spec.cdim; ++d) {
    cg.cells[static_cast<std::size_t>(d)] = pg.cells[static_cast<std::size_t>(d)];
    cg.lower[static_cast<std::size_t>(d)] = pg.lower[static_cast<std::size_t>(d)];
    cg.upper[static_cast<std::size_t>(d)] = pg.upper[static_cast<std::size_t>(d)];
  }
  const int np = basisFor(spec).numModes();
  const int npc = basisFor(spec.configSpec()).numModes();

  VlasovParams params;
  params.flux = FluxType::Penalty;  // the flux the generated kernels bake in
  VlasovUpdater fast(spec, pg, params);
  ASSERT_TRUE(fast.usesCompiledKernels()) << spec.name();
  fast.setBatchLanes(1);
  ASSERT_EQ(fast.activeBatchLanes(), 1);
  VlasovUpdater slow(spec, pg, params);
  slow.disableCompiledKernels();
  ASSERT_FALSE(slow.usesCompiledKernels());

  Field f = randomField(pg, np, 3);
  Field em = randomField(cg, kEmComps * npc, 5);
  for (int d = 0; d < spec.cdim; ++d) {
    f.syncPeriodic(d);
    em.syncPeriodic(d);
  }
  Field rhsFast(pg, np), rhsSlow(pg, np);
  const double freqFast = fast.advance(f, &em, rhsFast);
  const double freqSlow = slow.advance(f, &em, rhsSlow);
  EXPECT_NEAR(freqFast, freqSlow, 1e-12 * freqSlow);

  double maxAbs = 0.0, maxDiff = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxAbs = std::max(maxAbs, std::abs(rhsSlow.at(idx)[l]));
      maxDiff = std::max(maxDiff, std::abs(rhsFast.at(idx)[l] - rhsSlow.at(idx)[l]));
    }
  });
  EXPECT_GT(maxAbs, 0.0);
  EXPECT_LT(maxDiff, 1e-11 * maxAbs);
}

TEST_P(CompiledBySpec, MatchesTapeForFreeStreaming) {
  const BasisSpec spec = GetParam();
  const Grid pg = phaseGridFor(spec, 3, 3);
  const int np = basisFor(spec).numModes();
  VlasovParams params;
  VlasovUpdater fast(spec, pg, params);
  fast.setBatchLanes(1);
  VlasovUpdater slow(spec, pg, params);
  slow.disableCompiledKernels();
  Field f = randomField(pg, np, 17);
  for (int d = 0; d < spec.cdim; ++d) f.syncPeriodic(d);
  Field rhsFast(pg, np), rhsSlow(pg, np);
  fast.advance(f, nullptr, rhsFast);
  slow.advance(f, nullptr, rhsSlow);
  double maxAbs = 0.0, maxDiff = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxAbs = std::max(maxAbs, std::abs(rhsSlow.at(idx)[l]));
      maxDiff = std::max(maxDiff, std::abs(rhsFast.at(idx)[l] - rhsSlow.at(idx)[l]));
    }
  });
  EXPECT_LT(maxDiff, 1e-11 * std::max(maxAbs, 1e-30));
}

TEST(CompiledKernels, CentralFluxFallsBackToTapes) {
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = phaseGridFor(spec, 4, 4);
  VlasovParams params;
  params.flux = FluxType::Central;
  const VlasovUpdater up(spec, pg, params);
  EXPECT_FALSE(up.usesCompiledKernels());
}

// ---------------------------------------------------------------- LBO

/// Max-norm of a - b relative to the max-norm of b.
double relMaxDiff(const Field& a, const Field& b, const Grid& g, int np) {
  double maxAbs = 0.0, maxDiff = 0.0;
  forEachCell(g, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxAbs = std::max(maxAbs, std::abs(b.at(idx)[l]));
      maxDiff = std::max(maxDiff, std::abs(a.at(idx)[l] - b.at(idx)[l]));
    }
  });
  return maxAbs > 0.0 ? maxDiff / maxAbs : maxDiff;
}

class LboCompiledBySpec : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(LboCompiledBySpec, MatchesTapeInterpreter) {
  const BasisSpec spec = GetParam();
  const bool big = spec.ndim() >= 5;
  const Grid pg = phaseGridFor(spec, big ? 2 : 3, big ? 3 : 4);
  const int np = basisFor(spec).numModes();

  // A strictly positive distribution keeps the weak division sane.
  Field f(pg, np);
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  forEachCell(pg, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    for (int l = 0; l < np; ++l) c[l] = l == 0 ? 1.0 + 0.5 * u(rng) : 0.05 * u(rng);
  });

  for (const bool momentFix : {true, false}) {
    LboUpdater fast(spec, pg, LboParams{1.0, 1.7, momentFix});
    ASSERT_TRUE(fast.usesCompiledKernels()) << spec.name();
    fast.setBatchLanes(1);
    ASSERT_EQ(fast.activeBatchLanes(), 1);
    LboUpdater slow(spec, pg, LboParams{1.0, 1.7, momentFix});
    slow.disableCompiledKernels();
    ASSERT_FALSE(slow.usesCompiledKernels());

    Field rhsFast(pg, np), rhsSlow(pg, np);
    rhsFast.setZero();
    rhsSlow.setZero();
    const double freqFast = fast.advance(f, rhsFast);
    const double freqSlow = slow.advance(f, rhsSlow);
    EXPECT_NEAR(freqFast, freqSlow, 1e-12 * freqSlow) << spec.name();
    EXPECT_LE(relMaxDiff(rhsFast, rhsSlow, pg, np), 1e-11)
        << spec.name() << " momentFix=" << momentFix;
  }

  // The raw drag and diffusion pieces, on the primitive moments of f.
  LboUpdater fast(spec, pg, LboParams{});
  fast.setBatchLanes(1);
  LboUpdater slow(spec, pg, LboParams{});
  slow.disableCompiledKernels();
  const Grid cg = fast.confGrid();
  const int npc = fast.numConfModes();
  Field uMom(cg, spec.vdim * npc), vtSq(cg, npc);
  fast.primitiveMoments(f, uMom, vtSq);
  Field a(pg, np), b(pg, np);
  a.setZero();
  b.setZero();
  fast.dragTerm(f, uMom, a);
  slow.dragTerm(f, uMom, b);
  EXPECT_LE(relMaxDiff(a, b, pg, np), 1e-11) << spec.name() << " drag";
  a.setZero();
  b.setZero();
  fast.diffusionTerm(f, vtSq, a);
  slow.diffusionTerm(f, vtSq, b);
  EXPECT_LE(relMaxDiff(a, b, pg, np), 1e-11) << spec.name() << " diffusion";
}

/// Every spec tools/gen_kernels renders.
const BasisSpec kGeneratedSpecs[] = {
    {1, 1, 1, BasisFamily::Tensor},      {1, 1, 2, BasisFamily::Tensor},
    {1, 1, 2, BasisFamily::Serendipity}, {1, 1, 3, BasisFamily::Serendipity},
    {1, 1, 3, BasisFamily::Tensor},      {1, 2, 1, BasisFamily::Tensor},
    {1, 2, 1, BasisFamily::Serendipity}, {1, 2, 2, BasisFamily::Serendipity},
    {1, 2, 2, BasisFamily::Tensor},      {1, 2, 3, BasisFamily::Serendipity},
    {1, 3, 1, BasisFamily::Serendipity}, {1, 3, 1, BasisFamily::Tensor},
    {1, 3, 2, BasisFamily::Serendipity}, {2, 2, 1, BasisFamily::Serendipity},
    {2, 2, 1, BasisFamily::Tensor},      {2, 2, 2, BasisFamily::Serendipity},
    {2, 3, 1, BasisFamily::Serendipity}, {2, 3, 1, BasisFamily::Tensor},
    {2, 3, 2, BasisFamily::Serendipity}, {3, 3, 1, BasisFamily::Serendipity},
    {3, 3, 1, BasisFamily::MaximalOrder}};

TEST(CompiledKernels, EveryGeneratedSpecCarriesLboKernels) {
  int generated = 0;
  for (const BasisSpec& spec : kGeneratedSpecs) {
    const CompiledKernels* ck = findCompiledKernels(spec.name());
    ASSERT_NE(ck, nullptr) << spec.name();
    for (const int lanes : kKernelLanes) {
      const CompiledKernelSet* k = ck->find(lanes, spec.cdim, spec.vdim);
      ASSERT_NE(k, nullptr) << spec.name();
      EXPECT_TRUE(k->lbo.complete(spec.vdim)) << spec.name() << " B=" << lanes;
    }
    ++generated;
  }
  // The list covers the whole registry (bar the fake spec another case adds).
  int registered = 0;
  for (const std::string& n : listCompiledKernelSpecs()) registered += n != "0x0v_p0_test";
  EXPECT_EQ(generated, registered);
}

INSTANTIATE_TEST_SUITE_P(GeneratedSpecs, LboCompiledBySpec, ::testing::ValuesIn(kGeneratedSpecs),
                         [](const auto& info) { return info.param.name(); });

INSTANTIATE_TEST_SUITE_P(Specs, CompiledBySpec,
                         ::testing::Values(BasisSpec{1, 1, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity}),
                         [](const auto& info) { return info.param.name(); });

}  // namespace
}  // namespace vdg
