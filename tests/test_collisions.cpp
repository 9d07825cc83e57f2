// BGK collision operator tests: density conservation by construction,
// relaxation of a non-equilibrium distribution toward a Maxwellian, a
// Maxwellian being a fixed point; the factorized projection pinned to the
// full phase-space tensor-quadrature projection (a test-only oracle) across
// dimensions, orders and basis families; the underflow fallback; and the
// allocation-free advance.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <numbers>
#include <vector>

#include "app/projection.hpp"
#include "collisions/bgk.hpp"
#include "collisions/lbo.hpp"
#include "math/gauss_legendre.hpp"
#include "par/thread_exec.hpp"

// Whole-binary operator new/delete override counting every heap allocation
// (the test_obs idiom), read around BgkUpdater::advance and
// LboUpdater::advance below.
namespace {
std::atomic<std::uint64_t> gAllocCount{0};
}  // namespace

void* operator new(std::size_t n) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vdg {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Bgk, MaxwellianIsNearFixedPoint) {
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = Grid::phase(Grid::make({4}, {0.0}, {1.0}), Grid::make({32}, {-8.0}, {8.0}));
  const Basis& b = basisFor(spec);
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg,
      [](const double* z) {
        return std::exp(-0.5 * z[1] * z[1]) / std::sqrt(2.0 * kPi);
      },
      f, 5);
  const BgkUpdater bgk(spec, pg, BgkParams{1.0, 2.0});
  Field rhs(pg, b.numModes());
  rhs.setZero();
  bgk.advance(f, rhs);
  // rhs = nu (f_M - f) must be small relative to f itself.
  double fMag = 0.0, rMag = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < b.numModes(); ++l) {
      fMag = std::max(fMag, std::abs(f.at(idx)[l]));
      rMag = std::max(rMag, std::abs(rhs.at(idx)[l]));
    }
  });
  EXPECT_LT(rMag, 2e-3 * fMag);
}

TEST(Bgk, ConservesDensityExactly) {
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = Grid::phase(Grid::make({4}, {0.0}, {1.0}), Grid::make({24}, {-8.0}, {8.0}));
  const Basis& b = basisFor(spec);
  // Strongly non-Maxwellian: two cold beams.
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg,
      [](const double* z) {
        const double v = z[1];
        const double a = std::exp(-0.5 * (v - 2.0) * (v - 2.0) / 0.25);
        const double c = std::exp(-0.5 * (v + 2.0) * (v + 2.0) / 0.25);
        return (a + c) / (2.0 * std::sqrt(2.0 * kPi * 0.25));
      },
      f, 5);
  const BgkUpdater bgk(spec, pg, BgkParams{1.0, 3.0});
  Field rhs(pg, b.numModes());
  rhs.setZero();
  bgk.advance(f, rhs);
  // The collisional density change integrates to ~0 in every config cell.
  const MomentUpdater mom(spec, pg);
  Field dm0(mom.confGrid(), mom.numConfModes());
  mom.compute(rhs, &dm0, nullptr, nullptr);
  forEachCell(mom.confGrid(), [&](const MultiIndex& idx) {
    EXPECT_NEAR(dm0.at(idx)[0], 0.0, 1e-10);
  });
}

TEST(Bgk, RelaxesBeamsTowardMaxwellian) {
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = Grid::phase(Grid::make({2}, {0.0}, {1.0}), Grid::make({32}, {-8.0}, {8.0}));
  const Basis& b = basisFor(spec);
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg,
      [](const double* z) {
        const double v = z[1];
        const double a = std::exp(-0.5 * (v - 1.5) * (v - 1.5) / 0.36);
        const double c = std::exp(-0.5 * (v + 1.5) * (v + 1.5) / 0.36);
        return (a + c) / (2.0 * std::sqrt(2.0 * kPi * 0.36));
      },
      f, 5);
  const double nu = 4.0;
  const BgkUpdater bgk(spec, pg, BgkParams{1.0, nu});

  Field fM(pg, b.numModes());
  bgk.projectMaxwellian(f, fM);
  const auto l2diff = [&](const Field& a, const Field& c) {
    double s = 0.0;
    forEachCell(pg, [&](const MultiIndex& idx) {
      for (int l = 0; l < b.numModes(); ++l) {
        const double d = a.at(idx)[l] - c.at(idx)[l];
        s += d * d;
      }
    });
    return std::sqrt(s);
  };
  const double d0 = l2diff(f, fM);

  // Forward Euler relax to t = 1 (4 collision times).
  Field rhs(pg, b.numModes());
  const double dt = 0.02;
  for (int s = 0; s < 50; ++s) {
    rhs.setZero();
    bgk.advance(f, rhs);
    f.axpy(dt, rhs);
  }
  bgk.projectMaxwellian(f, fM);
  const double d1 = l2diff(f, fM);
  EXPECT_LT(d1, 0.1 * d0);
}

// ------------------------------------------------- quadrature oracle

/// The Maxwellian projection by full phase-space tensor Gauss quadrature
/// ((p+2)^(cdim+vdim) points per cell) with the exact-M0 rescale — the
/// direct evaluation the factorized BgkUpdater path must reproduce.
void quadratureMaxwellian(const BasisSpec& spec, const Grid& pg, const Field& f, Field& out) {
  const Basis& phase = basisFor(spec);
  const int np = phase.numModes();
  const int cdim = spec.cdim, vdim = spec.vdim, nd = spec.ndim();
  const MomentUpdater mom(spec, pg);
  const int npc = mom.numConfModes();
  const Grid cg = mom.confGrid();
  Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc);
  mom.compute(f, &m0, &m1, &m2);

  const int nq1 = spec.polyOrder + 2;
  const QuadRule rule = gauss_legendre(nq1);
  int nq = 1;
  for (int d = 0; d < nd; ++d) nq *= nq1;
  std::vector<double> eta(static_cast<std::size_t>(nq) * nd), wq(static_cast<std::size_t>(nq));
  std::vector<double> basisAt(static_cast<std::size_t>(nq) * np);
  for (int q = 0; q < nq; ++q) {
    int rem = q;
    double w = 1.0;
    for (int d = 0; d < nd; ++d, rem /= nq1) {
      eta[static_cast<std::size_t>(q * nd + d)] = rule.nodes[static_cast<std::size_t>(rem % nq1)];
      w *= rule.weights[static_cast<std::size_t>(rem % nq1)];
    }
    wq[static_cast<std::size_t>(q)] = w;
    phase.evalAll(&eta[static_cast<std::size_t>(q * nd)],
                  &basisAt[static_cast<std::size_t>(q * np)]);
  }

  const double avgFac = std::pow(2.0, -0.5 * cdim);
  forEachCell(pg, [&](const MultiIndex& idx) {
    MultiIndex cidx;
    for (int d = 0; d < cdim; ++d) cidx[d] = idx[d];
    const double nAvg = m0.at(cidx)[0] * avgFac;
    double u[3] = {0.0, 0.0, 0.0}, u2 = 0.0;
    for (int j = 0; j < vdim; ++j) {
      u[j] = nAvg > 0.0 ? m1.at(cidx)[j * npc] * avgFac / nAvg : 0.0;
      u2 += u[j] * u[j];
    }
    double vt2 = nAvg > 0.0 ? (m2.at(cidx)[0] * avgFac / nAvg - u2) / vdim : 1.0;
    vt2 = std::max(vt2, 1e-14);
    const double norm = nAvg > 0.0 ? nAvg / std::pow(2.0 * kPi * vt2, 0.5 * vdim) : 0.0;
    double* oc = out.at(idx);
    for (int l = 0; l < np; ++l) oc[l] = 0.0;
    for (int q = 0; q < nq; ++q) {
      double arg = 0.0;
      for (int j = 0; j < vdim; ++j) {
        const int d = cdim + j;
        const double v =
            pg.cellCenter(d, idx[d]) + 0.5 * pg.dx(d) * eta[static_cast<std::size_t>(q * nd + d)];
        arg += (v - u[j]) * (v - u[j]);
      }
      const double val = wq[static_cast<std::size_t>(q)] * norm * std::exp(-0.5 * arg / vt2);
      for (int l = 0; l < np; ++l) oc[l] += val * basisAt[static_cast<std::size_t>(q * np + l)];
    }
  });

  Field m0M(cg, npc);
  mom.compute(out, &m0M, nullptr, nullptr);
  forEachCell(pg, [&](const MultiIndex& idx) {
    MultiIndex cidx;
    for (int d = 0; d < cdim; ++d) cidx[d] = idx[d];
    const double s = m0.at(cidx)[0] / m0M.at(cidx)[0];
    for (int l = 0; l < np; ++l) out.at(idx)[l] *= s;
  });
}

/// A small phase grid per dimensionality: uneven velocity cell counts and
/// extents, so per-dimension table offsets and cell centers all differ.
Grid caseGrid(const BasisSpec& spec) {
  Grid conf = spec.cdim == 1 ? Grid::make({3}, {0.0}, {1.0})
                             : Grid::make({3, 2}, {0.0, 0.0}, {1.0, 2.0});
  Grid vel;
  if (spec.vdim == 1) vel = Grid::make({9}, {-5.0}, {5.5});
  if (spec.vdim == 2) vel = Grid::make({6, 5}, {-5.0, -4.5}, {5.5, 4.0});
  if (spec.vdim == 3) vel = Grid::make({4, 3, 5}, {-5.0, -4.5, -4.0}, {5.5, 4.0, 4.5});
  return Grid::phase(conf, vel);
}

/// Drifting, anisotropic two-beam input whose density and drift vary in x.
double twoBeams(const BasisSpec& spec, const double* z) {
  const double x = z[0];
  const double u1[3] = {0.7 + 0.3 * std::sin(2.0 * kPi * x), -0.4, 0.2};
  const double u2[3] = {-1.2, 0.5 - 0.2 * std::cos(2.0 * kPi * x), -0.3};
  const double t1[3] = {0.64, 1.21, 0.36}, t2[3] = {0.25, 0.49, 0.81};
  double a1 = 0.0, a2 = 0.0;
  for (int j = 0; j < spec.vdim; ++j) {
    const double v = z[spec.cdim + j];
    a1 += (v - u1[j]) * (v - u1[j]) / t1[j];
    a2 += (v - u2[j]) * (v - u2[j]) / t2[j];
  }
  const double n = 1.0 + 0.3 * std::cos(2.0 * kPi * x);
  return n * (0.6 * std::exp(-0.5 * a1) + 0.4 * std::exp(-0.5 * a2));
}

class BgkFactorized : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(BgkFactorized, MatchesQuadratureOracle) {
  const BasisSpec spec = GetParam();
  const Grid pg = caseGrid(spec);
  const Basis& b = basisFor(spec);
  const int np = b.numModes();
  Field f(pg, np);
  projectOnBasis(b, pg, [&](const double* z) { return twoBeams(spec, z); }, f);

  BgkUpdater bgk(spec, pg, BgkParams{1.0, 1.7});
  bgk.setExecutor(nullptr);
  Field fM(pg, np), oracle(pg, np);
  bgk.projectMaxwellian(f, fM);
  quadratureMaxwellian(spec, pg, f, oracle);

  double maxDiff = 0.0, maxRef = 0.0;
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      maxDiff = std::max(maxDiff, std::abs(fM.at(idx)[l] - oracle.at(idx)[l]));
      maxRef = std::max(maxRef, std::abs(oracle.at(idx)[l]));
      // The Maxwellian is constant in x inside a configuration cell.
      if (b.mode(l).totalDegree(spec.cdim) != 0) ASSERT_EQ(fM.at(idx)[l], 0.0) << "mode " << l;
    }
  });
  EXPECT_GT(maxRef, 0.0);
  EXPECT_LE(maxDiff, 1e-13 * maxRef);

  // Density change exactly zero (to rounding) in every configuration cell.
  Field rhs(pg, np);
  rhs.setZero();
  bgk.advance(f, rhs);
  const MomentUpdater mom(spec, pg);
  Field m0(mom.confGrid(), mom.numConfModes()), dm0(mom.confGrid(), mom.numConfModes());
  mom.compute(f, &m0, nullptr, nullptr);
  mom.compute(rhs, &dm0, nullptr, nullptr);
  forEachCell(mom.confGrid(), [&](const MultiIndex& idx) {
    EXPECT_LE(std::abs(dm0.at(idx)[0]), 1e-13 * std::abs(m0.at(idx)[0]));
  });

  // advance is exactly nu (projectMaxwellian - f).
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l)
      ASSERT_EQ(rhs.at(idx)[l], 1.7 * (fM.at(idx)[l] - f.at(idx)[l])) << "mode " << l;
  });

  // A four-worker pool reproduces the serial passes bitwise.
  ThreadExec pool(4);
  bgk.setExecutor(&pool);
  Field fMThreaded(pg, np), rhsThreaded(pg, np);
  rhsThreaded.setZero();
  bgk.projectMaxwellian(f, fMThreaded);
  bgk.advance(f, rhsThreaded);
  forEachCell(pg, [&](const MultiIndex& idx) {
    for (int l = 0; l < np; ++l) {
      ASSERT_EQ(fMThreaded.at(idx)[l], fM.at(idx)[l]);
      ASSERT_EQ(rhsThreaded.at(idx)[l], rhs.at(idx)[l]);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Specs, BgkFactorized,
                         ::testing::Values(BasisSpec{1, 1, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::MaximalOrder},
                                           BasisSpec{1, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 2, BasisFamily::MaximalOrder},
                                           BasisSpec{1, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 3, 1, BasisFamily::MaximalOrder},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{2, 2, 1, BasisFamily::MaximalOrder},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 2, BasisFamily::Tensor},
                                           BasisSpec{2, 3, 2, BasisFamily::MaximalOrder}),
                         [](const auto& info) { return info.param.name(); });

TEST(Bgk, UnderflowedProjectionKeepsDensity) {
  // A cell with negative lobes: m2/n - u^2 < 0 floors vt^2 at 1e-14, and
  // with u off every quadrature node the Gaussian underflows to zero on
  // all of them. The density must land, whole, as mode 0 of the velocity
  // cell containing u instead of draining out of the cell.
  for (const BasisSpec spec : {BasisSpec{1, 1, 1, BasisFamily::Serendipity},
                               BasisSpec{1, 2, 2, BasisFamily::Serendipity}}) {
    const Grid vel = spec.vdim == 1 ? Grid::make({9}, {-4.5}, {4.5})
                                    : Grid::make({9, 3}, {-4.5, -1.5}, {4.5, 1.5});
    const Grid pg = Grid::phase(Grid::make({2}, {0.0}, {1.0}), vel);
    const Basis& b = basisFor(spec);
    const int np = b.numModes();
    const int l0 = b.indexOf(MultiIndex{});
    Field f(pg, np);
    f.setZero();
    MultiIndex idx;  // conf cell 0; velocity cells centered on v_0 = 0, -3, +4
    idx[1] = 4;
    idx[2] = spec.vdim == 2 ? 1 : 0;
    f.at(idx)[l0] = 1.0;
    idx[1] = 1;
    f.at(idx)[l0] = -0.05;
    idx[1] = 8;
    f.at(idx)[l0] = -0.1;
    idx[0] = 1;  // conf cell 1: a plain, resolvable block for contrast
    idx[1] = 4;
    f.at(idx)[l0] = 1.0;
    idx[1] = 5;
    f.at(idx)[l0] = 0.5;

    const BgkUpdater bgk(spec, pg, BgkParams{1.0, 1.0});
    Field fM(pg, np), rhs(pg, np);
    rhs.setZero();
    bgk.projectMaxwellian(f, fM);
    bgk.advance(f, rhs);

    // Conf cell 0: u_0 = -0.25/0.85 lies in velocity cell 4; nothing else.
    forEachCell(pg, [&](const MultiIndex& c) {
      if (c[0] != 0) return;
      const bool target = c[1] == 4 && (spec.vdim == 1 || c[2] == 1);
      for (int l = 0; l < np; ++l) {
        if (target && l == l0)
          EXPECT_GT(fM.at(c)[l], 0.0);
        else
          EXPECT_EQ(fM.at(c)[l], 0.0) << "cell " << c[1] << " mode " << l;
      }
    });

    const MomentUpdater mom(spec, pg);
    Field m0(mom.confGrid(), mom.numConfModes()), dm0(mom.confGrid(), mom.numConfModes());
    mom.compute(f, &m0, nullptr, nullptr);
    mom.compute(rhs, &dm0, nullptr, nullptr);
    forEachCell(mom.confGrid(), [&](const MultiIndex& c) {
      EXPECT_GT(m0.at(c)[0], 0.0);
      EXPECT_NEAR(dm0.at(c)[0], 0.0, 1e-13) << spec.name() << " conf cell " << c[0];
    });
  }
}

TEST(Bgk, AdvanceIsAllocationFreeAfterWarmup) {
  const BasisSpec spec{2, 2, 1, BasisFamily::Serendipity};
  const Grid pg = caseGrid(spec);
  const Basis& b = basisFor(spec);
  Field f(pg, b.numModes()), rhs(pg, b.numModes());
  projectOnBasis(b, pg, [&](const double* z) { return twoBeams(spec, z); }, f);
  rhs.setZero();
  BgkUpdater bgk(spec, pg, BgkParams{1.0, 1.0});
  bgk.setExecutor(nullptr);
  bgk.advance(f, rhs);  // warm-up: grows the per-thread scratch once
  const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
  bgk.advance(f, rhs);
  bgk.advance(f, rhs);
  EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u);
}

TEST(Lbo, AdvanceIsAllocationFreeAfterWarmup) {
  // Compiled kernels at B = 1 and at the widest lane count; the velocity
  // boxes leave remainders that take the B = 1 kernels. Serial, and
  // through a one-thread pool (which takes the job as a std::function).
  ThreadExec pool(1);
  const std::array<ThreadExec*, 2> execs = {nullptr, &pool};
  const std::array<BasisSpec, 3> specs = {BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                          BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                          BasisSpec{1, 3, 1, BasisFamily::Serendipity}};
  for (ThreadExec* exec : execs) {
    for (const BasisSpec& spec : specs) {
      const Grid pg = caseGrid(spec);
      const Basis& b = basisFor(spec);
      Field f(pg, b.numModes()), rhs(pg, b.numModes());
      projectOnBasis(b, pg, [&](const double* z) { return twoBeams(spec, z); }, f);
      rhs.setZero();
      LboUpdater lbo(spec, pg, LboParams{1.0, 1.0, true});
      lbo.setExecutor(exec);
      ASSERT_TRUE(lbo.usesCompiledKernels()) << spec.name();
      for (const int lanes : {1, 0}) {
        lbo.setBatchLanes(lanes);
        lbo.advance(f, rhs);  // warm-up: grows the per-thread scratch once
        const std::uint64_t before = gAllocCount.load(std::memory_order_relaxed);
        lbo.advance(f, rhs);
        lbo.advance(f, rhs);
        EXPECT_EQ(gAllocCount.load(std::memory_order_relaxed) - before, 0u)
            << spec.name() << " lanes=" << lbo.activeBatchLanes() << " pool=" << (exec != nullptr);
      }
    }
  }
}

}  // namespace
}  // namespace vdg
