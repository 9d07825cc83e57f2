// Moment updater tests: the exact velocity-space reductions (density,
// momentum/current, energy) of projected Maxwellians against closed forms.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "app/projection.hpp"
#include "dg/moments.hpp"

namespace vdg {
namespace {

struct MaxwellianCase {
  double n, ux, uy, vt;
};

class MomentsOfMaxwellian : public ::testing::TestWithParam<MaxwellianCase> {};

TEST_P(MomentsOfMaxwellian, IntegralsMatchClosedForm1x2v) {
  const auto [n0, ux, uy, vt] = GetParam();
  const BasisSpec spec{1, 2, 2, BasisFamily::Serendipity};
  // Velocity extents wide enough (>= 6 sigma past the drift) that the
  // Maxwellian tail truncation is below the test tolerances.
  const Grid conf = Grid::make({4}, {0.0}, {1.0});
  const Grid vel = Grid::make({28, 28}, {-14.0, -14.0}, {14.0, 14.0});
  const Grid pg = Grid::phase(conf, vel);
  const Basis& b = basisFor(spec);
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg,
      [&](const double* z) {
        const double dvx = z[1] - ux, dvy = z[2] - uy;
        return n0 / (2.0 * std::numbers::pi * vt * vt) *
               std::exp(-0.5 * (dvx * dvx + dvy * dvy) / (vt * vt));
      },
      f, 5);

  const MomentUpdater mom(spec, pg);
  const Grid cg = mom.confGrid();
  const int npc = mom.numConfModes();
  Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc);
  mom.compute(f, &m0, &m1, &m2);

  // Tolerances are set by how well the projected DG expansion represents
  // the Maxwellian at this resolution (1 cell per ~sigma in the narrowest
  // case), not by the moment tapes, which are exact.
  const Basis& cb = basisFor(spec.configSpec());
  const double vol = 1.0;  // conf domain volume
  EXPECT_NEAR(integrateDomain(cb, cg, m0), n0 * vol, 2e-5 * n0);
  EXPECT_NEAR(integrateDomain(cb, cg, m1, 0), n0 * ux * vol, 2e-5 * n0 * std::max(1.0, std::abs(ux)));
  EXPECT_NEAR(integrateDomain(cb, cg, m1, 1), n0 * uy * vol, 2e-5 * n0 * std::max(1.0, std::abs(uy)));
  EXPECT_NEAR(integrateDomain(cb, cg, m1, 2), 0.0, 1e-10);
  const double m2Exact = n0 * (ux * ux + uy * uy + 2.0 * vt * vt) * vol;
  EXPECT_NEAR(integrateDomain(cb, cg, m2), m2Exact, 2e-4 * std::max(1.0, m2Exact));
}

INSTANTIATE_TEST_SUITE_P(Cases, MomentsOfMaxwellian,
                         ::testing::Values(MaxwellianCase{1.0, 0.0, 0.0, 1.0},
                                           MaxwellianCase{2.5, 1.0, -0.5, 0.8},
                                           MaxwellianCase{0.3, -2.0, 0.0, 1.5},
                                           MaxwellianCase{1.0, 0.0, 3.0, 0.5}));

TEST(Moments, CurrentAccumulatesOverSpecies) {
  // Two drifting species with opposite charges: J = q1 n1 u1 + q2 n2 u2.
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid conf = Grid::make({4}, {0.0}, {1.0});
  const Grid vel = Grid::make({32}, {-8.0}, {8.0});
  const Grid pg = Grid::phase(conf, vel);
  const Basis& b = basisFor(spec);

  const auto maxwellian = [](double n, double u, double vt) {
    return [n, u, vt](const double* z) {
      const double dv = z[1] - u;
      return n / std::sqrt(2.0 * std::numbers::pi * vt * vt) *
             std::exp(-0.5 * dv * dv / (vt * vt));
    };
  };
  Field fe(pg, b.numModes()), fi(pg, b.numModes());
  projectOnBasis(b, pg, maxwellian(1.0, 1.5, 1.0), fe, 5);
  projectOnBasis(b, pg, maxwellian(1.0, -0.5, 0.7), fi, 5);

  const MomentUpdater mom(spec, pg);
  const Grid cg = mom.confGrid();
  Field cur(cg, 3 * mom.numConfModes());
  cur.setZero();
  mom.accumulateCurrent(fe, -1.0, cur);
  mom.accumulateCurrent(fi, +1.0, cur);

  const Basis& cb = basisFor(spec.configSpec());
  // J_x = (-1)(1.0)(1.5) + (+1)(1.0)(-0.5) = -2.0 over unit volume.
  EXPECT_NEAR(integrateDomain(cb, cg, cur, 0), -2.0, 1e-7);
  EXPECT_NEAR(integrateDomain(cb, cg, cur, 1), 0.0, 1e-12);
}

TEST(PrimitiveMoments, WeakDivisionRecoversProjectedMaxwellian) {
  // For a projected Maxwellian with x-uniform (n, u, vth^2) the discrete
  // moments are exact constants (p2 contains |v|^2; the tail truncation at
  // 8 sigma is ~e^-32), so weak division must return the drift and thermal
  // speed to machine precision — including every non-constant mode, which
  // must vanish identically.
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid pg = Grid::phase(Grid::make({4}, {0.0}, {1.0}), Grid::make({32}, {-9.0}, {11.0}));
  const Basis& b = basisFor(spec);
  const double n0 = 2.5, u0 = 1.0, vt2 = 1.44;
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg,
      [&](const double* z) {
        const double dv = z[1] - u0;
        return n0 / std::sqrt(2.0 * std::numbers::pi * vt2) * std::exp(-0.5 * dv * dv / vt2);
      },
      f, 6);

  const MomentUpdater mom(spec, pg);
  const Grid cg = mom.confGrid();
  const int npc = mom.numConfModes();
  Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc);
  mom.compute(f, &m0, &m1, &m2);

  const PrimitiveMoments prim(spec.configSpec(), 1);
  Field u(cg, npc), vtSq(cg, npc);
  prim.compute(m0, m1, m2, u, vtSq);

  const double c0 = std::sqrt(2.0);  // constant-expansion coefficient in 1x
  forEachCell(cg, [&](const MultiIndex& idx) {
    EXPECT_NEAR(u.at(idx)[0], u0 * c0, 1e-12);
    EXPECT_NEAR(vtSq.at(idx)[0], vt2 * c0, 1e-12);
    for (int k = 1; k < npc; ++k) {
      EXPECT_NEAR(u.at(idx)[k], 0.0, 1e-12);
      EXPECT_NEAR(vtSq.at(idx)[k], 0.0, 1e-12);
    }
  });
}

TEST(PrimitiveMoments, FloorsPinnedOnNearVacuumAndColdCells) {
  // Regression-pin the limiter behavior documented in dg/moments.hpp: a
  // below-floor density gets the BGK vacuum convention (u = 0, vth^2 = 1);
  // a healthy density whose divided vth^2 collapses gets the constant
  // kVtSqFloor expansion.
  const BasisSpec conf{1, 0, 2, BasisFamily::Serendipity};
  const Grid cg = Grid::make({2}, {0.0}, {1.0});
  const Basis& cb = basisFor(conf);
  const int npc = cb.numModes();
  const double c0 = std::sqrt(2.0);
  const PrimitiveMoments prim(conf, 1);
  Field m0(cg, npc), m1(cg, 3 * npc), m2(cg, npc), u(cg, npc), vtSq(cg, npc);

  // Near-vacuum: nAvg = 1e-13 <= kDensityFloor.
  m0.setZero();
  m1.setZero();
  m2.setZero();
  forEachCell(cg, [&](const MultiIndex& idx) {
    m0.at(idx)[0] = 1e-13 * c0;
    m1.at(idx)[0] = 5.0 * c0;  // junk momentum must not produce a drift
  });
  prim.compute(m0, m1, m2, u, vtSq);
  forEachCell(cg, [&](const MultiIndex& idx) {
    for (int k = 0; k < npc; ++k) EXPECT_EQ(u.at(idx)[k], 0.0);
    EXPECT_DOUBLE_EQ(vtSq.at(idx)[0], 1.0 * c0);
    for (int k = 1; k < npc; ++k) EXPECT_EQ(vtSq.at(idx)[k], 0.0);
  });

  // Cold cell: n = 1, u = 0, M2 ~ 0 => divided vth^2 below the floor.
  forEachCell(cg, [&](const MultiIndex& idx) {
    m0.at(idx)[0] = 1.0 * c0;
    m1.at(idx)[0] = 0.0;
    m2.at(idx)[0] = 1e-20 * c0;
  });
  prim.compute(m0, m1, m2, u, vtSq);
  forEachCell(cg, [&](const MultiIndex& idx) {
    EXPECT_DOUBLE_EQ(vtSq.at(idx)[0], PrimitiveMoments::kVtSqFloor * c0);
    for (int k = 1; k < npc; ++k) EXPECT_EQ(vtSq.at(idx)[k], 0.0);
  });
}

TEST(Moments, UniformDensityHasFlatModes) {
  // A spatially uniform distribution must produce a density with zero
  // non-constant configuration modes.
  const BasisSpec spec{1, 1, 2, BasisFamily::Serendipity};
  const Grid conf = Grid::make({6}, {0.0}, {1.0});
  const Grid vel = Grid::make({16}, {-6.0}, {6.0});
  const Grid pg = Grid::phase(conf, vel);
  const Basis& b = basisFor(spec);
  Field f(pg, b.numModes());
  projectOnBasis(
      b, pg, [](const double* z) { return std::exp(-0.5 * z[1] * z[1]); }, f);
  const MomentUpdater mom(spec, pg);
  Field m0(mom.confGrid(), mom.numConfModes());
  mom.compute(f, &m0, nullptr, nullptr);
  forEachCell(mom.confGrid(), [&](const MultiIndex& idx) {
    for (int l = 1; l < mom.numConfModes(); ++l) EXPECT_NEAR(m0.at(idx)[l], 0.0, 1e-13);
  });
}

TEST(Moments, ConfMode0IsBitwiseComputeMode0) {
  // The one-cell mode-0 reduction the BGK pass uses must reproduce the
  // full-field moments exactly, not just to rounding.
  const struct {
    BasisSpec spec;
    Grid conf, vel;
  } cases[] = {
      {{1, 2, 2, BasisFamily::Serendipity},
       Grid::make({3}, {0.0}, {1.0}),
       Grid::make({5, 4}, {-3.0, -2.5}, {3.0, 4.0})},
      {{2, 3, 2, BasisFamily::Serendipity},
       Grid::make({2, 3}, {0.0, 0.0}, {1.0, 2.0}),
       Grid::make({3, 4, 2}, {-3.0, -2.0, -1.0}, {3.0, 3.0, 2.0})},
  };
  for (const auto& tc : cases) {
    const Grid pg = Grid::phase(tc.conf, tc.vel);
    const Basis& b = basisFor(tc.spec);
    Field f(pg, b.numModes());
    projectOnBasis(
        b, pg,
        [&](const double* z) {
          double r2 = 0.0;
          for (int j = 0; j < tc.spec.vdim; ++j) {
            const double dv = z[tc.spec.cdim + j] - 0.3;
            r2 += dv * dv;
          }
          return (1.0 + 0.4 * std::sin(5.0 * z[0])) * std::exp(-0.5 * r2);
        },
        f);
    const MomentUpdater mom(tc.spec, pg);
    const int npc = mom.numConfModes();
    Field m0(mom.confGrid(), npc), m1(mom.confGrid(), 3 * npc), m2(mom.confGrid(), npc);
    mom.compute(f, &m0, &m1, &m2);
    forEachCell(mom.confGrid(), [&](const MultiIndex& idx) {
      double c0, c1[3], c2;
      mom.confMode0(f, idx, c0, c1, c2);
      EXPECT_EQ(c0, m0.at(idx)[0]);
      for (int j = 0; j < tc.spec.vdim; ++j) EXPECT_EQ(c1[j], m1.at(idx)[j * npc]);
      EXPECT_EQ(c2, m2.at(idx)[0]);
    });
  }
}

}  // namespace
}  // namespace vdg
