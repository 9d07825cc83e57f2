// Tests of the SIMD-batched (AoSoA) kernel execution path: the batched
// kernels and the LBO block loops must reproduce the scalar path BITWISE — per
// lane they perform the same floating-point operations in the same order
// (dg/batch.hpp documents the contract), so every comparison here is
// exact equality, not a tolerance.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include "app/simulation.hpp"
#include "collisions/lbo.hpp"
#include "dg/batch.hpp"
#include "dg/vlasov.hpp"
#include "kernels/registry.hpp"

namespace vdg {
namespace {

constexpr double kPi = std::numbers::pi;

Grid phaseGridFor(const BasisSpec& spec, int nx, int nv) {
  Grid g;
  g.ndim = spec.ndim();
  for (int d = 0; d < spec.cdim; ++d) {
    g.cells[static_cast<std::size_t>(d)] = nx;
    g.lower[static_cast<std::size_t>(d)] = 0.0;
    g.upper[static_cast<std::size_t>(d)] = 2.0 * kPi;
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

std::vector<double> randomVec(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = u(rng);
  return v;
}

/// 0.0 iff every interior coefficient of a and b is (==)-identical.
double maxAbsDiff(const Field& a, const Field& b) {
  EXPECT_EQ(a.ncomp(), b.ncomp());
  double m = 0.0;
  forEachCell(a.grid(), [&](const MultiIndex& idx) {
    const double* pa = a.at(idx);
    const double* pb = b.at(idx);
    for (int l = 0; l < a.ncomp(); ++l) m = std::max(m, std::abs(pa[l] - pb[l]));
  });
  return m;
}

// ------------------------------------------------------------ pack/scatter

TEST(Batch, PackScatterRoundTrip) {
  std::mt19937 rng(11);
  for (const int B : kKernelBatchLanes) {
    const int n = 37;
    std::vector<std::vector<double>> cells;
    std::vector<const double*> src;
    for (int b = 0; b < B; ++b) {
      cells.push_back(randomVec(static_cast<std::size_t>(n), rng));
      src.push_back(cells.back().data());
    }
    BatchBuffer blk(static_cast<std::size_t>(n) * B);
    packLanes(B, n, src.data(), blk.data());
    // AoSoA layout: element i of lane b at [i*B + b].
    for (int i = 0; i < n; ++i)
      for (int b = 0; b < B; ++b)
        ASSERT_EQ(blk[static_cast<std::size_t>(i * B + b)],
                  cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)]);

    std::vector<std::vector<double>> out(static_cast<std::size_t>(B),
                                         std::vector<double>(static_cast<std::size_t>(n), 7.0));
    std::vector<double*> dst;
    for (auto& o : out) dst.push_back(o.data());
    scatterLanes(B, n, blk.data(), dst.data());
    for (int b = 0; b < B; ++b)
      ASSERT_EQ(out[static_cast<std::size_t>(b)], cells[static_cast<std::size_t>(b)]);

    // scatterAddLanes adds on top (7.0 sentinel checks the overwrite above).
    scatterAddLanes(B, n, blk.data(), dst.data());
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < n; ++i)
        ASSERT_EQ(out[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)],
                  cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)] +
                      cells[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)]);

    zeroLanes(B, n, blk.data());
    for (const double x : blk) ASSERT_EQ(x, 0.0);
  }
}

// ------------------------------------------------- registry capabilities

TEST(Batch, RegistryOffersBatchedSetsForEveryGeneratedSpec) {
  for (const std::string& name : listCompiledKernelSpecs()) {
    if (name == "0x0v_p0_test") continue;  // fake entry other tests register
    const VlasovCompiledKernels* ck = findCompiledKernels(name);
    ASSERT_NE(ck, nullptr) << name;
    // Every generated spec carries a batched sibling for each lane count.
    const int cdim = name[0] - '0';
    const int vdim = name[2] - '0';
    for (const int lanes : kKernelBatchLanes)
      EXPECT_NE(ck->findBatched(lanes, cdim, vdim), nullptr) << name << " B=" << lanes;
    EXPECT_EQ(ck->maxBatchLanes(cdim, vdim), 8) << name;
  }
}

TEST(Batch, DescribeCompiledKernelSpecsReportsLaneCounts) {
  const std::vector<std::string> lines = describeCompiledKernelSpecs();
  bool found = false;
  for (const std::string& line : lines)
    if (line.find("2x3v_p2_ser") == 0) {
      found = true;
      EXPECT_NE(line.find("112 modes"), std::string::npos) << line;
      EXPECT_NE(line.find("batch lanes {4,8}"), std::string::npos) << line;
    }
  EXPECT_TRUE(found);
  // The plain spec listing stays pure names (consumers parse it).
  for (const std::string& name : listCompiledKernelSpecs())
    EXPECT_EQ(name.find(' '), std::string::npos) << name;
}

// ------------------------------------- kernel-level identity, every spec

class BatchedBySpec : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(BatchedBySpec, KernelsMatchScalarBitwise) {
  const BasisSpec spec = GetParam();
  const int cdim = spec.cdim, vdim = spec.vdim, ndim = spec.ndim();
  const int np = basisFor(spec).numModes();
  const VlasovCompiledKernels* ck = findCompiledKernels(spec.name());
  ASSERT_NE(ck, nullptr);

  std::mt19937 rng(101);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::uniform_real_distribution<double> ud(0.2, 1.8);
  std::vector<double> dxv(static_cast<std::size_t>(ndim));
  for (double& x : dxv) x = ud(rng);

  for (const int B : kKernelBatchLanes) {
    const VlasovBatchedKernels* bk = ck->findBatched(B, cdim, vdim);
    ASSERT_NE(bk, nullptr) << spec.name() << " B=" << B;

    // Per-lane random inputs.
    std::vector<std::vector<double>> w, f, g, alpha, beta;
    std::vector<const double*> wp, fp, gp, ap, bp;
    for (int b = 0; b < B; ++b) {
      w.push_back(randomVec(static_cast<std::size_t>(ndim), rng));
      f.push_back(randomVec(static_cast<std::size_t>(np), rng));
      g.push_back(randomVec(static_cast<std::size_t>(np), rng));
      alpha.push_back(randomVec(static_cast<std::size_t>(vdim) * np, rng));
      beta.push_back(randomVec(static_cast<std::size_t>(vdim) * np, rng));
      wp.push_back(w.back().data());
      fp.push_back(f.back().data());
      gp.push_back(g.back().data());
      ap.push_back(alpha.back().data());
      bp.push_back(beta.back().data());
    }
    BatchBuffer wBlk(static_cast<std::size_t>(ndim) * B), fBlk(static_cast<std::size_t>(np) * B),
        gBlk(static_cast<std::size_t>(np) * B), aBlk(static_cast<std::size_t>(vdim) * np * B),
        o1Blk(static_cast<std::size_t>(np) * B), o2Blk(static_cast<std::size_t>(np) * B);
    packLanes(B, ndim, wp.data(), wBlk.data());
    packLanes(B, np, fp.data(), fBlk.data());
    packLanes(B, np, gp.data(), gBlk.data());
    packLanes(B, vdim * np, ap.data(), aBlk.data());

    std::vector<std::vector<double>> outS(static_cast<std::size_t>(B)),
        out2S(static_cast<std::size_t>(B));

    const auto expectLanesEqual = [&](const BatchBuffer& blk,
                                      const std::vector<std::vector<double>>& ref,
                                      const char* what) {
      for (int b = 0; b < B; ++b)
        for (int i = 0; i < np; ++i)
          ASSERT_EQ(blk[static_cast<std::size_t>(i * B + b)],
                    ref[static_cast<std::size_t>(b)][static_cast<std::size_t>(i)])
              << spec.name() << " " << what << " B=" << B << " lane=" << b << " mode=" << i;
    };

    // Volume streaming.
    for (int b = 0; b < B; ++b) {
      outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
      ck->streamVol(wp[static_cast<std::size_t>(b)], dxv.data(), fp[static_cast<std::size_t>(b)],
                    outS[static_cast<std::size_t>(b)].data());
    }
    zeroLanes(B, np, o1Blk.data());
    bk->streamVol(wBlk.data(), dxv.data(), fBlk.data(), o1Blk.data());
    expectLanesEqual(o1Blk, outS, "stream_vol");

    // Volume acceleration.
    for (int b = 0; b < B; ++b) {
      outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
      ck->accelVol(dxv.data(), ap[static_cast<std::size_t>(b)], fp[static_cast<std::size_t>(b)],
                   outS[static_cast<std::size_t>(b)].data());
    }
    zeroLanes(B, np, o1Blk.data());
    bk->accelVol(dxv.data(), aBlk.data(), fBlk.data(), o1Blk.data());
    expectLanesEqual(o1Blk, outS, "accel_vol");

    // Surface streaming, every configuration direction.
    for (int d = 0; d < cdim; ++d) {
      for (int b = 0; b < B; ++b) {
        outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        out2S[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        ck->streamSurf[d](wp[static_cast<std::size_t>(b)], dxv.data(),
                          fp[static_cast<std::size_t>(b)], gp[static_cast<std::size_t>(b)],
                          outS[static_cast<std::size_t>(b)].data(),
                          out2S[static_cast<std::size_t>(b)].data());
      }
      zeroLanes(B, np, o1Blk.data());
      zeroLanes(B, np, o2Blk.data());
      bk->streamSurf[d](wBlk.data(), dxv.data(), fBlk.data(), gBlk.data(), o1Blk.data(),
                        o2Blk.data());
      expectLanesEqual(o1Blk, outS, "stream_surf outl");
      expectLanesEqual(o2Blk, out2S, "stream_surf outr");
    }

    // Surface acceleration, every velocity direction.
    BatchBuffer alBlk(static_cast<std::size_t>(np) * B), arBlk(static_cast<std::size_t>(np) * B);
    for (int j = 0; j < vdim; ++j) {
      const int off = j * np;
      std::vector<const double*> alp, arp;
      for (int b = 0; b < B; ++b) {
        alp.push_back(ap[static_cast<std::size_t>(b)] + off);
        arp.push_back(bp[static_cast<std::size_t>(b)] + off);
      }
      packLanes(B, np, alp.data(), alBlk.data());
      packLanes(B, np, arp.data(), arBlk.data());
      for (int b = 0; b < B; ++b) {
        outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        out2S[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        ck->accelSurf[j](dxv.data(), alp[static_cast<std::size_t>(b)],
                         arp[static_cast<std::size_t>(b)], fp[static_cast<std::size_t>(b)],
                         gp[static_cast<std::size_t>(b)],
                         outS[static_cast<std::size_t>(b)].data(),
                         out2S[static_cast<std::size_t>(b)].data());
      }
      zeroLanes(B, np, o1Blk.data());
      zeroLanes(B, np, o2Blk.data());
      bk->accelSurf[j](dxv.data(), alBlk.data(), arBlk.data(), fBlk.data(), gBlk.data(),
                       o1Blk.data(), o2Blk.data());
      expectLanesEqual(o1Blk, outS, "accel_surf outl");
      expectLanesEqual(o2Blk, out2S, "accel_surf outr");
    }

    // LBO diffusion: volume, interior faces and both zero-flux boundaries,
    // with the configuration-space vth^2 shared by every lane.
    const int npc = basisFor(spec.configSpec()).numModes();
    const std::vector<double> vtSq = randomVec(static_cast<std::size_t>(npc), rng);
    for (int b = 0; b < B; ++b) {
      outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
      ck->lbo.diffVol(dxv.data(), vtSq.data(), fp[static_cast<std::size_t>(b)],
                      outS[static_cast<std::size_t>(b)].data());
    }
    zeroLanes(B, np, o1Blk.data());
    bk->lbo.diffVol(dxv.data(), vtSq.data(), fBlk.data(), o1Blk.data());
    expectLanesEqual(o1Blk, outS, "lbo_diff_vol");
    for (int j = 0; j < vdim; ++j) {
      for (int b = 0; b < B; ++b) {
        outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        out2S[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
        ck->lbo.diffSurf[j](dxv.data(), vtSq.data(), fp[static_cast<std::size_t>(b)],
                            gp[static_cast<std::size_t>(b)],
                            outS[static_cast<std::size_t>(b)].data(),
                            out2S[static_cast<std::size_t>(b)].data());
      }
      zeroLanes(B, np, o1Blk.data());
      zeroLanes(B, np, o2Blk.data());
      bk->lbo.diffSurf[j](dxv.data(), vtSq.data(), fBlk.data(), gBlk.data(), o1Blk.data(),
                          o2Blk.data());
      expectLanesEqual(o1Blk, outS, "lbo_diff_surf outl");
      expectLanesEqual(o2Blk, out2S, "lbo_diff_surf outr");
      for (int side = 0; side < 2; ++side) {
        for (int b = 0; b < B; ++b) {
          outS[static_cast<std::size_t>(b)].assign(static_cast<std::size_t>(np), 0.0);
          ck->lbo.diffBound[j][side](dxv.data(), vtSq.data(), fp[static_cast<std::size_t>(b)],
                                     outS[static_cast<std::size_t>(b)].data());
        }
        zeroLanes(B, np, o1Blk.data());
        bk->lbo.diffBound[j][side](dxv.data(), vtSq.data(), fBlk.data(), o1Blk.data());
        expectLanesEqual(o1Blk, outS, "lbo_diff_bnd");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, BatchedBySpec,
                         ::testing::Values(BasisSpec{1, 1, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 3, BasisFamily::Serendipity},
                                           BasisSpec{1, 1, 3, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{1, 2, 2, BasisFamily::Tensor},
                                           BasisSpec{1, 2, 3, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{1, 3, 1, BasisFamily::Tensor},
                                           BasisSpec{1, 3, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Tensor},
                                           BasisSpec{2, 2, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 1, BasisFamily::Tensor},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity},
                                           BasisSpec{3, 3, 1, BasisFamily::Serendipity},
                                           BasisSpec{3, 3, 1, BasisFamily::MaximalOrder}),
                         [](const auto& info) { return info.param.name(); });

// --------------------------------------- updater-level identity (Vlasov)

class VlasovBatchedUpdater : public ::testing::TestWithParam<BasisSpec> {};

TEST_P(VlasovBatchedUpdater, AdvanceMatchesScalarBitwiseWithRemainders) {
  const BasisSpec spec = GetParam();
  // Box sizes chosen so that every spec fills whole blocks at B = 4 and
  // B = 8 AND leaves a remainder (box sizes not a multiple of either),
  // exercising the batched and the scalar fall-through paths together.
  // Low-dimensional specs need more cells per dimension for that; the
  // 4-D/5-D boxes reach block size through their products (e.g. 3^3 = 27
  // velocity cells).
  const Grid pg = spec.ndim() <= 3 ? phaseGridFor(spec, 9, 13) : phaseGridFor(spec, 3, 3);
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
  VlasovUpdater up(spec, pg, params);
  ASSERT_TRUE(up.usesCompiledKernels());

  Field f = randomField(pg, np, 7);
  Field em = randomField(cg, kEmComps * npc, 9);
  for (int d = 0; d < spec.cdim; ++d) {
    f.syncPeriodic(d);
    em.syncPeriodic(d);
  }

  up.setBatchLanes(1);
  EXPECT_EQ(up.activeBatchLanes(), 1);
  Field rhsScalar(pg, np);
  const double freqScalar = up.advance(f, &em, rhsScalar);

  for (const int B : kKernelBatchLanes) {
    up.setBatchLanes(B);
    ASSERT_EQ(up.activeBatchLanes(), B) << spec.name();
    Field rhsBatched(pg, np);
    const double freqBatched = up.advance(f, &em, rhsBatched);
    EXPECT_EQ(freqBatched, freqScalar) << spec.name() << " B=" << B;
    EXPECT_EQ(maxAbsDiff(rhsBatched, rhsScalar), 0.0) << spec.name() << " B=" << B;
  }

  // Auto mode resolves to the widest registered set.
  up.setBatchLanes(0);
  EXPECT_EQ(up.activeBatchLanes(), 8);
  Field rhsAuto(pg, np);
  up.advance(f, &em, rhsAuto);
  EXPECT_EQ(maxAbsDiff(rhsAuto, rhsScalar), 0.0);

  // Free streaming (no em): volume + configuration surfaces only.
  up.setBatchLanes(1);
  Field rhsFreeS(pg, np);
  up.advance(f, nullptr, rhsFreeS);
  up.setBatchLanes(0);
  Field rhsFreeB(pg, np);
  up.advance(f, nullptr, rhsFreeB);
  EXPECT_EQ(maxAbsDiff(rhsFreeB, rhsFreeS), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Specs, VlasovBatchedUpdater,
                         ::testing::Values(BasisSpec{1, 1, 2, BasisFamily::Serendipity},
                                           BasisSpec{2, 2, 1, BasisFamily::Serendipity},
                                           BasisSpec{2, 3, 2, BasisFamily::Serendipity}),
                         [](const auto& info) { return info.param.name(); });

// ------------------------------------------ updater-level identity (LBO)

TEST(Batch, LboAdvanceMatchesScalarBitwiseWithRemainders) {
  const BasisSpec spec{1, 2, 2, BasisFamily::Serendipity};
  const Grid conf = Grid::make({3}, {0.0}, {1.0});
  // 5*3 = 15 velocity cells: one full block of 8 plus remainder (and
  // 3 blocks of 4 plus remainder).
  const Grid vel = Grid::make({5, 3}, {-5.0, -4.0}, {5.0, 4.0});
  const Grid pg = Grid::phase(conf, vel);
  const int np = basisFor(spec).numModes();

  // A strictly positive distribution keeps the weak division sane.
  Field f(pg, np);
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> u(-0.05, 0.05);
  forEachCell(pg, [&](const MultiIndex& idx) {
    double* c = f.at(idx);
    c[0] = 1.0 + u(rng);
    for (int l = 1; l < np; ++l) c[l] = u(rng);
  });

  LboUpdater lbo(spec, pg, LboParams{1.0, 2.5, true});
  ASSERT_TRUE(lbo.usesCompiledKernels());

  lbo.setBatchLanes(1);
  EXPECT_EQ(lbo.activeBatchLanes(), 1);
  Field rhsScalar(pg, np);
  rhsScalar.setZero();
  const double freqScalar = lbo.advance(f, rhsScalar);

  for (const int B : kKernelBatchLanes) {
    lbo.setBatchLanes(B);
    Field rhsBatched(pg, np);
    rhsBatched.setZero();
    const double freqBatched = lbo.advance(f, rhsBatched);
    EXPECT_EQ(freqBatched, freqScalar) << "B=" << B;
    EXPECT_EQ(maxAbsDiff(rhsBatched, rhsScalar), 0.0) << "B=" << B;
  }

  lbo.setBatchLanes(0);
  EXPECT_EQ(lbo.activeBatchLanes(), 8);
  Field rhsAuto(pg, np);
  rhsAuto.setZero();
  lbo.advance(f, rhsAuto);
  EXPECT_EQ(maxAbsDiff(rhsAuto, rhsScalar), 0.0);

  // Raw operator pieces exercise drag-only and diffusion-only routing.
  const Grid cgrid = lbo.confGrid();
  const int npc = lbo.numConfModes();
  Field uMom(cgrid, 2 * npc), vtSq(cgrid, npc);
  lbo.primitiveMoments(f, uMom, vtSq);
  for (const int lanes : {1, 8}) {
    lbo.setBatchLanes(lanes);
    Field rd(pg, np), rf(pg, np);
    rd.setZero();
    rf.setZero();
    lbo.dragTerm(f, uMom, rd);
    lbo.diffusionTerm(f, vtSq, rf);
    if (lanes == 1) {
      rhsScalar = std::move(rd);
      rhsAuto = std::move(rf);
    } else {
      EXPECT_EQ(maxAbsDiff(rd, rhsScalar), 0.0);
      EXPECT_EQ(maxAbsDiff(rf, rhsAuto), 0.0);
    }
  }
}

// ------------------------------------------- end-to-end Landau determinism

ScalarFn maxwellian1x1v(double n0, double vt, double pertAmp, double k) {
  return [=](const double* z) {
    const double x = z[0], v = z[1];
    return n0 * (1.0 + pertAmp * std::cos(k * x)) / std::sqrt(2.0 * kPi * vt * vt) *
           std::exp(-0.5 * v * v / (vt * vt));
  };
}

TEST(Batch, LandauRunBatchedMatchesScalarBitwise) {
  const double k = 0.5;
  const auto makeSim = [&](int lanes) {
    auto b = Simulation::builder();
    b.confGrid(Grid::make({8}, {0.0}, {2.0 * kPi / k}))
        .basis(2, BasisFamily::Serendipity)
        .species("elc", -1.0, 1.0, Grid::make({13}, {-6.0}, {6.0}),
                 maxwellian1x1v(1.0, 1.0, 0.05, k))
        .field(MaxwellParams{})
        .initField([=](const double* x, double* em) {
          for (int c = 0; c < 8; ++c) em[c] = 0.0;
          em[0] = -0.05 * std::sin(k * x[0]) / k;
        })
        .stepper(Stepper::SspRk3)
        .cflFrac(0.8)
        .batchLanes(lanes);
    return b.build();
  };
  Simulation scalar = makeSim(1);
  Simulation batched = makeSim(0);
  for (int i = 0; i < 5; ++i) {
    const double dtS = scalar.step();
    const double dtB = batched.step();
    ASSERT_EQ(dtS, dtB);
  }
  EXPECT_EQ(maxAbsDiff(scalar.distf(0), batched.distf(0)), 0.0);
}

}  // namespace
}  // namespace vdg
