// A3 — ablation of the code-generation step (the paper's Section IV
// software methodology): executing the exactly-integrated tensors through
// pre-generated, fully unrolled, constant-folded C++ kernels (Gkeyll's
// Maxima workflow; kernels/gen/ here) versus interpreting the same sparse
// tapes at runtime. Both produce identical right-hand sides (tested in
// test_kernels); the difference is pure code-generation payoff — the
// "compiler can aggressively optimize the expressions" argument of Sec. II.

#include <chrono>
#include <cstdio>
#include <random>

#include "dg/vlasov.hpp"

namespace {
using namespace vdg;
using Clock = std::chrono::steady_clock;

double timePerCell(const VlasovUpdater& up, const Field& f, const Field* em, Field& rhs,
                   std::size_t cells) {
  up.advance(f, em, rhs);
  const auto t0 = Clock::now();
  int reps = 0;
  double el = 0.0;
  while (el < 0.3 && reps < 50) {
    up.advance(f, em, rhs);
    ++reps;
    el = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  return el / reps / static_cast<double>(cells) * 1e6;  // us per cell
}
}  // namespace

int main() {
  std::printf("A3: generated+compiled kernels vs runtime tape interpretation\n");
  std::printf("    (gen = generated kernels at B=1; batched = widest AoSoA lane count)\n\n");
  std::printf("%-14s %6s %14s %14s %15s %9s %9s\n", "basis", "Np", "tape[us/cell]",
              "gen[us/cell]", "batch[us/cell]", "gen/tape", "bat/gen");

  const BasisSpec specs[] = {
      {1, 1, 2, BasisFamily::Serendipity}, {1, 2, 2, BasisFamily::Serendipity},
      {2, 2, 1, BasisFamily::Serendipity}, {2, 2, 2, BasisFamily::Serendipity},
      {2, 3, 1, BasisFamily::Serendipity}, {2, 3, 2, BasisFamily::Serendipity},
  };
  for (const BasisSpec& spec : specs) {
    Grid g;
    g.ndim = spec.ndim();
    for (int d = 0; d < g.ndim; ++d) {
      g.cells[static_cast<std::size_t>(d)] = spec.ndim() >= 5 ? 3 : 4;
      g.lower[static_cast<std::size_t>(d)] = d < spec.cdim ? 0.0 : -4.0;
      g.upper[static_cast<std::size_t>(d)] = d < spec.cdim ? 6.28 : 4.0;
    }
    const int np = basisFor(spec).numModes();
    const int npc = basisFor(spec.configSpec()).numModes();
    Grid cg;
    cg.ndim = spec.cdim;
    for (int d = 0; d < spec.cdim; ++d) {
      cg.cells[static_cast<std::size_t>(d)] = g.cells[static_cast<std::size_t>(d)];
      cg.lower[static_cast<std::size_t>(d)] = g.lower[static_cast<std::size_t>(d)];
      cg.upper[static_cast<std::size_t>(d)] = g.upper[static_cast<std::size_t>(d)];
    }

    VlasovParams params;
    VlasovUpdater fast(spec, g, params);
    VlasovUpdater slow(spec, g, params);
    slow.disableCompiledKernels();
    // Single-core ablation: pin both variants serial so the pool cannot
    // mask the codegen speedup being measured.
    fast.setExecutor(nullptr);
    slow.setExecutor(nullptr);
    if (!fast.usesCompiledKernels()) {
      std::printf("%-14s %6d %14s %14s %15s %9s %9s\n", spec.name().c_str(), np, "-", "-", "-",
                  "(no gen)", "-");
      continue;
    }

    std::mt19937 rng(1);
    std::uniform_real_distribution<double> u(-1.0, 1.0);
    Field f(g, np), em(cg, kEmComps * npc), rhs(g, np);
    forEachCell(g, [&](const MultiIndex& idx) {
      for (int l = 0; l < np; ++l) f.at(idx)[l] = u(rng);
    });
    forEachCell(cg, [&](const MultiIndex& idx) {
      for (int k = 0; k < em.ncomp(); ++k) em.at(idx)[k] = u(rng);
    });
    for (int d = 0; d < spec.cdim; ++d) {
      f.syncPeriodic(d);
      em.syncPeriodic(d);
    }

    const double tTape = timePerCell(slow, f, &em, rhs, g.numCells());
    fast.setBatchLanes(1);
    const double tGen = timePerCell(fast, f, &em, rhs, g.numCells());
    fast.setBatchLanes(0);
    const double tBatch = timePerCell(fast, f, &em, rhs, g.numCells());
    std::printf("%-14s %6d %14.2f %14.2f %15.2f %9.1f %9.2f\n", spec.name().c_str(), np, tTape,
                tGen, tBatch, tTape / tGen, tGen / tBatch);
  }
  std::printf("\nThe generated kernels are the deployment form of the paper (Fig. 1);\n"
              "tape interpretation is the fallback for unregistered bases. The batched\n"
              "column blocks cells into AoSoA lanes (bitwise identical results).\n");
  return 0;
}
