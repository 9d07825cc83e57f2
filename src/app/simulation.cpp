#include "app/simulation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "app/updaters.hpp"
#include "obs/trace.hpp"
#include "par/communicator.hpp"
#include "par/thread_exec.hpp"

namespace vdg {

Simulation::~Simulation() { flushProfilerOutput(); }

void Simulation::flushProfilerOutput() noexcept {
  // Owned output only: a shared profiler's files belong to whoever created
  // it (DistributedSimulation writes one merged trace; the Ensemble one
  // campaign trace). A moved-from Simulation has a null profiler_, so the
  // files are written exactly once.
  if (!profiler_ || !ownsProfilerOutput_) return;
  ownsProfilerOutput_ = false;
  try {
    const ProfilingSpec& s = profiler_->spec();
    if (!s.tracePath.empty()) writeChromeTrace(s.tracePath, *profiler_);
    if (!s.reportPath.empty()) profiler_->writeReportJson(s.reportPath);
    // Zones on but no file asked for (VDG_PROFILE=1): the human-readable
    // table is the output — stderr, so stdout stays byte-comparable.
    if (s.enabled && s.tracePath.empty() && s.reportPath.empty())
      std::fputs(profiler_->table().c_str(), stderr);
  } catch (...) {
    // Destructor context: a failed diagnostic write must not terminate.
  }
}
Simulation::Simulation(Simulation&&) noexcept = default;
Simulation& Simulation::operator=(Simulation&&) noexcept = default;

// ---------------------------------------------------------------- Builder

Simulation::Builder Simulation::builder() { return Builder{}; }

Simulation::Builder& Simulation::Builder::confGrid(const Grid& g) {
  confGrid_ = g;
  haveConfGrid_ = true;
  return *this;
}

Simulation::Builder& Simulation::Builder::basis(int polyOrder, BasisFamily family) {
  polyOrder_ = polyOrder;
  family_ = family;
  return *this;
}

Simulation::Builder& Simulation::Builder::species(SpeciesConfig cfg) {
  if (cfg.name.empty() || cfg.name == StateVector::kEmSlot)
    throw std::invalid_argument("Simulation::Builder: invalid species name '" + cfg.name + "'");
  for (const SpeciesConfig& sp : species_)
    if (sp.name == cfg.name)
      throw std::invalid_argument("Simulation::Builder: duplicate species '" + cfg.name + "'");
  species_.push_back(std::move(cfg));
  return *this;
}

Simulation::Builder& Simulation::Builder::species(std::string name, double charge, double mass,
                                                  const Grid& velGrid, ScalarFn init,
                                                  FluxType flux) {
  SpeciesConfig cfg;
  cfg.name = std::move(name);
  cfg.charge = charge;
  cfg.mass = mass;
  cfg.velGrid = velGrid;
  cfg.init = std::move(init);
  cfg.flux = flux;
  return species(std::move(cfg));
}

Simulation::Builder& Simulation::Builder::collisions(const BgkParams& p) {
  if (species_.empty())
    throw std::logic_error("Simulation::Builder::collisions: declare a species first");
  species_.back().collisions = p;
  return *this;
}

Simulation::Builder& Simulation::Builder::collisions(const LboParams& p) {
  if (species_.empty())
    throw std::logic_error("Simulation::Builder::collisions: declare a species first");
  species_.back().lboCollisions = p;
  return *this;
}

Simulation::Builder& Simulation::Builder::field(const MaxwellParams& p) {
  fieldParams_ = p;
  poissonField_ = false;
  return *this;
}

Simulation::Builder& Simulation::Builder::field(const PoissonParams& p) {
  poissonParams_ = p;
  poissonField_ = true;
  return *this;
}

Simulation::Builder& Simulation::Builder::poissonSolver(
    std::shared_ptr<const PoissonSolver> solver) {
  providedPoisson_ = std::move(solver);
  return *this;
}

Simulation::Builder& Simulation::Builder::boundary(int dim, Edge edge, BcSpec spec) {
  if (dim < 0 || dim >= kMaxDim)
    throw std::invalid_argument("Simulation::Builder::boundary: dimension out of range");
  bcFaces_[static_cast<std::size_t>(dim)][static_cast<std::size_t>(edge)].all = spec;
  return *this;
}

Simulation::Builder& Simulation::Builder::boundary(const std::string& species, int dim,
                                                   Edge edge, BcSpec spec) {
  if (dim < 0 || dim >= kMaxDim)
    throw std::invalid_argument("Simulation::Builder::boundary: dimension out of range");
  bcFaces_[static_cast<std::size_t>(dim)][static_cast<std::size_t>(edge)]
      .perSpecies[species] = spec;
  return *this;
}

Simulation::Builder& Simulation::Builder::fieldBoundary(int dim, Edge edge, BcSpec spec) {
  if (dim < 0 || dim >= kMaxDim)
    throw std::invalid_argument("Simulation::Builder::fieldBoundary: dimension out of range");
  bcFaces_[static_cast<std::size_t>(dim)][static_cast<std::size_t>(edge)].field = spec;
  return *this;
}

std::array<bool, kMaxDim> Simulation::Builder::periodicDims() const {
  std::array<bool, kMaxDim> p{};
  p.fill(true);
  const auto physical = [](const BcSpec& s) { return s.kind != BcKind::Periodic; };
  for (int d = 0; d < kMaxDim; ++d) {
    for (int e = 0; e < 2; ++e) {
      const FaceSpec& fs = bcFaces_[static_cast<std::size_t>(d)][static_cast<std::size_t>(e)];
      bool wall = (fs.all && physical(*fs.all)) || (fs.field && physical(*fs.field));
      for (const auto& [name, spec] : fs.perSpecies) wall = wall || physical(spec);
      if (wall) p[static_cast<std::size_t>(d)] = false;
    }
  }
  return p;
}

Simulation::Builder& Simulation::Builder::evolveField(bool on) {
  evolveField_ = on;
  return *this;
}

Simulation::Builder& Simulation::Builder::initField(VectorFn fn) {
  initField_ = std::move(fn);
  return *this;
}

Simulation::Builder& Simulation::Builder::backgroundCharge(double rho) {
  backgroundCharge_ = rho;
  return *this;
}

Simulation::Builder& Simulation::Builder::stepper(Stepper s) {
  stepper_ = s;
  return *this;
}

Simulation::Builder& Simulation::Builder::cflFrac(double frac) {
  cflFrac_ = frac;
  return *this;
}

Simulation::Builder& Simulation::Builder::threads(int n) {
  if (n < 0) throw std::invalid_argument("Simulation::Builder::threads: count must be >= 0");
  threads_ = n;
  return *this;
}

Simulation::Builder& Simulation::Builder::batchLanes(int lanes) {
  if (lanes < 0)
    throw std::invalid_argument("Simulation::Builder::batchLanes: count must be >= 0");
  batchLanes_ = lanes;
  return *this;
}

Simulation::Builder& Simulation::Builder::communicator(Communicator* comm) {
  comm_ = comm;
  return *this;
}

Simulation::Builder& Simulation::Builder::overlapHalo(bool on) {
  overlapHalo_ = on;
  return *this;
}

Simulation::Builder& Simulation::Builder::profiling(ProfilingSpec spec) {
  profSpec_ = std::move(spec);
  profilingSet_ = true;
  return *this;
}

Simulation::Builder& Simulation::Builder::profiler(std::shared_ptr<Profiler> p) {
  sharedProfiler_ = std::move(p);
  return *this;
}

ProfilingSpec Simulation::Builder::resolvedProfilingSpec() const {
  return profilingSet_ ? profSpec_ : ProfilingSpec::fromEnv();
}

const Grid& Simulation::Builder::confGrid() const {
  if (!haveConfGrid_)
    throw std::logic_error("Simulation::Builder::confGrid: no grid configured yet");
  return confGrid_;
}

Simulation Simulation::Builder::build() {
  if (!haveConfGrid_)
    throw std::logic_error("Simulation::Builder: confGrid(...) is required");
  if (species_.empty())
    throw std::logic_error("Simulation::Builder: at least one species is required");

  Simulation sim;
  sim.confGrid_ = confGrid_;
  sim.polyOrder_ = polyOrder_;
  sim.cflFrac_ = cflFrac_;
  sim.stepper_ = stepper_;
  sim.fieldParams_ = fieldParams_;
  // The electrostatic path reuses the Maxwell parameter block for the
  // energetics diagnostics; keep the one physical constant they share in
  // sync so electricEnergy uses the Poisson eps0.
  if (poissonField_) sim.fieldParams_.epsilon0 = poissonParams_.epsilon0;
  sim.species_ = species_;  // copy: the builder stays reusable for variants
  sim.comm_ = comm_ ? comm_ : &SerialComm::instance();

  ThreadExec* exec = &ThreadExec::global();
  if (threads_ > 0) {
    sim.ownedExec_ = std::make_unique<ThreadExec>(threads_);
    exec = sim.ownedExec_.get();
  }

  // --- instrumentation. A shared profiler (distributed rank / ensemble
  // campaign) wins; else an active spec — explicit or from the
  // environment — makes this simulation construct and own one.
  if (sharedProfiler_) {
    sim.profiler_ = sharedProfiler_;
  } else if (ProfilingSpec ps = resolvedProfilingSpec(); ps.active()) {
    sim.profiler_ = std::make_shared<Profiler>(std::move(ps), sim.comm_->rank());
    sim.ownsProfilerOutput_ = true;
  }
  if (sim.profiler_) {
    // Never instrument the shared SerialComm singleton: it is stateless by
    // contract and used concurrently by packed ensemble members. (It has
    // no halo phases to zone anyway.) The owned thread pool is safe — it
    // cannot outlive the profiler; the process-global pool could, so it
    // stays untouched.
    if (sim.comm_ != &SerialComm::instance()) sim.comm_->setProfiler(sim.profiler_.get());
    if (sim.ownedExec_) sim.ownedExec_->setProfiler(sim.profiler_.get());
  }

  const int cdim = confGrid_.ndim;
  const BasisSpec confSpec{cdim, 0, polyOrder_, family_};
  sim.maxwell_ = std::make_unique<MaxwellUpdater>(confSpec, confGrid_, fieldParams_);
  const int npc = sim.maxwell_->numModes();

  // --- state slots: one per species (in declaration order), then "em".
  for (const SpeciesConfig& sp : sim.species_) {
    if (!sp.init)
      throw std::invalid_argument("SpeciesConfig '" + sp.name + "': init function is required");
    const BasisSpec spec{cdim, sp.velGrid.ndim, polyOrder_, family_};
    const Grid pg = Grid::phase(confGrid_, sp.velGrid);
    sim.phaseGrids_.push_back(pg);

    VlasovParams vp;
    vp.charge = sp.charge;
    vp.mass = sp.mass;
    vp.flux = sp.flux;
    auto vlasov = std::make_unique<VlasovUpdater>(spec, pg, vp);
    vlasov->setExecutor(exec);
    vlasov->setBatchLanes(batchLanes_);
    sim.vlasov_.push_back(std::move(vlasov));
    sim.mom_.push_back(std::make_unique<MomentUpdater>(spec, pg));
    if (sp.collisions) {
      // The operator's mass is the species mass by definition; override
      // whatever the caller put in BgkParams::mass so the two can't drift.
      BgkParams bp = *sp.collisions;
      bp.mass = sp.mass;
      auto bgk = std::make_unique<BgkUpdater>(spec, pg, bp);
      bgk->setExecutor(exec);
      sim.bgk_.push_back(std::move(bgk));
    } else {
      sim.bgk_.push_back(nullptr);
    }
    if (sp.lboCollisions) {
      // Same mass rule as BGK: the species mass wins (LboUpdater uses it
      // to convert vth^2 to the temperature T = m vth^2).
      LboParams lp = *sp.lboCollisions;
      lp.mass = sp.mass;
      auto lbo = std::make_unique<LboUpdater>(spec, pg, lp);
      lbo->setExecutor(exec);
      lbo->setBatchLanes(batchLanes_);
      sim.lbo_.push_back(std::move(lbo));
    } else {
      sim.lbo_.push_back(nullptr);
    }

    const int np = basisFor(spec).numModes();
    Field f(pg, np);
    projectOnBasis(basisFor(spec), pg, sp.init, f);
    sim.state_.addSlot(sp.name, std::move(f));
  }
  sim.emSlot_ = sim.state_.addSlot(StateVector::kEmSlot, Field(confGrid_, kEmComps * npc));
  if (initField_) {
    projectVectorOnBasis(sim.maxwell_->basis(), confGrid_, *initField_, kEmComps,
                         sim.state_.slot(sim.emSlot_));
  }
  sim.k_ = sim.state_.zerosLike();
  sim.stage_[0] = sim.state_.zerosLike();
  // Stage 1 is only touched by the 3-stage stepper; don't carry a dead
  // full-phase-space vector for RK2 runs.
  if (stepper_ == Stepper::SspRk3) sim.stage_[1] = sim.state_.zerosLike();

  // --- physical boundary conditions. A dimension is non-periodic as soon
  // as any face of it carries a physical spec; both faces of such a
  // dimension must then be fully specified for every species (the em slot
  // defaults to Copy). The resolved per-slot table drives the wall fills
  // in BoundarySyncUpdater.
  const std::array<bool, kMaxDim> periodic = periodicDims();
  sim.periodicDims_ = periodic;
  for (int d = cdim; d < kMaxDim; ++d)
    if (!periodic[static_cast<std::size_t>(d)])
      throw std::invalid_argument(
          "Simulation::Builder: boundary() on dimension " + std::to_string(d) +
          " but the configuration grid has only " + std::to_string(cdim) + " dims");
  bool anyWall = false;
  for (int d = 0; d < cdim; ++d) anyWall = anyWall || !periodic[static_cast<std::size_t>(d)];
  if (anyWall) {
    if (evolveField_ && !poissonField_)
      throw std::invalid_argument(
          "Simulation::Builder: non-periodic boundaries compose with the Poisson field "
          "path or a non-evolving field (evolveField(false)); the hyperbolic Maxwell "
          "stepper has no wall closure yet");
    auto bcTable = std::make_unique<BcTable>(sim.state_.numSlots());
    for (int d = 0; d < cdim; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      if (periodic[ds]) continue;
      for (int e = 0; e < 2; ++e) {
        const FaceSpec& fs = bcFaces_[ds][static_cast<std::size_t>(e)];
        for (int s = 0; s < sim.numSpecies(); ++s) {
          const SpeciesConfig& sp = sim.species_[static_cast<std::size_t>(s)];
          BcSpec spec;
          if (auto it = fs.perSpecies.find(sp.name); it != fs.perSpecies.end())
            spec = it->second;
          else if (fs.all)
            spec = *fs.all;
          if (spec.kind == BcKind::Periodic)
            throw std::invalid_argument(
                "Simulation::Builder: dimension " + std::to_string(d) +
                " is non-periodic, but species '" + sp.name + "' has no physical boundary "
                "condition on its " + (e == 0 ? std::string("lower") : std::string("upper")) +
                " face — a walled dimension must specify both faces");
          if (spec.kind == BcKind::Reflect) {
            if (d >= sp.velGrid.ndim)
              throw std::invalid_argument(
                  "Simulation::Builder: Reflect wall normal to dim " + std::to_string(d) +
                  " needs velocity dimension v" + std::to_string(d) + ", which species '" +
                  sp.name + "' does not have");
            const auto vs = static_cast<std::size_t>(d);
            const double span = sp.velGrid.upper[vs] - sp.velGrid.lower[vs];
            if (std::abs(sp.velGrid.lower[vs] + sp.velGrid.upper[vs]) > 1e-12 * span)
              throw std::invalid_argument(
                  "Simulation::Builder: Reflect wall requires a velocity grid symmetric "
                  "about v = 0 in dim " + std::to_string(d) + " (species '" + sp.name +
                  "'): the mirrored ghost is a signed copy only on a mirror-symmetric "
                  "grid");
          }
          const BasisSpec spSpec{cdim, sp.velGrid.ndim, polyOrder_, family_};
          bcTable->set(s, d, e == 0 ? Edge::Lower : Edge::Upper,
                       makeBc(spec.kind, basisFor(spSpec), cdim));
        }
        const BcSpec femSpec = fs.field.value_or(BcSpec{BcKind::Copy});
        if (femSpec.kind == BcKind::Periodic || femSpec.kind == BcKind::Reflect)
          throw std::invalid_argument(
              "Simulation::Builder: the em slot supports Copy or Absorb on walls (Reflect "
              "is not meaningful for the component-stacked field expansion)");
        bcTable->set(sim.emSlot_, d, e == 0 ? Edge::Lower : Edge::Upper,
                     makeBc(femSpec.kind, sim.maxwell_->basis(), cdim));
      }
    }
    sim.bcTable_ = std::move(bcTable);
  }
  // The Poisson wall closures are configured independently (they live on
  // the potential, not on a StateVector slot); require them to agree with
  // the particle boundaries on which dimensions wrap.
  if (poissonField_) {
    for (int d = 0; d < cdim; ++d) {
      const auto ds = static_cast<std::size_t>(d);
      const bool poissonPeriodic =
          poissonParams_.bc[ds][0].kind == PoissonBcKind::Periodic &&
          poissonParams_.bc[ds][1].kind == PoissonBcKind::Periodic;
      if (poissonPeriodic != periodic[ds])
        throw std::invalid_argument(
            "Simulation::Builder: PoissonParams::bc and boundary() disagree on the "
            "periodicity of dimension " + std::to_string(d) +
            " — walls must be declared on both the particles and the potential");
    }
  }
  sim.trackWallLoss_ = anyWall;
  sim.absorbed_.assign(static_cast<std::size_t>(sim.numSpecies()), 0.0);
  sim.lossRate_.assign(static_cast<std::size_t>(sim.numSpecies()), 0.0);

  // --- pipeline, in the canonical order of the coupled RHS. The
  // electrostatic path leads with the Poisson fixup (E is a functional of
  // f, recomputed per stage and never stepped: the em slot's derivative is
  // zeroed by the fixed-field stand-in, freezing B), and current coupling
  // stays out of the loop — Gauss's law replaces Ampere's law.
  if (poissonField_) {
    if (providedPoisson_) {
      // A shared, already-factored solver (DistributedSimulation builds
      // one per *job*, not one per rank). Immutable, so reuse is safe;
      // verify it actually matches this run's global grid and basis.
      const Grid global = confGrid_.parent();
      const Grid& sg = providedPoisson_->grid();
      bool match = providedPoisson_->basis().spec() == confSpec && sg.ndim == global.ndim &&
                   providedPoisson_->params().epsilon0 == poissonParams_.epsilon0 &&
                   providedPoisson_->params().method == poissonParams_.method &&
                   providedPoisson_->params().cgTol == poissonParams_.cgTol &&
                   providedPoisson_->params().cgMaxIter == poissonParams_.cgMaxIter;
      for (int d = 0; match && d < global.ndim; ++d) {
        const auto ds = static_cast<std::size_t>(d);
        match = sg.cells[ds] == global.cells[ds] && sg.lower[ds] == global.lower[ds] &&
                sg.upper[ds] == global.upper[ds];
        for (int e = 0; match && e < 2; ++e) {
          const PoissonBcSpec& a = providedPoisson_->params().bc[ds][static_cast<std::size_t>(e)];
          const PoissonBcSpec& b = poissonParams_.bc[ds][static_cast<std::size_t>(e)];
          match = a.kind == b.kind && a.value == b.value;
        }
      }
      if (!match)
        throw std::invalid_argument(
            "Simulation::Builder: provided PoissonSolver does not match the configured "
            "global grid/basis/epsilon0");
      sim.poisson_ = providedPoisson_;
    } else {
      sim.poisson_ =
          std::make_shared<const PoissonSolver>(confSpec, confGrid_.parent(), poissonParams_);
    }
    std::vector<PoissonFieldUpdater::SpeciesTap> taps;
    for (int s = 0; s < sim.numSpecies(); ++s)
      taps.push_back({sim.mom_[static_cast<std::size_t>(s)].get(),
                      sim.species_[static_cast<std::size_t>(s)].charge, s});
    auto pu = std::make_unique<PoissonFieldUpdater>(confGrid_, sim.poisson_.get(),
                                                    std::move(taps), sim.emSlot_,
                                                    backgroundCharge_, sim.comm_, exec);
    sim.poissonUpd_ = pu.get();
    sim.pipeline_.push_back(std::move(pu));
  }
  const bool useEm = poissonField_ || evolveField_ || initField_.has_value();
  {
    std::unique_ptr<BoundarySyncUpdater> bs;
    if (sim.bcTable_) {
      std::vector<std::string> slotNames;
      for (int i = 0; i < sim.state_.numSlots(); ++i)
        slotNames.push_back(sim.state_.slotName(i));
      bs = std::make_unique<BoundarySyncUpdater>(cdim, sim.comm_, sim.bcTable_.get(), periodic,
                                                 std::move(slotNames));
    } else {
      bs = std::make_unique<BoundarySyncUpdater>(cdim, sim.comm_);
    }
    sim.bsyncUpd_ = bs.get();
    sim.pipeline_.push_back(std::move(bs));
  }
  for (int s = 0; s < sim.numSpecies(); ++s) {
    auto vu = std::make_unique<VlasovRhsUpdater>(
        sim.vlasov_[static_cast<std::size_t>(s)].get(),
        sim.species_[static_cast<std::size_t>(s)].name, s, sim.emSlot_, useEm);
    sim.vlasovUpds_.push_back(vu.get());
    sim.pipeline_.push_back(std::move(vu));
  }
  sim.overlapHalo_ = overlapHalo_;
  if (evolveField_ && !poissonField_) {
    sim.pipeline_.push_back(std::make_unique<MaxwellRhsUpdater>(sim.maxwell_.get(), sim.emSlot_));
    std::vector<CurrentCouplingUpdater::SpeciesTap> taps;
    for (int s = 0; s < sim.numSpecies(); ++s)
      taps.push_back({sim.mom_[static_cast<std::size_t>(s)].get(),
                      sim.species_[static_cast<std::size_t>(s)].charge, s});
    sim.pipeline_.push_back(std::make_unique<CurrentCouplingUpdater>(
        confGrid_, sim.maxwell_.get(), std::move(taps), sim.emSlot_, backgroundCharge_));
  } else {
    sim.pipeline_.push_back(std::make_unique<FixedEmUpdater>(sim.emSlot_));
  }
  for (int s = 0; s < sim.numSpecies(); ++s) {
    if (sim.bgk_[static_cast<std::size_t>(s)]) {
      sim.pipeline_.push_back(std::make_unique<BgkCollisionUpdater>(
          sim.bgk_[static_cast<std::size_t>(s)].get(),
          sim.species_[static_cast<std::size_t>(s)].name, s));
    }
    if (sim.lbo_[static_cast<std::size_t>(s)]) {
      sim.pipeline_.push_back(std::make_unique<LboCollisionUpdater>(
          sim.lbo_[static_cast<std::size_t>(s)].get(),
          sim.species_[static_cast<std::size_t>(s)].name, s));
    }
  }
  // Zone names are cached here because Updater::name() allocates and the
  // stepper zones every updater once per RK stage. Batch-lane gauges pin
  // the lane count each hot loop blocks with (1: one cell per call).
  if (sim.profiler_) {
    for (const std::unique_ptr<Updater>& u : sim.pipeline_) sim.zoneNames_.push_back(u->name());
    for (const VlasovRhsUpdater* vu : sim.vlasovUpds_) {
      sim.volZoneNames_.push_back(vu->name() + ":volume");
      sim.surfZoneNames_.push_back(vu->name() + ":surface");
    }
    MetricsRegistry& m = sim.profiler_->metrics();
    for (int s = 0; s < sim.numSpecies(); ++s) {
      const auto ss = static_cast<std::size_t>(s);
      const std::string& name = sim.species_[ss].name;
      sim.absorbedKeys_.push_back("absorbed:" + name);
      m.set("batch.lanes:vlasov:" + name, sim.vlasov_[ss]->activeBatchLanes());
      if (sim.lbo_[ss]) m.set("batch.lanes:lbo:" + name, sim.lbo_[ss]->activeBatchLanes());
    }
  }

  // Make the t = 0 electrostatic field consistent with f before any step.
  // Single-rank only: the refresh is collective, and a DistributedSimulation
  // builds its ranks sequentially — it runs the refresh itself afterwards,
  // with every rank entering in parallel.
  if (sim.poissonUpd_ && sim.comm_->numRanks() == 1) sim.refreshDerivedFields();
  return sim;
}

// ------------------------------------------------------------- Simulation

int Simulation::speciesIndex(const std::string& name) const {
  for (int s = 0; s < numSpecies(); ++s)
    if (species_[static_cast<std::size_t>(s)].name == name) return s;
  return -1;
}

bool Simulation::overlapActive() const {
  return overlapHalo_ && bsyncUpd_ && !vlasovUpds_.empty() && comm_->supportsSplitSync();
}

void Simulation::setGhostPoison(bool on) {
  if (bsyncUpd_) bsyncUpd_->setGhostPoison(on);
}

double Simulation::rhs(double t, StateVector& u, StateVector& k) {
  StateView in = u.view();
  StateView out = k.view();
  double freq = 0.0;
  Profiler* const prof = profiler_.get();
  if (!overlapActive()) {
    for (std::size_t i = 0; i < pipeline_.size(); ++i) {
      const ScopedTimer zone(prof, prof ? zoneNames_[i].c_str() : "");
      freq = std::max(freq, pipeline_[i]->apply(t, in, out));
    }
    return freq;
  }
  // Split-phase schedule, bitwise identical to the blocking loop above:
  // post the dimension-0 halo sends, run every species' volume pass (reads
  // no ghosts, and by itself produces the complete CFL frequency) while
  // they fly, complete the sync, then the surface passes and the rest of
  // the pipeline. Per state slot the accumulation order (volume -> surface
  // -> field/collisions) is exactly the blocking path's; only the
  // interleaving across independent slots changes.
  std::size_t i = 0;
  // Updaters ahead of the boundary sync (the electrostatic field fixup)
  // read the state the sync is about to repair from, so they run first.
  for (; pipeline_[i].get() != static_cast<Updater*>(bsyncUpd_); ++i) {
    const ScopedTimer zone(prof, prof ? zoneNames_[i].c_str() : "");
    freq = std::max(freq, pipeline_[i]->apply(t, in, out));
  }
  {
    const ScopedTimer zone(prof, "sync:begin");
    bsyncUpd_->beginApply(in);
  }
  for (std::size_t s = 0; s < vlasovUpds_.size(); ++s) {
    const ScopedTimer zone(prof, prof ? volZoneNames_[s].c_str() : "");
    freq = std::max(freq, vlasovUpds_[s]->applyVolume(in, out));
  }
  {
    const ScopedTimer zone(prof, "sync:finish");
    bsyncUpd_->finishApply(in);
  }
  for (std::size_t s = 0; s < vlasovUpds_.size(); ++s) {
    const ScopedTimer zone(prof, prof ? surfZoneNames_[s].c_str() : "");
    vlasovUpds_[s]->applySurface(in, out);
  }
  // Skip past the sync and the Vlasov updaters (they are contiguous by
  // construction of build()); everything after runs in pipeline order.
  i += 1 + vlasovUpds_.size();
  assert(i <= pipeline_.size());
  for (; i < pipeline_.size(); ++i) {
    const ScopedTimer zone(prof, prof ? zoneNames_[i].c_str() : "");
    freq = std::max(freq, pipeline_[i]->apply(t, in, out));
  }
  return freq;
}

double Simulation::step(double dtFixed) {
  Profiler* const prof = profiler_.get();
  const ScopedTimer stepZone(prof, "step");
  // Wall-bounded runs account the discrete boundary mass flux of every RK
  // stage: the mass mode of the stage RHS integrates, over the domain, to
  // exactly the net flux through the walls (interior DG faces telescope;
  // collisions conserve mass to round-off), and the update is a linear
  // combination of stages — so absorbed_ tracks the stepped mass loss
  // with the *exact* RK weights and mass(t) + absorbed(t) is conserved to
  // round-off. Periodic runs skip all of this (no extra collectives, no
  // behavior change).
  std::vector<double> rate(trackWallLoss_ ? species_.size() : 0, 0.0);
  const auto tapRates = [&](double w) {
    if (!trackWallLoss_) return;
    for (int s = 0; s < numSpecies(); ++s)
      rate[static_cast<std::size_t>(s)] +=
          w * species_[static_cast<std::size_t>(s)].mass *
          integrateDomain(phaseBasis(s), phaseGrids_[static_cast<std::size_t>(s)], k_.slot(s));
  };

  // Stage 1: k = L(u^n); pick dt from the *global* CFL frequency (the
  // reduction is an identity for SerialComm; across ranks it guarantees
  // every rank steps with the same dt).
  double freq;
  {
    const ScopedTimer zone(prof, "rk:stage1");
    freq = comm_->allReduceMax(rhs(time_, state_, k_));
  }
  double dt = dtFixed;
  if (dt <= 0.0) {
    if (freq <= 0.0) throw std::runtime_error("Simulation::step: zero CFL frequency");
    dt = cflFrac_ / ((2.0 * polyOrder_ + 1.0) * freq);
  }

  switch (stepper_) {
    case Stepper::SspRk2: {
      // u1 = u + dt k;  u^{n+1} = 1/2 u + 1/2 u1 + 1/2 dt L(u1)
      //                         = u + dt (1/2 k1 + 1/2 k2).
      tapRates(0.5);
      stage_[0].combine(1.0, state_, dt, k_);
      {
        const ScopedTimer zone(prof, "rk:stage2");
        rhs(time_ + dt, stage_[0], k_);
      }
      tapRates(0.5);
      state_.combine(0.5, state_, 0.5, stage_[0]);
      state_.axpy(0.5 * dt, k_);
      break;
    }
    case Stepper::SspRk3: {
      // Shu-Osher SSP-RK3, arithmetic order identical to the seed app;
      // as a flat combination u^{n+1} = u + dt (1/6 k1 + 1/6 k2 + 2/3 k3).
      tapRates(1.0 / 6.0);
      stage_[0].combine(1.0, state_, dt, k_);
      {
        const ScopedTimer zone(prof, "rk:stage2");
        rhs(time_ + dt, stage_[0], k_);
      }
      tapRates(1.0 / 6.0);
      stage_[1].combine(0.75, state_, 0.25, stage_[0]);
      stage_[1].axpy(0.25 * dt, k_);
      {
        const ScopedTimer zone(prof, "rk:stage3");
        rhs(time_ + 0.5 * dt, stage_[1], k_);
      }
      tapRates(2.0 / 3.0);
      state_.combine(1.0 / 3.0, state_, 2.0 / 3.0, stage_[1]);
      state_.axpy(2.0 / 3.0 * dt, k_);
      break;
    }
  }
  time_ += dt;
  if (trackWallLoss_) {
    // One deterministic (rank-ordered) reduction per species: every rank
    // books the same global loss. Diagnostic only — it never feeds back
    // into the trajectory.
    const ScopedTimer zone(prof, "wall-loss");
    for (int s = 0; s < numSpecies(); ++s) {
      const auto ss = static_cast<std::size_t>(s);
      const double r = comm_->allReduceSum(rate[ss]);
      lossRate_[ss] = -r;
      absorbed_[ss] -= dt * r;
    }
  }
  // The stage combines mixed the per-stage electrostatic fields; restore
  // E = E[rho(f^{n+1})] so between-step diagnostics are consistent (no-op
  // for the Maxwell path, where the field *is* stepped). The next step's
  // stage-1 fixup recomputes the same solve; that redundancy is kept on
  // purpose — the back-substitution is ~1% of a step (bench_poisson_solve)
  // and the pipeline must stay correct for callers that mutate state()
  // (scatter, tests) between steps.
  refreshDerivedFields();
  if (prof) {
    MetricsRegistry& m = prof->metrics();
    m.add("steps", 1.0);
    m.set("cfl.dt", dt);
    m.set("cfl.maxFreq", freq);
    m.set("sim.time", time_);
    const HaloStats hs = comm_->haloStats();
    m.set("halo.bytes", static_cast<double>(hs.bytes));
    m.set("halo.cells", static_cast<double>(hs.cells));
    m.set("halo.seconds", hs.totalSec());
    if (poissonUpd_) m.add("krylov.iterations", poissonUpd_->lastSolveStats().iterations);
    if (trackWallLoss_)
      for (int s = 0; s < numSpecies(); ++s)
        m.set(absorbedKeys_[static_cast<std::size_t>(s)], absorbed_[static_cast<std::size_t>(s)]);
    prof->stepCompleted(time_);
    // The periodic report rewrite runs only when this simulation owns the
    // profiler (serial run: no other thread can be mid-zone here, so the
    // arenas are safe to read). Shared profilers export at their owner's
    // end-of-run instead.
    const ProfilingSpec& ps = prof->spec();
    if (ownsProfilerOutput_ && ps.reportEvery > 0 && !ps.reportPath.empty() &&
        prof->stepCount() % static_cast<std::uint64_t>(ps.reportEvery) == 0) {
      try {
        prof->writeReportJson(ps.reportPath);
      } catch (...) {
        // Periodic diagnostic write failure must not kill the run; the
        // final flush will surface a persistent IO problem.
      }
    }
  }
  return dt;
}

void Simulation::restore(const StateVector& src, double t) {
  for (int i = 0; i < state_.numSlots(); ++i) {
    const int j = src.indexOf(state_.slotName(i));
    if (j < 0)
      throw std::invalid_argument("Simulation::restore: missing slot '" + state_.slotName(i) +
                                  "'");
    Field& dst = state_.slot(i);
    const Field& s = src.slot(j);
    const Grid& g = dst.grid();
    bool match = s.grid().ndim == g.ndim && s.ncomp() == dst.ncomp();
    for (int d = 0; match && d < g.ndim; ++d)
      match = s.grid().cells[static_cast<std::size_t>(d)] == g.cells[static_cast<std::size_t>(d)];
    if (!match)
      throw std::invalid_argument("Simulation::restore: slot '" + state_.slotName(i) +
                                  "' shape mismatch");
    const std::size_t bytes = sizeof(double) * static_cast<std::size_t>(dst.ncomp());
    forEachCell(g, [&](const MultiIndex& idx) { std::memcpy(dst.at(idx), s.at(idx), bytes); });
  }
  time_ = t;
  if (comm_->numRanks() == 1) refreshDerivedFields();
}

void Simulation::refreshDerivedFields() {
  if (!poissonUpd_) return;
  const ScopedTimer zone(profiler_.get(), "field:refresh");
  StateView in = state_.view();
  StateView out = k_.view();  // scratch; the fixup never writes `out`
  poissonUpd_->apply(time_, in, out);
}

int Simulation::advanceTo(double tEnd) {
  int steps = 0;
  while (time_ < tEnd - 1e-12) {
    step(0.0);
    ++steps;
  }
  return steps;
}

Simulation::Energetics Simulation::energetics() const {
  Energetics e;
  e.time = time_;
  const int npc = maxwell_->numModes();
  for (int s = 0; s < numSpecies(); ++s) {
    Field m0(confGrid_, npc), m2(confGrid_, npc);
    mom_[static_cast<std::size_t>(s)]->compute(distf(s), &m0, nullptr, &m2);
    const double m = species_[static_cast<std::size_t>(s)].mass;
    e.mass.push_back(m * integrateDomain(maxwell_->basis(), confGrid_, m0));
    e.particleEnergy.push_back(0.5 * m * integrateDomain(maxwell_->basis(), confGrid_, m2));
  }
  // Field energy via the L2 norm (orthonormal basis: sum of squared coeffs).
  double jac = 1.0;
  for (int d = 0; d < confGrid_.ndim; ++d) jac *= 0.5 * confGrid_.dx(d);
  const double c2 = fieldParams_.lightSpeed * fieldParams_.lightSpeed;
  double eE = 0.0, eB = 0.0;
  const Field& em = emField();
  forEachCell(confGrid_, [&](const MultiIndex& idx) {
    const double* u = em.at(idx);
    for (int l = 0; l < 3 * npc; ++l) eE += u[l] * u[l];
    for (int l = 3 * npc; l < 6 * npc; ++l) eB += u[l] * u[l];
  });
  e.electricEnergy = 0.5 * fieldParams_.epsilon0 * jac * eE;
  e.magneticEnergy = 0.5 * fieldParams_.epsilon0 * c2 * jac * eB;
  e.fieldEnergy = e.electricEnergy + e.magneticEnergy;
  return e;
}

double Simulation::energyTransfer(int s) const {
  const int npc = maxwell_->numModes();
  Field m1(confGrid_, 3 * npc);
  mom_[static_cast<std::size_t>(s)]->compute(distf(s), nullptr, &m1, nullptr);
  const double q = species_[static_cast<std::size_t>(s)].charge;
  double jac = 1.0;
  for (int d = 0; d < confGrid_.ndim; ++d) jac *= 0.5 * confGrid_.dx(d);
  double dot = 0.0;
  const Field& em = emField();
  forEachCell(confGrid_, [&](const MultiIndex& idx) {
    const double* j = m1.at(idx);
    const double* e = em.at(idx);
    for (int c = 0; c < 3; ++c)
      for (int l = 0; l < npc; ++l) dot += j[c * npc + l] * e[c * npc + l];
  });
  return q * jac * dot;
}

double Simulation::distfL2(int s) const {
  const Grid& pg = phaseGrids_[static_cast<std::size_t>(s)];
  double jac = 1.0;
  for (int d = 0; d < pg.ndim; ++d) jac *= 0.5 * pg.dx(d);
  double l2 = 0.0;
  const Field& f = distf(s);
  forEachCell(pg, [&](const MultiIndex& idx) {
    const double* fc = f.at(idx);
    for (int l = 0; l < f.ncomp(); ++l) l2 += fc[l] * fc[l];
  });
  return jac * l2;
}

}  // namespace vdg
