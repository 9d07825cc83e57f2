#pragma once
// The composable simulation core: a fluent Builder assembles an ordered
// Updater pipeline (boundary sync, per-species Vlasov, Maxwell, moment
// coupling, collisions) over a named StateVector, and a selectable
// SSP-RK2/RK3 stepper advances it. This is the seam every scenario plugs
// into — collisional runs, fixed-field runs, new species physics — while
// VlasovMaxwellApp survives as a thin compatibility façade on top.
//
//   auto sim = Simulation::builder()
//                  .confGrid(Grid::make({16}, {0.0}, {12.56}))
//                  .basis(2, BasisFamily::Serendipity)
//                  .species({.name = "elc", .charge = -1.0, .mass = 1.0,
//                            .velGrid = ..., .init = ...})
//                  .collisions(BgkParams{.mass = 1.0, .collisionFreq = 5.0})
//                  .field(MaxwellParams{})
//                  .initField(...)
//                  .stepper(Stepper::SspRk3)
//                  .build();
//   sim.advanceTo(10.0);

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/projection.hpp"
#include "app/state.hpp"
#include "app/updater.hpp"
#include "bc/bc.hpp"
#include "collisions/bgk.hpp"
#include "collisions/lbo.hpp"
#include "dg/maxwell.hpp"
#include "dg/moments.hpp"
#include "dg/poisson.hpp"
#include "dg/vlasov.hpp"
#include "grid/grid.hpp"
#include "obs/profiler.hpp"

namespace vdg {

class BoundarySyncUpdater;
class Communicator;
class PoissonFieldUpdater;
class ThreadExec;
class VlasovRhsUpdater;

/// Strong-stability-preserving Runge-Kutta time steppers operating
/// generically on StateVector.
enum class Stepper {
  SspRk2,  ///< 2-stage, 2nd order (Heun with SSP coefficients)
  SspRk3,  ///< 3-stage, 3rd order (Shu-Osher), the paper's stepper
};

/// One kinetic species of the system.
struct SpeciesConfig {
  std::string name = "elc";
  double charge = -1.0;
  double mass = 1.0;
  Grid velGrid;                         ///< vdim-dimensional velocity grid
  ScalarFn init;                        ///< f0(x..., v...) on the phase grid
  FluxType flux = FluxType::Penalty;
  std::optional<BgkParams> collisions;  ///< BGK operator, off by default
  /// Conservative Lenard-Bernstein/Dougherty operator, off by default.
  /// Independent of the BGK slot: a species may carry either (or, for
  /// operator-comparison studies, both).
  std::optional<LboParams> lboCollisions;
};

class Simulation {
 public:
  class Builder;
  [[nodiscard]] static Builder builder();

  // Out-of-line so unique_ptr<ThreadExec> works with the forward
  // declaration above.
  ~Simulation();
  Simulation(Simulation&&) noexcept;
  Simulation& operator=(Simulation&&) noexcept;

  /// Take one step with dt from the CFL condition (or the given dt if
  /// positive). Returns the dt taken.
  double step(double dtFixed = 0.0);

  /// Step until tEnd; returns the number of steps taken.
  int advanceTo(double tEnd);

  /// One RHS evaluation k = L(u) through the pipeline at time t (u's ghost
  /// layers are repaired in place). Returns the max CFL frequency.
  double rhs(double t, StateVector& u, StateVector& k);

  /// Recompute the state-derived (non-stepped) fields — the electrostatic
  /// E of a Poisson run — from the current distribution functions; no-op
  /// on the Maxwell path. step() calls this after each accepted step so
  /// diagnostics always see a field consistent with f; it is collective
  /// (all ranks must enter together) when the simulation is distributed.
  void refreshDerivedFields();

  /// Restore a checkpointed state: overwrite every slot's interior cells
  /// from `src` (matched by slot name; shapes must agree), set the clock
  /// to `t`, and refresh the derived fields. Ghost layers are *not*
  /// restored — the pipeline repairs them before any surface term reads
  /// them, so a restored trajectory is bitwise identical to the
  /// uninterrupted one (tests/test_ensemble.cpp pins this). The cumulative
  /// wall-loss accounting (absorbedMass) restarts at zero; restoring it is
  /// the checkpoint owner's job if the diagnostic must span the restart.
  /// Collective on distributed runs — use DistributedSimulation::restore,
  /// which scatters and enters the refresh on every rank together.
  void restore(const StateVector& src, double t);

  /// Set the clock without touching the state (the low-level half of
  /// restore(); DistributedSimulation::restore scatters first, then sets
  /// every rank's clock through this before the collective refresh).
  void setTime(double t) { time_ = t; }

  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] int numSpecies() const { return static_cast<int>(species_.size()); }
  [[nodiscard]] int speciesIndex(const std::string& name) const;

  [[nodiscard]] StateVector& state() { return state_; }
  [[nodiscard]] const StateVector& state() const { return state_; }
  [[nodiscard]] const Field& distf(int s) const { return state_.slot(s); }
  [[nodiscard]] Field& distf(int s) { return state_.slot(s); }
  [[nodiscard]] const Field& emField() const { return state_.slot(emSlot_); }
  [[nodiscard]] Field& emField() { return state_.slot(emSlot_); }

  [[nodiscard]] const Grid& confGrid() const { return confGrid_; }
  [[nodiscard]] const Grid& phaseGrid(int s) const {
    return phaseGrids_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const Basis& phaseBasis(int s) const {
    return vlasov_[static_cast<std::size_t>(s)]->kernels().phase[0];
  }
  [[nodiscard]] const Basis& confBasis() const { return maxwell_->basis(); }
  [[nodiscard]] const MomentUpdater& moments(int s) const {
    return *mom_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const SpeciesConfig& speciesConfig(int s) const {
    return species_[static_cast<std::size_t>(s)];
  }

  /// The Poisson solver of an electrostatic (field:poisson) run, or null
  /// for the Maxwell path.
  [[nodiscard]] const PoissonSolver* poissonSolver() const { return poisson_.get(); }
  /// Shared ownership of the solver (immutable after construction), so a
  /// DistributedSimulation factors the global operator once and hands the
  /// same instance to every rank (Builder::poissonSolver).
  [[nodiscard]] std::shared_ptr<const PoissonSolver> sharedPoissonSolver() const {
    return poisson_;
  }
  /// The Poisson field updater (lastRho()/lastPhi() diagnostics), or null.
  [[nodiscard]] const PoissonFieldUpdater* poissonField() const { return poissonUpd_; }

  /// The assembled pipeline, in application order (for diagnostics and
  /// tests; names like "vlasov:elc", "bgk:ion", "current-coupling").
  [[nodiscard]] const std::vector<std::unique_ptr<Updater>>& pipeline() const {
    return pipeline_;
  }
  [[nodiscard]] Stepper stepper() const { return stepper_; }

  /// The communication endpoint this simulation's boundary sync and CFL
  /// reduction run through (SerialComm for a non-distributed run).
  [[nodiscard]] Communicator& comm() const { return *comm_; }

  /// The instrumentation attached at build time (Builder::profiling /
  /// Builder::profiler / VDG_TRACE env), or null when off. When the
  /// simulation owns the profiler's output (it was constructed from a
  /// spec, not shared), the trace/report files are written when the
  /// simulation is destroyed (or on an explicit flushProfilerOutput()).
  [[nodiscard]] Profiler* profiler() const { return profiler_.get(); }
  /// Write the profiler's configured trace/report files now, once — or,
  /// when zones are on but no file was asked for (VDG_PROFILE=1), print
  /// the zone table to stderr (idempotent; no-op when the profiler is off
  /// or externally owned).
  void flushProfilerOutput() noexcept;

  /// Whether rhs() runs the split-phase schedule (dimension-0 halo sends
  /// posted, Vlasov volume terms computed while they fly, then wait +
  /// remaining sync + surface terms). Takes effect only on a communicator
  /// that supportsSplitSync(); bitwise identical to the blocking schedule
  /// either way, so it may be toggled freely between steps — but it is a
  /// collective property: every rank of a distributed run must agree.
  void setOverlapHalo(bool on) { overlapHalo_ = on; }
  [[nodiscard]] bool overlapHalo() const { return overlapHalo_; }
  /// True when the next rhs() will actually take the overlapped schedule.
  [[nodiscard]] bool overlapActive() const;

  /// Test hook (see BoundarySyncUpdater::setGhostPoison): NaN-flood the
  /// configuration ghost slabs inside each overlapped sync, proving no
  /// ghost is read before its repair. Only meaningful with overlap on.
  void setGhostPoison(bool on);

  /// Per configuration dimension: true when the domain wraps (the
  /// default), false when both ends carry physical boundary conditions.
  [[nodiscard]] const std::array<bool, kMaxDim>& periodicDims() const {
    return periodicDims_;
  }
  /// The per-slot physical boundary conditions, or null when fully
  /// periodic (slot indices match the StateVector layout).
  [[nodiscard]] const BcTable* boundaryConditions() const { return bcTable_.get(); }

  /// True when the run has non-periodic configuration boundaries and the
  /// stepper is accounting the mass crossing them.
  [[nodiscard]] bool tracksWallLoss() const { return trackWallLoss_; }
  /// Cumulative mass of species s lost through the domain boundaries
  /// (absorbing walls) since t = 0: the time integral, with the exact RK
  /// stage weights, of the discrete boundary mass flux — so
  /// mass(t) + absorbedMass(t) is conserved to round-off (the sheath
  /// example pins <= 1e-12 relative over thousands of steps). Globally
  /// reduced on distributed runs; ~0 for reflecting/periodic faces.
  [[nodiscard]] double absorbedMass(int s) const {
    return absorbed_[static_cast<std::size_t>(s)];
  }
  /// Mass-loss rate of species s measured over the last step (the
  /// RK-weighted boundary flux; positive = mass leaving). The sheath
  /// example's steady-state criterion compares these across species.
  [[nodiscard]] double wallLossRate(int s) const {
    return lossRate_[static_cast<std::size_t>(s)];
  }

  /// Conservation diagnostics (paper Section II: the delicate J.E exchange).
  struct Energetics {
    double time = 0.0;
    std::vector<double> mass;            ///< per species: int m f dx dv
    std::vector<double> particleEnergy;  ///< per species: int (m/2)|v|^2 f
    double fieldEnergy = 0.0;            ///< (eps0/2) int |E|^2 + c^2|B|^2
    double electricEnergy = 0.0;
    double magneticEnergy = 0.0;
    [[nodiscard]] double totalEnergy() const {
      double e = fieldEnergy;
      for (double p : particleEnergy) e += p;
      return e;
    }
  };
  [[nodiscard]] Energetics energetics() const;

  /// L2 norm^2 of a species distribution function (decays monotonically
  /// with penalty fluxes, conserved with central fluxes).
  [[nodiscard]] double distfL2(int s) const;

  /// Discrete field-particle energy exchange of the paper's Eq. 9:
  /// int J_h . E_h dx for one species (positive: field energy flows to the
  /// particles).
  [[nodiscard]] double energyTransfer(int s) const;

 private:
  friend class Builder;
  Simulation() = default;

  Grid confGrid_;
  int polyOrder_ = 2;
  double cflFrac_ = 0.9;
  Stepper stepper_ = Stepper::SspRk3;
  MaxwellParams fieldParams_;
  std::vector<SpeciesConfig> species_;
  std::vector<Grid> phaseGrids_;

  std::vector<std::unique_ptr<VlasovUpdater>> vlasov_;
  std::vector<std::unique_ptr<MomentUpdater>> mom_;
  std::vector<std::unique_ptr<BgkUpdater>> bgk_;  ///< per species, may be null
  std::vector<std::unique_ptr<LboUpdater>> lbo_;  ///< per species, may be null
  std::unique_ptr<MaxwellUpdater> maxwell_;
  /// Electrostatic runs only; shared so rank shards reuse one LU.
  std::shared_ptr<const PoissonSolver> poisson_;
  PoissonFieldUpdater* poissonUpd_ = nullptr;  ///< non-owning, in pipeline_
  BoundarySyncUpdater* bsyncUpd_ = nullptr;    ///< non-owning, in pipeline_
  std::vector<VlasovRhsUpdater*> vlasovUpds_;  ///< non-owning, in pipeline_
  bool overlapHalo_ = false;
  std::vector<std::unique_ptr<Updater>> pipeline_;
  std::unique_ptr<ThreadExec> ownedExec_;  ///< set when Builder::threads(n>0)
  Communicator* comm_ = nullptr;           ///< non-owning; SerialComm by default

  std::shared_ptr<Profiler> profiler_;  ///< null == instrumentation off
  bool ownsProfilerOutput_ = false;     ///< write trace/report at destruction
  /// Zone names cached at build time: Updater::name() allocates, and the
  /// stepper must not allocate per zone on the hot path.
  std::vector<std::string> zoneNames_;      ///< per pipeline_ entry
  std::vector<std::string> volZoneNames_;   ///< per vlasovUpds_ entry (overlap)
  std::vector<std::string> surfZoneNames_;  ///< per vlasovUpds_ entry (overlap)
  std::vector<std::string> absorbedKeys_;   ///< per species metrics key

  std::unique_ptr<BcTable> bcTable_;  ///< physical BCs; null == periodic
  std::array<bool, kMaxDim> periodicDims_{};
  bool trackWallLoss_ = false;
  std::vector<double> absorbed_;  ///< per species, cumulative wall mass loss
  std::vector<double> lossRate_;  ///< per species, last step's loss rate

  int emSlot_ = -1;
  StateVector state_;
  StateVector k_;          ///< RHS evaluation
  StateVector stage_[2];   ///< RK stage states
  double time_ = 0.0;
};

/// Fluent assembly of a Simulation. Call order: grid/basis first, then
/// species (collisions(...) attaches to the most recent species), then
/// field/stepper options; build() validates and wires the pipeline.
class Simulation::Builder {
 public:
  Builder& confGrid(const Grid& g);
  Builder& basis(int polyOrder, BasisFamily family = BasisFamily::Serendipity);
  Builder& species(SpeciesConfig cfg);
  Builder& species(std::string name, double charge, double mass, const Grid& velGrid,
                   ScalarFn init, FluxType flux = FluxType::Penalty);
  /// Attach a BGK collision operator to the most recently added species.
  Builder& collisions(const BgkParams& p);
  /// Attach the conservative Lenard-Bernstein/Dougherty operator to the
  /// most recently added species (see collisions/lbo.hpp).
  Builder& collisions(const LboParams& p);
  Builder& field(const MaxwellParams& p);
  /// Electrostatic field path (Vlasov-Poisson): instead of stepping the
  /// hyperbolic Maxwell system, E is recomputed from the species charge
  /// density at *every RK stage* by the DG Poisson solve
  /// -lap(phi) = rho/eps0 (zero-mean gauge, periodic), and B — along with
  /// any initField-set transverse E components — stays frozen at its
  /// initial value (zero unless initField set it). No current
  /// coupling runs — Gauss's law replaces Ampere's law — and evolveField()
  /// is ignored. backgroundCharge() feeds the density (e.g. a neutralizing
  /// ion background), though the gauge makes E independent of any uniform
  /// charge. 1x configuration grids only for now (PoissonSolver).
  Builder& field(const PoissonParams& p);
  /// Reuse an already-factored global Poisson solver instead of building
  /// one (it is immutable, so sharing is safe and bit-identical). Must
  /// match the configured grid's parent and basis; only consulted when
  /// field(PoissonParams) is selected. DistributedSimulation uses this to
  /// factor the global operator once instead of once per rank.
  Builder& poissonSolver(std::shared_ptr<const PoissonSolver> solver);
  /// Physical boundary condition on one domain face of configuration
  /// dimension `dim`, applied to *every* species distribution (override a
  /// single species with the named overload below). Any non-periodic spec
  /// makes the whole dimension non-periodic: the opposite face must then
  /// also be given a physical spec, the periodic wrap is dropped, and the
  /// ghost slab on each face is filled by the requested condition
  /// (src/bc/) instead. Reflect requires the species velocity grid to be
  /// symmetric about v_dim = 0 (validated at build()). Walls currently
  /// compose with the Poisson field path (whose PoissonParams::bc must be
  /// non-periodic on the same dims) and with non-evolving fields; the
  /// hyperbolic Maxwell stepper has no wall closure yet and build()
  /// rejects the combination.
  Builder& boundary(int dim, Edge edge, BcSpec spec);
  /// Per-species override of boundary(dim, edge, spec).
  Builder& boundary(const std::string& species, int dim, Edge edge, BcSpec spec);
  /// Condition of the em slot on a walled face (BcKind::Copy — zeroth-
  /// order extrapolation — by default; Reflect is not meaningful for the
  /// component-stacked field and is rejected).
  Builder& fieldBoundary(int dim, Edge edge, BcSpec spec);
  /// Per configuration dimension: false where boundary(...) declared a
  /// wall, true (periodic) elsewhere. DistributedSimulation reads this to
  /// build its CartDecomp with matching edge semantics.
  [[nodiscard]] std::array<bool, kMaxDim> periodicDims() const;

  /// false: the EM field is held fixed (or absent) — free streaming /
  /// external-field runs. Defaults to true.
  Builder& evolveField(bool on);
  /// Initial EM field, 8 components (Ex,Ey,Ez,Bx,By,Bz,phi,psi).
  Builder& initField(VectorFn fn);
  /// Uniform immobile charge background added to the divergence-cleaning
  /// charge density (e.g. +n0 e for a static neutralizing ion population).
  Builder& backgroundCharge(double rho);
  Builder& stepper(Stepper s);
  Builder& cflFrac(double frac);
  /// RHS thread count: 0 (default) shares the process-global pool; n >= 1
  /// gives this simulation a dedicated pool of n threads (1 = serial).
  Builder& threads(int n);
  /// SIMD batch width for the Vlasov/LBO hot loops: 0 (default) picks the
  /// widest kernel set the registry offers for the spec; 1 runs the B = 1
  /// kernels on every cell; 4/8 request a specific lane count. Every lane
  /// count is bitwise identical to B = 1, so this knob only trades
  /// execution schedule — see dg/batch.hpp.
  Builder& batchLanes(int lanes);
  /// Communication endpoint for boundary sync and the CFL reduction
  /// (non-owning; must outlive the simulation). Default: the shared
  /// SerialComm — single rank, periodic wrap. DistributedSimulation
  /// passes each rank's ThreadComm endpoint through here.
  Builder& communicator(Communicator* comm);
  /// Overlap halo exchange with the Vlasov volume terms (split-phase
  /// sync; see Simulation::setOverlapHalo). Off by default here — the
  /// schedule is bitwise identical, so DistributedSimulation turns it on
  /// for its rank builders unless told otherwise. Collective: pass the
  /// same value to every rank of a distributed run.
  Builder& overlapHalo(bool on);

  /// Instrumentation (src/obs/): an active spec makes build() construct a
  /// Profiler, zone the stepper/pipeline/halo phases, and feed the metrics
  /// registry; trace/report files are written when the Simulation is
  /// destroyed. An explicit call — active or not — overrides the
  /// VDG_TRACE/VDG_PROFILE environment opt-in (profiling({}) forces off).
  Builder& profiling(ProfilingSpec spec);
  /// Share an externally owned profiler instead of constructing one: the
  /// simulation records into it but never writes its files
  /// (DistributedSimulation's per-rank profilers and the Ensemble's
  /// campaign profiler come through here). Wins over profiling()/env.
  Builder& profiler(std::shared_ptr<Profiler> p);
  /// The spec build() will act on: the explicit profiling() spec when one
  /// was given, else ProfilingSpec::fromEnv(). DistributedSimulation and
  /// the Ensemble read this to hoist the trace/report destination up to
  /// their own merged exporters.
  [[nodiscard]] ProfilingSpec resolvedProfilingSpec() const;

  /// The configured configuration grid (throws if confGrid(...) has not
  /// been called) — DistributedSimulation reads this to decompose it.
  [[nodiscard]] const Grid& confGrid() const;

  [[nodiscard]] Simulation build();

 private:
  Grid confGrid_;
  bool haveConfGrid_ = false;
  int polyOrder_ = 2;
  BasisFamily family_ = BasisFamily::Serendipity;
  std::vector<SpeciesConfig> species_;
  MaxwellParams fieldParams_;
  PoissonParams poissonParams_;
  std::shared_ptr<const PoissonSolver> providedPoisson_;  ///< optional reuse
  bool poissonField_ = false;  ///< field slot driven by the Poisson solve
  bool evolveField_ = true;
  std::optional<VectorFn> initField_;
  double backgroundCharge_ = 0.0;
  Stepper stepper_ = Stepper::SspRk3;
  double cflFrac_ = 0.9;
  int threads_ = 0;
  int batchLanes_ = 0;
  Communicator* comm_ = nullptr;
  bool overlapHalo_ = false;
  ProfilingSpec profSpec_;
  bool profilingSet_ = false;  ///< explicit profiling() call wins over env
  std::shared_ptr<Profiler> sharedProfiler_;

  /// Requested conditions of one domain face.
  struct FaceSpec {
    std::optional<BcSpec> all;                 ///< every species (default)
    std::map<std::string, BcSpec> perSpecies;  ///< named overrides
    std::optional<BcSpec> field;               ///< em slot (default Copy)
  };
  std::array<std::array<FaceSpec, 2>, kMaxDim> bcFaces_;
};

}  // namespace vdg
