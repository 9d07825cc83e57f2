#pragma once
// Registry of pre-generated (CAS-emitted, compiled) Vlasov and LBO kernels.
//
// Every generated translation unit in kernels/gen/ registers one entry per
// basis spec (the generated manifest runs the registrations on first
// lookup); VlasovUpdater and LboUpdater query the registry by spec name
// and use the compiled kernels as their fast path (falling back to
// sparse-tape execution for specs without generated code, and, for
// Vlasov, always for central fluxes — the generated surface kernels bake
// in the penalty flux).
//
// Each generated kernel is one `template <int B>` function over an AoSoA
// block of B cells (mode-major, lane-minor: element i of cell b at
// [i*B + b]), with the cell index turned into an inner lane loop the
// compiler autovectorizes. It is instantiated once per kKernelLanes entry.
// At B = 1 the block layout is the plain cell layout, so the drivers call
// that instantiation straight on field memory for cells that do not fill a
// block. Per lane the floating-point operation order does not depend on B,
// which makes every lane count bitwise reproducible against B = 1
// (tests/test_batch.cpp).

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

namespace vdg {

/// Lane counts every generated kernel is instantiated at.
inline constexpr int kKernelLanes[] = {1, 4, 8};
inline constexpr int kNumKernelLanes = static_cast<int>(std::size(kKernelLanes));
/// The widest lane count (sizes the drivers' per-lane scratch arrays).
inline constexpr int kMaxKernelLanes = std::ranges::max(kKernelLanes);

/// The diffusion kernels of the LBO collision operator (collisions/lbo.hpp;
/// its drag term runs through the acceleration kernels). `vtSq` is the
/// configuration-space vth^2 expansion of one configuration cell, in plain
/// (not lane-blocked) layout: every velocity cell of the block shares it.
struct LboDiffusionKernels {
  using VolFn = void (*)(const double* dxv, const double* vtSq, const double* f, double* out);
  using SurfFn = void (*)(const double* dxv, const double* vtSq, const double* fl,
                          const double* fr, double* outl, double* outr);

  VolFn diffVol = nullptr;
  SurfFn diffSurf[3] = {nullptr, nullptr, nullptr};  ///< interior faces, per velocity dir
  VolFn diffBound[3][2] = {};  ///< zero-flux domain faces: [j][0] lower, [j][1] upper

  [[nodiscard]] bool complete(int vdim) const {
    if (!diffVol) return false;
    for (int j = 0; j < vdim; ++j)
      if (!diffSurf[j] || !diffBound[j][0] || !diffBound[j][1]) return false;
    return true;
  }
};

/// The kernels of one spec at one lane count B. Array arguments are blocks
/// of B cells in mode-major, lane-minor layout: element i of cell b lives
/// at [i*B + b]. The cell-geometry argument `w` is per-lane
/// ([dim*B + b]); `dxv` stays a single per-dimension vector (uniform
/// grids: every lane shares it). Kernels add into their outputs, and every
/// pointer argument is __restrict: outputs must not overlap any input or
/// each other.
struct CompiledKernelSet {
  int lanes = 0;  ///< B; 0 when this slot is empty

  /// Volume streaming: out += sum_d (2/dxv_d) C^d(v f).
  using StreamVolFn = void (*)(const double* w, const double* dxv, const double* f, double* out);
  /// Volume acceleration: out += sum_j (2/dxv_j) C^j(alpha_j f).
  using AccelVolFn = void (*)(const double* dxv, const double* alpha, const double* f,
                              double* out);
  using StreamSurfFn = void (*)(const double* w, const double* dxv, const double* fl,
                                const double* fr, double* outl, double* outr);
  using AccelSurfFn = void (*)(const double* dxv, const double* al, const double* ar,
                               const double* fl, const double* fr, double* outl, double* outr);

  StreamVolFn streamVol = nullptr;
  AccelVolFn accelVol = nullptr;
  StreamSurfFn streamSurf[3] = {nullptr, nullptr, nullptr};  ///< per config dir
  AccelSurfFn accelSurf[3] = {nullptr, nullptr, nullptr};    ///< per velocity dir

  LboDiffusionKernels lbo;

  /// True when every kernel the Vlasov updater needs is present.
  [[nodiscard]] bool complete(int cdim, int vdim) const {
    if (lanes <= 0 || !streamVol || !accelVol) return false;
    for (int d = 0; d < cdim; ++d)
      if (!streamSurf[d]) return false;
    for (int j = 0; j < vdim; ++j)
      if (!accelSurf[j]) return false;
    return true;
  }
};

/// The registry entry of one spec: its mode count and one kernel set per
/// lane count (sets[i] holds the kKernelLanes[i] instantiation; empty
/// slots have lanes == 0).
struct CompiledKernels {
  int numPhaseModes = 0;
  CompiledKernelSet sets[kNumKernelLanes] = {};

  /// The set with exactly `lanes` lanes and every kernel the Vlasov
  /// updater needs, or nullptr.
  [[nodiscard]] const CompiledKernelSet* find(int lanes, int cdim, int vdim) const {
    for (const CompiledKernelSet& s : sets)
      if (s.lanes == lanes && s.complete(cdim, vdim)) return &s;
    return nullptr;
  }

  /// Largest complete lane count on offer (0: none).
  [[nodiscard]] int maxLanes(int cdim, int vdim) const {
    int best = 0;
    for (const CompiledKernelSet& s : sets)
      if (s.complete(cdim, vdim) && s.lanes > best) best = s.lanes;
    return best;
  }
};

/// Look up compiled kernels for a spec name (BasisSpec::name()); nullptr if
/// no generated translation unit registered them.
const CompiledKernels* findCompiledKernels(const std::string& specName);

/// Called by generated code, once per spec. A repeated registration for the
/// same spec replaces the previous one ("last registration wins") but is
/// counted and logged to stderr, since it usually means two generated
/// translation units were linked for one spec — see
/// numDuplicateKernelRegistrations().
void registerCompiledKernels(const std::string& specName, const CompiledKernels& k);

/// Number of registered specs (for tests / diagnostics).
int numCompiledKernelSets();

/// Names of every registered spec, sorted (for tests / diagnostics).
std::vector<std::string> listCompiledKernelSpecs();

/// Human-readable startup diagnostics: one line per registered spec with
/// its mode count and the lane counts on offer, e.g.
///   "2x3v_p2_ser: 112 modes, lanes {1,4,8}".
/// This is the execution-path record ensemble/distributed drivers log so
/// archived runs state which kernel path produced them.
std::vector<std::string> describeCompiledKernelSpecs();

/// Log (once per distinct message, to stderr) which execution path a
/// Vlasov updater resolved for `specName`: compiled-vs-tape and the lane
/// count its cell loops block with. Deduplicated so ensemble campaigns
/// constructing hundreds of updaters emit each line once. Called when the
/// path is chosen, not per advance.
void logKernelDispatch(const std::string& specName, bool compiled, int lanes);

/// How many registerCompiledKernels calls overwrote an existing entry.
int numDuplicateKernelRegistrations();

}  // namespace vdg
