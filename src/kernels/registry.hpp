#pragma once
// Registry of pre-generated (CAS-emitted, compiled) Vlasov and LBO kernels.
//
// Generated translation units in kernels/gen/ register themselves here at
// static-initialization time; VlasovUpdater and LboUpdater query the
// registry by basis spec name and use the compiled kernels as a fast path
// (falling back to sparse-tape execution for specs without generated code,
// and, for Vlasov, always for central fluxes — the generated surface
// kernels bake in the penalty flux).
//
// Each spec may additionally carry SIMD-batched kernel variants (emitted
// into the sibling *_batch.cpp translation units): the same contractions
// with the cell index turned into an inner lane loop over an AoSoA block
// of B cells (mode-major, lane-minor), so the compiler autovectorizes
// across cells. Per lane the floating-point operation order is identical
// to the scalar kernel, which is what makes the batched execution path
// bitwise reproducible against the scalar one (tests/test_batch.cpp).

#include <string>
#include <vector>

namespace vdg {

/// Lane counts the generator emits batched kernel variants for.
inline constexpr int kKernelBatchLanes[] = {4, 8};
inline constexpr int kNumKernelBatchLanes = 2;

/// The diffusion kernels of the LBO collision operator (collisions/lbo.hpp;
/// its drag term runs through the acceleration kernels). `vtSq` is the
/// configuration-space vth^2 expansion of one configuration cell, in plain
/// (not lane-blocked) layout even in batched sets: every velocity cell of
/// the block shares it.
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

/// One batched (AoSoA) kernel set for a fixed lane count B. Array
/// arguments are blocks of B cells in mode-major, lane-minor layout:
/// element i of cell b lives at [i*B + b]. The cell-geometry argument `w`
/// is per-lane ([dim*B + b]); `dxv` stays a single per-dimension vector
/// (uniform grids: every lane shares it).
struct VlasovBatchedKernels {
  int lanes = 0;  ///< B; 0 when this slot is empty

  void (*streamVol)(const double* w, const double* dxv, const double* f, double* out) = nullptr;
  void (*accelVol)(const double* dxv, const double* alpha, const double* f,
                   double* out) = nullptr;

  using StreamSurfFn = void (*)(const double* w, const double* dxv, const double* fl,
                                const double* fr, double* outl, double* outr);
  using AccelSurfFn = void (*)(const double* dxv, const double* al, const double* ar,
                               const double* fl, const double* fr, double* outl, double* outr);

  StreamSurfFn streamSurf[3] = {nullptr, nullptr, nullptr};  ///< per config dir
  AccelSurfFn accelSurf[3] = {nullptr, nullptr, nullptr};    ///< per velocity dir

  LboDiffusionKernels lbo;  ///< batched variants (vtSq shared by the lanes)

  [[nodiscard]] bool complete(int cdim, int vdim) const {
    if (lanes <= 0 || !streamVol || !accelVol) return false;
    for (int d = 0; d < cdim; ++d)
      if (!streamSurf[d]) return false;
    for (int j = 0; j < vdim; ++j)
      if (!accelSurf[j]) return false;
    return true;
  }
};

struct VlasovCompiledKernels {
  int numPhaseModes = 0;

  /// Volume streaming: out += sum_d (2/dxv_d) C^d(v f).
  void (*streamVol)(const double* w, const double* dxv, const double* f, double* out) = nullptr;

  /// Volume acceleration: out += sum_j (2/dxv_j) C^j(alpha_j f).
  void (*accelVol)(const double* dxv, const double* alpha, const double* f,
                   double* out) = nullptr;

  using StreamSurfFn = void (*)(const double* w, const double* dxv, const double* fl,
                                const double* fr, double* outl, double* outr);
  using AccelSurfFn = void (*)(const double* dxv, const double* al, const double* ar,
                               const double* fl, const double* fr, double* outl, double* outr);

  StreamSurfFn streamSurf[3] = {nullptr, nullptr, nullptr};  ///< per config dir
  AccelSurfFn accelSurf[3] = {nullptr, nullptr, nullptr};    ///< per velocity dir

  LboDiffusionKernels lbo;

  /// Batched variants, one slot per kKernelBatchLanes entry (empty slots
  /// have lanes == 0; specs generated before the batched emitter, or
  /// registered by hand, simply offer no batched path).
  VlasovBatchedKernels batched[kNumKernelBatchLanes] = {};

  /// True when every scalar kernel the updater needs is present.
  [[nodiscard]] bool complete(int cdim, int vdim) const {
    if (!streamVol || !accelVol) return false;
    for (int d = 0; d < cdim; ++d)
      if (!streamSurf[d]) return false;
    for (int j = 0; j < vdim; ++j)
      if (!accelSurf[j]) return false;
    return true;
  }

  /// The batched set with exactly `lanes` lanes and every kernel the
  /// updater needs, or nullptr.
  [[nodiscard]] const VlasovBatchedKernels* findBatched(int lanes, int cdim, int vdim) const {
    for (const VlasovBatchedKernels& b : batched)
      if (b.lanes == lanes && b.complete(cdim, vdim)) return &b;
    return nullptr;
  }

  /// Largest complete batched lane count on offer (0: scalar only).
  [[nodiscard]] int maxBatchLanes(int cdim, int vdim) const {
    int best = 0;
    for (const VlasovBatchedKernels& b : batched)
      if (b.complete(cdim, vdim) && b.lanes > best) best = b.lanes;
    return best;
  }
};

/// Look up compiled kernels for a spec name (BasisSpec::name()); nullptr if
/// no generated translation unit registered them.
const VlasovCompiledKernels* findCompiledKernels(const std::string& specName);

/// Called by generated code. A repeated registration for the same spec
/// replaces the previous one ("last registration wins") but is counted and
/// logged to stderr, since it usually means two generated translation
/// units were linked for one spec — see numDuplicateKernelRegistrations().
/// The spec's batched slots are preserved across the replacement (scalar
/// and batched sets register from separate translation units).
void registerCompiledKernels(const std::string& specName, const VlasovCompiledKernels& k);

/// Called by the generated *_batch translation units: attach a batched
/// kernel set to the spec's registry entry (creating the entry if the
/// batched unit registers first). One slot per lane count; re-registering
/// the same lane count overwrites it silently (the manifest registers each
/// exactly once).
void registerBatchedKernels(const std::string& specName, const VlasovBatchedKernels& b);

/// Number of registered kernel sets (for tests / diagnostics).
int numCompiledKernelSets();

/// Names of every registered spec, sorted (for tests / diagnostics).
std::vector<std::string> listCompiledKernelSpecs();

/// Human-readable startup diagnostics: one line per registered spec with
/// its mode count and the batched lane counts on offer, e.g.
///   "2x3v_p2_ser: 112 modes, batch lanes {4,8}".
/// This is the execution-path record ensemble/distributed drivers log so
/// archived runs state which kernel path produced them.
std::vector<std::string> describeCompiledKernelSpecs();

/// Log (once per distinct message, to stderr) which execution path a
/// Vlasov updater resolved for `specName`: compiled-vs-tape and, when
/// batched, the chosen lane count. Deduplicated so ensemble campaigns
/// constructing hundreds of updaters emit each line once.
void logKernelDispatch(const std::string& specName, bool compiled, int batchLanes);

/// How many registerCompiledKernels calls overwrote an existing entry.
int numDuplicateKernelRegistrations();

}  // namespace vdg
