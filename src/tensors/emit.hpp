#pragma once
// C++ kernel source emission — the paper's central software methodology
// (Fig. 1, Section IV): Gkeyll pre-generates its per-cell update kernels
// with the Maxima CAS; less than 8% of the code is hand-written. Here the
// symbolic tensor layer plays the CAS role and this module renders the
// sparse tapes as standalone, fully unrolled C++ functions with all
// constants folded to double precision:
//
//   - volume streaming kernel   (Fig. 1: inputs w, dxv, f -> out)
//   - volume acceleration kernel (inputs dxv, alpha, f -> out)
//   - surface streaming kernel, one per configuration direction
//     (inputs w, dxv, f_left, f_right -> increments to both cells)
//   - surface acceleration kernel, one per velocity direction
//     (inputs dxv, alpha_left/right, f_left/right -> both cells)
//   - LBO diffusion volume kernel (inputs dxv, vtSq, f -> out)
//   - LBO diffusion interior-face (recovery) kernel, one per velocity
//     direction (inputs dxv, vtSq, f_left/right -> both cells)
//   - LBO diffusion zero-flux boundary kernel, one per velocity direction
//     and domain side (inputs dxv, vtSq, f -> out)
//
// The LBO drag term needs no kernels of its own: it is the acceleration
// pair above with alpha = u - v. The diffusion kernels take the
// configuration-space vth^2 coefficients (numConfModes values) that every
// velocity cell of one configuration cell shares.
//
// tools/gen_kernels renders whole kernel sets into src/kernels/gen/, which
// are compiled into the library and dispatched through kernels/registry.hpp
// (the solvers fall back to tape execution for specs without generated
// kernels). Tests assert generated == tape to machine precision.

#include <cstddef>
#include <string>

#include "basis/basis.hpp"

namespace vdg {

struct EmittedKernel {
  std::string source;  ///< compilable C++ function definition
  std::string functionName;
  std::size_t multiplies = 0;  ///< multiplications in the emitted body
  std::size_t adds = 0;
};

/// Every emitter below renders a scalar (one-cell) kernel by default.
/// With `batched = true` it renders the SIMD-batched AoSoA variant
/// instead: a `template <int B>` function whose body wraps the same
/// contraction in an inner lane loop over a block of B cells laid out
/// mode-major, lane-minor (element i of lane b at [i*B+b]), with
/// __restrict pointer parameters so the compiler autovectorizes across
/// cells. Per lane the floating-point operation order is identical to the
/// scalar kernel, keeping the batched path bitwise reproducible.

/// Volume streaming kernel: the exact DG volume integral of div_x (v f)
/// over all configuration directions (the paper's Fig. 1 kernel shape).
///   void f(const double* w, const double* dxv, const double* f, double* out)
[[nodiscard]] EmittedKernel emitStreamingVolumeKernel(const BasisSpec& spec,
                                                     bool batched = false);

/// Volume acceleration kernel: div_v (alpha f) over all velocity
/// directions; `alpha` is the per-cell flux expansion (vdim * Np).
///   void f(const double* dxv, const double* alpha, const double* f, double* out)
[[nodiscard]] EmittedKernel emitAccelVolumeKernel(const BasisSpec& spec, bool batched = false);

/// Surface streaming kernel for configuration direction `dir`: evaluates
/// the penalty (local Lax-Friedrichs) numerical flux on the shared face of
/// a left/right cell pair and lifts it into both cells.
///   void f(const double* w, const double* dxv,
///          const double* fl, const double* fr, double* outl, double* outr)
[[nodiscard]] EmittedKernel emitStreamingSurfaceKernel(const BasisSpec& spec, int dir,
                                                      bool batched = false);

/// Surface acceleration kernel for velocity direction `j` (phase dir
/// cdim + j), with per-side flux expansions as in paper Eq. 5.
///   void f(const double* dxv, const double* al, const double* ar,
///          const double* fl, const double* fr, double* outl, double* outr)
[[nodiscard]] EmittedKernel emitAccelSurfaceKernel(const BasisSpec& spec, int j,
                                                  bool batched = false);

/// LBO diffusion volume kernel: sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f
/// with D the configuration-space coefficient expansion vtSq.
///   void f(const double* dxv, const double* vtSq, const double* f, double* out)
[[nodiscard]] EmittedKernel emitLboDiffVolumeKernel(const BasisSpec& spec, bool batched = false);

/// LBO diffusion interior-face kernel for velocity direction `j`: the
/// recovery value and slope of the two-cell patch (tensors/dg_tensors.hpp
/// buildRecoveryWeights), multiplied by D on the face through the face
/// Gaunt tensor, lifted into both cells (flux term and value term).
///   void f(const double* dxv, const double* vtSq,
///          const double* fl, const double* fr, double* outl, double* outr)
[[nodiscard]] EmittedKernel emitLboDiffSurfaceKernel(const BasisSpec& spec, int j,
                                                    bool batched = false);

/// LBO diffusion kernel of the zero-flux velocity-domain boundary in
/// direction `j` on `side` (-1 lower, +1 upper): only the value term, from
/// the one-sided trace of the boundary cell.
///   void f(const double* dxv, const double* vtSq, const double* f, double* out)
[[nodiscard]] EmittedKernel emitLboDiffBoundaryKernel(const BasisSpec& spec, int j, int side,
                                                     bool batched = false);

/// Render the complete translation unit (all kernels above + registry
/// registration) for one spec. This is what tools/gen_kernels writes into
/// src/kernels/gen/.
[[nodiscard]] std::string emitKernelTranslationUnit(const BasisSpec& spec);

/// Render the sibling SIMD-batched translation unit (vlasov_<spec>_batch.cpp):
/// `template <int B>` AoSoA variants of every kernel above, instantiated
/// and registered for each kKernelBatchLanes entry via
/// registerBatchedKernels(). Compiled with the VDG_KERNEL_SIMD flags.
[[nodiscard]] std::string emitBatchedKernelTranslationUnit(const BasisSpec& spec);

}  // namespace vdg
