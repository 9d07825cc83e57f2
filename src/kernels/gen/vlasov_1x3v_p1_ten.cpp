// ============================================================================
// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the
// 1x3v_p1_ten basis, rendered from the symbolically integrated sparse
// tensors with all constants folded to double precision (the paper's
// Maxima-CAS workflow).
// Each kernel updates an AoSoA block of B cells (mode-major, lane-minor:
// element i of lane b at [i*B+b]) in an inner lane loop the compiler
// autovectorizes; at B = 1 the block is one cell in its plain layout. The
// kernels are instantiated for B in {1,4,8}, and per lane the FP operation
// order does not depend on B (tests/test_batch.cpp). This translation unit
// is compiled with the VDG_KERNEL_SIMD flags (wider ISA + -ffp-contract=off).
// Regenerate with: gen_kernels <output-dir>
// ============================================================================
// clang-format off
#include <cmath>

#include "kernels/registry.hpp"

namespace vdg::gen_1x3v_p1_ten {
namespace {

// Volume streaming kernel (exact DG volume integral of div_x (v f)),
// auto-generated for the 1x3v_p1_ten basis (16 DOF/cell).
// Inputs: cell centers w, cell size dxv, distribution coefficients f;
// out is incremented with the forward-Euler volume contribution.
template <int B>
void vlasov_1x3v_p1_ten_stream_vol(const double* __restrict w, const double* __restrict dxv, const double* __restrict f, double* __restrict out) {
  const double rdx2_0 = 2.0/dxv[0];
  const double hdv_0 = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv_0 = w[1*B+b];
    out[1*B+b] += rdx2_0*((1.7320508075688801*wv_0)*f[0*B+b] + (1.0000000000000011*hdv_0)*f[2*B+b]);
    out[5*B+b] += rdx2_0*((1.0000000000000011*hdv_0)*f[0*B+b] + (1.732050807568879*wv_0)*f[2*B+b]);
    out[6*B+b] += rdx2_0*((1.7320508075688794*wv_0)*f[3*B+b] + (1.0000000000000009*hdv_0)*f[8*B+b]);
    out[7*B+b] += rdx2_0*((1.7320508075688794*wv_0)*f[4*B+b] + (1.0000000000000009*hdv_0)*f[9*B+b]);
    out[11*B+b] += rdx2_0*((1.0000000000000009*hdv_0)*f[3*B+b] + (1.7320508075688787*wv_0)*f[8*B+b]);
    out[12*B+b] += rdx2_0*((1.0000000000000009*hdv_0)*f[4*B+b] + (1.7320508075688785*wv_0)*f[9*B+b]);
    out[13*B+b] += rdx2_0*((1.7320508075688787*wv_0)*f[10*B+b] + (1.0000000000000007*hdv_0)*f[14*B+b]);
    out[15*B+b] += rdx2_0*((1.0000000000000007*hdv_0)*f[10*B+b] + (1.7320508075688783*wv_0)*f[14*B+b]);
  }
}

// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));
// alpha is the per-cell phase-space flux expansion, vdim x 16 coefficients.
template <int B>
void vlasov_1x3v_p1_ten_accel_vol(const double* __restrict dxv, const double* __restrict alpha, const double* __restrict f, double* __restrict out) {
  const double rdv2_0 = 2.0/dxv[1];
  const double rdv2_1 = 2.0/dxv[2];
  const double rdv2_2 = 2.0/dxv[3];
  for (int b = 0; b < B; ++b) {
    out[2*B+b] += rdv2_0*(0.43301270189222002*alpha[0*B+b]*f[0*B+b] + 0.43301270189221974*alpha[1*B+b]*f[1*B+b] + 0.43301270189221974*alpha[2*B+b]*f[2*B+b] + 0.43301270189221985*alpha[3*B+b]*f[3*B+b] + 0.43301270189221985*alpha[4*B+b]*f[4*B+b] + 0.43301270189221963*alpha[5*B+b]*f[5*B+b] + 0.43301270189221969*alpha[6*B+b]*f[6*B+b] + 0.43301270189221963*alpha[7*B+b]*f[7*B+b] + 0.43301270189221969*alpha[8*B+b]*f[8*B+b] + 0.43301270189221963*alpha[9*B+b]*f[9*B+b] + 0.43301270189221969*alpha[10*B+b]*f[10*B+b] + 0.43301270189221952*alpha[11*B+b]*f[11*B+b] + 0.43301270189221946*alpha[12*B+b]*f[12*B+b] + 0.43301270189221958*alpha[13*B+b]*f[13*B+b] + 0.43301270189221958*alpha[14*B+b]*f[14*B+b] + 0.43301270189221941*alpha[15*B+b]*f[15*B+b]);
    out[5*B+b] += rdv2_0*(0.43301270189221974*alpha[0*B+b]*f[1*B+b] + 0.43301270189221974*alpha[1*B+b]*f[0*B+b] + 0.43301270189221963*alpha[2*B+b]*f[5*B+b] + 0.43301270189221969*alpha[3*B+b]*f[6*B+b] + 0.43301270189221963*alpha[4*B+b]*f[7*B+b] + 0.43301270189221963*alpha[5*B+b]*f[2*B+b] + 0.43301270189221969*alpha[6*B+b]*f[3*B+b] + 0.43301270189221963*alpha[7*B+b]*f[4*B+b] + 0.43301270189221952*alpha[8*B+b]*f[11*B+b] + 0.43301270189221946*alpha[9*B+b]*f[12*B+b] + 0.43301270189221958*alpha[10*B+b]*f[13*B+b] + 0.43301270189221952*alpha[11*B+b]*f[8*B+b] + 0.43301270189221946*alpha[12*B+b]*f[9*B+b] + 0.43301270189221958*alpha[13*B+b]*f[10*B+b] + 0.43301270189221941*alpha[14*B+b]*f[15*B+b] + 0.43301270189221941*alpha[15*B+b]*f[14*B+b]);
    out[8*B+b] += rdv2_0*(0.43301270189221985*alpha[0*B+b]*f[3*B+b] + 0.43301270189221969*alpha[1*B+b]*f[6*B+b] + 0.43301270189221969*alpha[2*B+b]*f[8*B+b] + 0.43301270189221985*alpha[3*B+b]*f[0*B+b] + 0.43301270189221969*alpha[4*B+b]*f[10*B+b] + 0.43301270189221952*alpha[5*B+b]*f[11*B+b] + 0.43301270189221969*alpha[6*B+b]*f[1*B+b] + 0.43301270189221958*alpha[7*B+b]*f[13*B+b] + 0.43301270189221969*alpha[8*B+b]*f[2*B+b] + 0.43301270189221958*alpha[9*B+b]*f[14*B+b] + 0.43301270189221969*alpha[10*B+b]*f[4*B+b] + 0.43301270189221952*alpha[11*B+b]*f[5*B+b] + 0.43301270189221941*alpha[12*B+b]*f[15*B+b] + 0.43301270189221958*alpha[13*B+b]*f[7*B+b] + 0.43301270189221958*alpha[14*B+b]*f[9*B+b] + 0.43301270189221941*alpha[15*B+b]*f[12*B+b]);
    out[9*B+b] += rdv2_0*(0.43301270189221985*alpha[0*B+b]*f[4*B+b] + 0.43301270189221963*alpha[1*B+b]*f[7*B+b] + 0.43301270189221963*alpha[2*B+b]*f[9*B+b] + 0.43301270189221969*alpha[3*B+b]*f[10*B+b] + 0.43301270189221985*alpha[4*B+b]*f[0*B+b] + 0.43301270189221946*alpha[5*B+b]*f[12*B+b] + 0.43301270189221958*alpha[6*B+b]*f[13*B+b] + 0.43301270189221963*alpha[7*B+b]*f[1*B+b] + 0.43301270189221958*alpha[8*B+b]*f[14*B+b] + 0.43301270189221963*alpha[9*B+b]*f[2*B+b] + 0.43301270189221969*alpha[10*B+b]*f[3*B+b] + 0.43301270189221941*alpha[11*B+b]*f[15*B+b] + 0.43301270189221946*alpha[12*B+b]*f[5*B+b] + 0.43301270189221958*alpha[13*B+b]*f[6*B+b] + 0.43301270189221958*alpha[14*B+b]*f[8*B+b] + 0.43301270189221941*alpha[15*B+b]*f[11*B+b]);
    out[11*B+b] += rdv2_0*(0.43301270189221969*alpha[0*B+b]*f[6*B+b] + 0.43301270189221969*alpha[1*B+b]*f[3*B+b] + 0.43301270189221952*alpha[2*B+b]*f[11*B+b] + 0.43301270189221969*alpha[3*B+b]*f[1*B+b] + 0.43301270189221958*alpha[4*B+b]*f[13*B+b] + 0.43301270189221952*alpha[5*B+b]*f[8*B+b] + 0.43301270189221969*alpha[6*B+b]*f[0*B+b] + 0.43301270189221958*alpha[7*B+b]*f[10*B+b] + 0.43301270189221952*alpha[8*B+b]*f[5*B+b] + 0.43301270189221941*alpha[9*B+b]*f[15*B+b] + 0.43301270189221958*alpha[10*B+b]*f[7*B+b] + 0.43301270189221952*alpha[11*B+b]*f[2*B+b] + 0.43301270189221941*alpha[12*B+b]*f[14*B+b] + 0.43301270189221958*alpha[13*B+b]*f[4*B+b] + 0.43301270189221941*alpha[14*B+b]*f[12*B+b] + 0.43301270189221941*alpha[15*B+b]*f[9*B+b]);
    out[12*B+b] += rdv2_0*(0.43301270189221963*alpha[0*B+b]*f[7*B+b] + 0.43301270189221963*alpha[1*B+b]*f[4*B+b] + 0.43301270189221946*alpha[2*B+b]*f[12*B+b] + 0.43301270189221958*alpha[3*B+b]*f[13*B+b] + 0.43301270189221963*alpha[4*B+b]*f[1*B+b] + 0.43301270189221946*alpha[5*B+b]*f[9*B+b] + 0.43301270189221958*alpha[6*B+b]*f[10*B+b] + 0.43301270189221963*alpha[7*B+b]*f[0*B+b] + 0.43301270189221941*alpha[8*B+b]*f[15*B+b] + 0.43301270189221946*alpha[9*B+b]*f[5*B+b] + 0.43301270189221958*alpha[10*B+b]*f[6*B+b] + 0.43301270189221941*alpha[11*B+b]*f[14*B+b] + 0.43301270189221946*alpha[12*B+b]*f[2*B+b] + 0.43301270189221958*alpha[13*B+b]*f[3*B+b] + 0.43301270189221941*alpha[14*B+b]*f[11*B+b] + 0.43301270189221941*alpha[15*B+b]*f[8*B+b]);
    out[14*B+b] += rdv2_0*(0.43301270189221969*alpha[0*B+b]*f[10*B+b] + 0.43301270189221958*alpha[1*B+b]*f[13*B+b] + 0.43301270189221958*alpha[2*B+b]*f[14*B+b] + 0.43301270189221969*alpha[3*B+b]*f[4*B+b] + 0.43301270189221969*alpha[4*B+b]*f[3*B+b] + 0.43301270189221941*alpha[5*B+b]*f[15*B+b] + 0.43301270189221958*alpha[6*B+b]*f[7*B+b] + 0.43301270189221958*alpha[7*B+b]*f[6*B+b] + 0.43301270189221958*alpha[8*B+b]*f[9*B+b] + 0.43301270189221958*alpha[9*B+b]*f[8*B+b] + 0.43301270189221969*alpha[10*B+b]*f[0*B+b] + 0.43301270189221941*alpha[11*B+b]*f[12*B+b] + 0.43301270189221941*alpha[12*B+b]*f[11*B+b] + 0.43301270189221958*alpha[13*B+b]*f[1*B+b] + 0.43301270189221958*alpha[14*B+b]*f[2*B+b] + 0.43301270189221941*alpha[15*B+b]*f[5*B+b]);
    out[15*B+b] += rdv2_0*(0.43301270189221958*alpha[0*B+b]*f[13*B+b] + 0.43301270189221958*alpha[1*B+b]*f[10*B+b] + 0.43301270189221941*alpha[2*B+b]*f[15*B+b] + 0.43301270189221958*alpha[3*B+b]*f[7*B+b] + 0.43301270189221958*alpha[4*B+b]*f[6*B+b] + 0.43301270189221941*alpha[5*B+b]*f[14*B+b] + 0.43301270189221958*alpha[6*B+b]*f[4*B+b] + 0.43301270189221958*alpha[7*B+b]*f[3*B+b] + 0.43301270189221941*alpha[8*B+b]*f[12*B+b] + 0.43301270189221941*alpha[9*B+b]*f[11*B+b] + 0.43301270189221958*alpha[10*B+b]*f[1*B+b] + 0.43301270189221941*alpha[11*B+b]*f[9*B+b] + 0.43301270189221941*alpha[12*B+b]*f[8*B+b] + 0.43301270189221958*alpha[13*B+b]*f[0*B+b] + 0.43301270189221941*alpha[14*B+b]*f[5*B+b] + 0.43301270189221941*alpha[15*B+b]*f[2*B+b]);
    out[3*B+b] += rdv2_1*(0.43301270189221991*alpha[16*B+b]*f[0*B+b] + 0.43301270189221974*alpha[17*B+b]*f[1*B+b] + 0.43301270189221974*alpha[18*B+b]*f[2*B+b] + 0.43301270189221974*alpha[19*B+b]*f[3*B+b] + 0.4330127018922198*alpha[20*B+b]*f[4*B+b] + 0.43301270189221969*alpha[21*B+b]*f[5*B+b] + 0.43301270189221963*alpha[22*B+b]*f[6*B+b] + 0.43301270189221963*alpha[23*B+b]*f[7*B+b] + 0.43301270189221963*alpha[24*B+b]*f[8*B+b] + 0.43301270189221963*alpha[25*B+b]*f[9*B+b] + 0.43301270189221963*alpha[26*B+b]*f[10*B+b] + 0.43301270189221952*alpha[27*B+b]*f[11*B+b] + 0.43301270189221958*alpha[28*B+b]*f[12*B+b] + 0.43301270189221946*alpha[29*B+b]*f[13*B+b] + 0.43301270189221946*alpha[30*B+b]*f[14*B+b] + 0.43301270189221941*alpha[31*B+b]*f[15*B+b]);
    out[6*B+b] += rdv2_1*(0.43301270189221974*alpha[16*B+b]*f[1*B+b] + 0.43301270189221974*alpha[17*B+b]*f[0*B+b] + 0.43301270189221969*alpha[18*B+b]*f[5*B+b] + 0.43301270189221963*alpha[19*B+b]*f[6*B+b] + 0.43301270189221963*alpha[20*B+b]*f[7*B+b] + 0.43301270189221969*alpha[21*B+b]*f[2*B+b] + 0.43301270189221963*alpha[22*B+b]*f[3*B+b] + 0.43301270189221963*alpha[23*B+b]*f[4*B+b] + 0.43301270189221952*alpha[24*B+b]*f[11*B+b] + 0.43301270189221958*alpha[25*B+b]*f[12*B+b] + 0.43301270189221946*alpha[26*B+b]*f[13*B+b] + 0.43301270189221952*alpha[27*B+b]*f[8*B+b] + 0.43301270189221958*alpha[28*B+b]*f[9*B+b] + 0.43301270189221946*alpha[29*B+b]*f[10*B+b] + 0.43301270189221941*alpha[30*B+b]*f[15*B+b] + 0.43301270189221941*alpha[31*B+b]*f[14*B+b]);
    out[8*B+b] += rdv2_1*(0.43301270189221974*alpha[16*B+b]*f[2*B+b] + 0.43301270189221969*alpha[17*B+b]*f[5*B+b] + 0.43301270189221974*alpha[18*B+b]*f[0*B+b] + 0.43301270189221963*alpha[19*B+b]*f[8*B+b] + 0.43301270189221963*alpha[20*B+b]*f[9*B+b] + 0.43301270189221969*alpha[21*B+b]*f[1*B+b] + 0.43301270189221952*alpha[22*B+b]*f[11*B+b] + 0.43301270189221958*alpha[23*B+b]*f[12*B+b] + 0.43301270189221963*alpha[24*B+b]*f[3*B+b] + 0.43301270189221963*alpha[25*B+b]*f[4*B+b] + 0.43301270189221946*alpha[26*B+b]*f[14*B+b] + 0.43301270189221952*alpha[27*B+b]*f[6*B+b] + 0.43301270189221958*alpha[28*B+b]*f[7*B+b] + 0.43301270189221941*alpha[29*B+b]*f[15*B+b] + 0.43301270189221946*alpha[30*B+b]*f[10*B+b] + 0.43301270189221941*alpha[31*B+b]*f[13*B+b]);
    out[10*B+b] += rdv2_1*(0.4330127018922198*alpha[16*B+b]*f[4*B+b] + 0.43301270189221963*alpha[17*B+b]*f[7*B+b] + 0.43301270189221963*alpha[18*B+b]*f[9*B+b] + 0.43301270189221963*alpha[19*B+b]*f[10*B+b] + 0.4330127018922198*alpha[20*B+b]*f[0*B+b] + 0.43301270189221958*alpha[21*B+b]*f[12*B+b] + 0.43301270189221946*alpha[22*B+b]*f[13*B+b] + 0.43301270189221963*alpha[23*B+b]*f[1*B+b] + 0.43301270189221946*alpha[24*B+b]*f[14*B+b] + 0.43301270189221963*alpha[25*B+b]*f[2*B+b] + 0.43301270189221963*alpha[26*B+b]*f[3*B+b] + 0.43301270189221941*alpha[27*B+b]*f[15*B+b] + 0.43301270189221958*alpha[28*B+b]*f[5*B+b] + 0.43301270189221946*alpha[29*B+b]*f[6*B+b] + 0.43301270189221946*alpha[30*B+b]*f[8*B+b] + 0.43301270189221941*alpha[31*B+b]*f[11*B+b]);
    out[11*B+b] += rdv2_1*(0.43301270189221969*alpha[16*B+b]*f[5*B+b] + 0.43301270189221969*alpha[17*B+b]*f[2*B+b] + 0.43301270189221969*alpha[18*B+b]*f[1*B+b] + 0.43301270189221952*alpha[19*B+b]*f[11*B+b] + 0.43301270189221958*alpha[20*B+b]*f[12*B+b] + 0.43301270189221969*alpha[21*B+b]*f[0*B+b] + 0.43301270189221952*alpha[22*B+b]*f[8*B+b] + 0.43301270189221958*alpha[23*B+b]*f[9*B+b] + 0.43301270189221952*alpha[24*B+b]*f[6*B+b] + 0.43301270189221958*alpha[25*B+b]*f[7*B+b] + 0.43301270189221941*alpha[26*B+b]*f[15*B+b] + 0.43301270189221952*alpha[27*B+b]*f[3*B+b] + 0.43301270189221958*alpha[28*B+b]*f[4*B+b] + 0.43301270189221941*alpha[29*B+b]*f[14*B+b] + 0.43301270189221941*alpha[30*B+b]*f[13*B+b] + 0.43301270189221941*alpha[31*B+b]*f[10*B+b]);
    out[13*B+b] += rdv2_1*(0.43301270189221963*alpha[16*B+b]*f[7*B+b] + 0.43301270189221963*alpha[17*B+b]*f[4*B+b] + 0.43301270189221958*alpha[18*B+b]*f[12*B+b] + 0.43301270189221946*alpha[19*B+b]*f[13*B+b] + 0.43301270189221963*alpha[20*B+b]*f[1*B+b] + 0.43301270189221958*alpha[21*B+b]*f[9*B+b] + 0.43301270189221946*alpha[22*B+b]*f[10*B+b] + 0.43301270189221963*alpha[23*B+b]*f[0*B+b] + 0.43301270189221941*alpha[24*B+b]*f[15*B+b] + 0.43301270189221958*alpha[25*B+b]*f[5*B+b] + 0.43301270189221946*alpha[26*B+b]*f[6*B+b] + 0.43301270189221941*alpha[27*B+b]*f[14*B+b] + 0.43301270189221958*alpha[28*B+b]*f[2*B+b] + 0.43301270189221946*alpha[29*B+b]*f[3*B+b] + 0.43301270189221941*alpha[30*B+b]*f[11*B+b] + 0.43301270189221941*alpha[31*B+b]*f[8*B+b]);
    out[14*B+b] += rdv2_1*(0.43301270189221963*alpha[16*B+b]*f[9*B+b] + 0.43301270189221958*alpha[17*B+b]*f[12*B+b] + 0.43301270189221963*alpha[18*B+b]*f[4*B+b] + 0.43301270189221946*alpha[19*B+b]*f[14*B+b] + 0.43301270189221963*alpha[20*B+b]*f[2*B+b] + 0.43301270189221958*alpha[21*B+b]*f[7*B+b] + 0.43301270189221941*alpha[22*B+b]*f[15*B+b] + 0.43301270189221958*alpha[23*B+b]*f[5*B+b] + 0.43301270189221946*alpha[24*B+b]*f[10*B+b] + 0.43301270189221963*alpha[25*B+b]*f[0*B+b] + 0.43301270189221946*alpha[26*B+b]*f[8*B+b] + 0.43301270189221941*alpha[27*B+b]*f[13*B+b] + 0.43301270189221958*alpha[28*B+b]*f[1*B+b] + 0.43301270189221941*alpha[29*B+b]*f[11*B+b] + 0.43301270189221946*alpha[30*B+b]*f[3*B+b] + 0.43301270189221941*alpha[31*B+b]*f[6*B+b]);
    out[15*B+b] += rdv2_1*(0.43301270189221958*alpha[16*B+b]*f[12*B+b] + 0.43301270189221958*alpha[17*B+b]*f[9*B+b] + 0.43301270189221958*alpha[18*B+b]*f[7*B+b] + 0.43301270189221941*alpha[19*B+b]*f[15*B+b] + 0.43301270189221958*alpha[20*B+b]*f[5*B+b] + 0.43301270189221958*alpha[21*B+b]*f[4*B+b] + 0.43301270189221941*alpha[22*B+b]*f[14*B+b] + 0.43301270189221958*alpha[23*B+b]*f[2*B+b] + 0.43301270189221941*alpha[24*B+b]*f[13*B+b] + 0.43301270189221958*alpha[25*B+b]*f[1*B+b] + 0.43301270189221941*alpha[26*B+b]*f[11*B+b] + 0.43301270189221941*alpha[27*B+b]*f[10*B+b] + 0.43301270189221958*alpha[28*B+b]*f[0*B+b] + 0.43301270189221941*alpha[29*B+b]*f[8*B+b] + 0.43301270189221941*alpha[30*B+b]*f[6*B+b] + 0.43301270189221941*alpha[31*B+b]*f[3*B+b]);
    out[4*B+b] += rdv2_2*(0.43301270189221985*alpha[32*B+b]*f[0*B+b] + 0.4330127018922198*alpha[33*B+b]*f[1*B+b] + 0.4330127018922198*alpha[34*B+b]*f[2*B+b] + 0.43301270189221974*alpha[35*B+b]*f[3*B+b] + 0.43301270189221974*alpha[36*B+b]*f[4*B+b] + 0.43301270189221969*alpha[37*B+b]*f[5*B+b] + 0.43301270189221969*alpha[38*B+b]*f[6*B+b] + 0.43301270189221963*alpha[39*B+b]*f[7*B+b] + 0.43301270189221969*alpha[40*B+b]*f[8*B+b] + 0.43301270189221963*alpha[41*B+b]*f[9*B+b] + 0.43301270189221958*alpha[42*B+b]*f[10*B+b] + 0.43301270189221952*alpha[43*B+b]*f[11*B+b] + 0.43301270189221952*alpha[44*B+b]*f[12*B+b] + 0.43301270189221952*alpha[45*B+b]*f[13*B+b] + 0.43301270189221952*alpha[46*B+b]*f[14*B+b] + 0.43301270189221941*alpha[47*B+b]*f[15*B+b]);
    out[7*B+b] += rdv2_2*(0.4330127018922198*alpha[32*B+b]*f[1*B+b] + 0.4330127018922198*alpha[33*B+b]*f[0*B+b] + 0.43301270189221969*alpha[34*B+b]*f[5*B+b] + 0.43301270189221969*alpha[35*B+b]*f[6*B+b] + 0.43301270189221963*alpha[36*B+b]*f[7*B+b] + 0.43301270189221969*alpha[37*B+b]*f[2*B+b] + 0.43301270189221969*alpha[38*B+b]*f[3*B+b] + 0.43301270189221963*alpha[39*B+b]*f[4*B+b] + 0.43301270189221952*alpha[40*B+b]*f[11*B+b] + 0.43301270189221952*alpha[41*B+b]*f[12*B+b] + 0.43301270189221952*alpha[42*B+b]*f[13*B+b] + 0.43301270189221952*alpha[43*B+b]*f[8*B+b] + 0.43301270189221952*alpha[44*B+b]*f[9*B+b] + 0.43301270189221952*alpha[45*B+b]*f[10*B+b] + 0.43301270189221941*alpha[46*B+b]*f[15*B+b] + 0.43301270189221941*alpha[47*B+b]*f[14*B+b]);
    out[9*B+b] += rdv2_2*(0.4330127018922198*alpha[32*B+b]*f[2*B+b] + 0.43301270189221969*alpha[33*B+b]*f[5*B+b] + 0.4330127018922198*alpha[34*B+b]*f[0*B+b] + 0.43301270189221969*alpha[35*B+b]*f[8*B+b] + 0.43301270189221963*alpha[36*B+b]*f[9*B+b] + 0.43301270189221969*alpha[37*B+b]*f[1*B+b] + 0.43301270189221952*alpha[38*B+b]*f[11*B+b] + 0.43301270189221952*alpha[39*B+b]*f[12*B+b] + 0.43301270189221969*alpha[40*B+b]*f[3*B+b] + 0.43301270189221963*alpha[41*B+b]*f[4*B+b] + 0.43301270189221952*alpha[42*B+b]*f[14*B+b] + 0.43301270189221952*alpha[43*B+b]*f[6*B+b] + 0.43301270189221952*alpha[44*B+b]*f[7*B+b] + 0.43301270189221941*alpha[45*B+b]*f[15*B+b] + 0.43301270189221952*alpha[46*B+b]*f[10*B+b] + 0.43301270189221941*alpha[47*B+b]*f[13*B+b]);
    out[10*B+b] += rdv2_2*(0.43301270189221974*alpha[32*B+b]*f[3*B+b] + 0.43301270189221969*alpha[33*B+b]*f[6*B+b] + 0.43301270189221969*alpha[34*B+b]*f[8*B+b] + 0.43301270189221974*alpha[35*B+b]*f[0*B+b] + 0.43301270189221958*alpha[36*B+b]*f[10*B+b] + 0.43301270189221952*alpha[37*B+b]*f[11*B+b] + 0.43301270189221969*alpha[38*B+b]*f[1*B+b] + 0.43301270189221952*alpha[39*B+b]*f[13*B+b] + 0.43301270189221969*alpha[40*B+b]*f[2*B+b] + 0.43301270189221952*alpha[41*B+b]*f[14*B+b] + 0.43301270189221958*alpha[42*B+b]*f[4*B+b] + 0.43301270189221952*alpha[43*B+b]*f[5*B+b] + 0.43301270189221941*alpha[44*B+b]*f[15*B+b] + 0.43301270189221952*alpha[45*B+b]*f[7*B+b] + 0.43301270189221952*alpha[46*B+b]*f[9*B+b] + 0.43301270189221941*alpha[47*B+b]*f[12*B+b]);
    out[12*B+b] += rdv2_2*(0.43301270189221969*alpha[32*B+b]*f[5*B+b] + 0.43301270189221969*alpha[33*B+b]*f[2*B+b] + 0.43301270189221969*alpha[34*B+b]*f[1*B+b] + 0.43301270189221952*alpha[35*B+b]*f[11*B+b] + 0.43301270189221952*alpha[36*B+b]*f[12*B+b] + 0.43301270189221969*alpha[37*B+b]*f[0*B+b] + 0.43301270189221952*alpha[38*B+b]*f[8*B+b] + 0.43301270189221952*alpha[39*B+b]*f[9*B+b] + 0.43301270189221952*alpha[40*B+b]*f[6*B+b] + 0.43301270189221952*alpha[41*B+b]*f[7*B+b] + 0.43301270189221941*alpha[42*B+b]*f[15*B+b] + 0.43301270189221952*alpha[43*B+b]*f[3*B+b] + 0.43301270189221952*alpha[44*B+b]*f[4*B+b] + 0.43301270189221941*alpha[45*B+b]*f[14*B+b] + 0.43301270189221941*alpha[46*B+b]*f[13*B+b] + 0.43301270189221941*alpha[47*B+b]*f[10*B+b]);
    out[13*B+b] += rdv2_2*(0.43301270189221969*alpha[32*B+b]*f[6*B+b] + 0.43301270189221969*alpha[33*B+b]*f[3*B+b] + 0.43301270189221952*alpha[34*B+b]*f[11*B+b] + 0.43301270189221969*alpha[35*B+b]*f[1*B+b] + 0.43301270189221952*alpha[36*B+b]*f[13*B+b] + 0.43301270189221952*alpha[37*B+b]*f[8*B+b] + 0.43301270189221969*alpha[38*B+b]*f[0*B+b] + 0.43301270189221952*alpha[39*B+b]*f[10*B+b] + 0.43301270189221952*alpha[40*B+b]*f[5*B+b] + 0.43301270189221941*alpha[41*B+b]*f[15*B+b] + 0.43301270189221952*alpha[42*B+b]*f[7*B+b] + 0.43301270189221952*alpha[43*B+b]*f[2*B+b] + 0.43301270189221941*alpha[44*B+b]*f[14*B+b] + 0.43301270189221952*alpha[45*B+b]*f[4*B+b] + 0.43301270189221941*alpha[46*B+b]*f[12*B+b] + 0.43301270189221941*alpha[47*B+b]*f[9*B+b]);
    out[14*B+b] += rdv2_2*(0.43301270189221969*alpha[32*B+b]*f[8*B+b] + 0.43301270189221952*alpha[33*B+b]*f[11*B+b] + 0.43301270189221969*alpha[34*B+b]*f[3*B+b] + 0.43301270189221969*alpha[35*B+b]*f[2*B+b] + 0.43301270189221952*alpha[36*B+b]*f[14*B+b] + 0.43301270189221952*alpha[37*B+b]*f[6*B+b] + 0.43301270189221952*alpha[38*B+b]*f[5*B+b] + 0.43301270189221941*alpha[39*B+b]*f[15*B+b] + 0.43301270189221969*alpha[40*B+b]*f[0*B+b] + 0.43301270189221952*alpha[41*B+b]*f[10*B+b] + 0.43301270189221952*alpha[42*B+b]*f[9*B+b] + 0.43301270189221952*alpha[43*B+b]*f[1*B+b] + 0.43301270189221941*alpha[44*B+b]*f[13*B+b] + 0.43301270189221941*alpha[45*B+b]*f[12*B+b] + 0.43301270189221952*alpha[46*B+b]*f[4*B+b] + 0.43301270189221941*alpha[47*B+b]*f[7*B+b]);
    out[15*B+b] += rdv2_2*(0.43301270189221952*alpha[32*B+b]*f[11*B+b] + 0.43301270189221952*alpha[33*B+b]*f[8*B+b] + 0.43301270189221952*alpha[34*B+b]*f[6*B+b] + 0.43301270189221952*alpha[35*B+b]*f[5*B+b] + 0.43301270189221941*alpha[36*B+b]*f[15*B+b] + 0.43301270189221952*alpha[37*B+b]*f[3*B+b] + 0.43301270189221952*alpha[38*B+b]*f[2*B+b] + 0.43301270189221941*alpha[39*B+b]*f[14*B+b] + 0.43301270189221952*alpha[40*B+b]*f[1*B+b] + 0.43301270189221941*alpha[41*B+b]*f[13*B+b] + 0.43301270189221941*alpha[42*B+b]*f[12*B+b] + 0.43301270189221952*alpha[43*B+b]*f[0*B+b] + 0.43301270189221941*alpha[44*B+b]*f[10*B+b] + 0.43301270189221941*alpha[45*B+b]*f[9*B+b] + 0.43301270189221941*alpha[46*B+b]*f[7*B+b] + 0.43301270189221941*alpha[47*B+b]*f[4*B+b]);
  }
}

// Surface streaming kernel, configuration direction 0:
// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared
// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).
template <int B>
void vlasov_1x3v_p1_ten_stream_surf0(const double* __restrict w, const double* __restrict dxv, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[0];
  const double hdv = 0.5*dxv[1];
  for (int b = 0; b < B; ++b) {
    const double wv = w[1*B+b];
    const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[1*B+b];
    const double fL1 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[5*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fL4 = 0.70710678118654757*fl[8*B+b] + 1.2247448713915889*fl[11*B+b];
    const double fL5 = 0.70710678118654757*fl[9*B+b] + 1.2247448713915889*fl[12*B+b];
    const double fL6 = 0.70710678118654757*fl[10*B+b] + 1.2247448713915889*fl[13*B+b];
    const double fL7 = 0.70710678118654757*fl[14*B+b] + 1.2247448713915889*fl[15*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[1*B+b];
    const double fR1 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[5*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[6*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b] - 1.2247448713915889*fr[7*B+b];
    const double fR4 = 0.70710678118654757*fr[8*B+b] - 1.2247448713915889*fr[11*B+b];
    const double fR5 = 0.70710678118654757*fr[9*B+b] - 1.2247448713915889*fr[12*B+b];
    const double fR6 = 0.70710678118654757*fr[10*B+b] - 1.2247448713915889*fr[13*B+b];
    const double fR7 = 0.70710678118654757*fr[14*B+b] - 1.2247448713915889*fr[15*B+b];
    const double favg0 = 0.5*(fL0 + fR0);
    const double favg1 = 0.5*(fL1 + fR1);
    const double favg2 = 0.5*(fL2 + fR2);
    const double favg3 = 0.5*(fL3 + fR3);
    const double favg4 = 0.5*(fL4 + fR4);
    const double favg5 = 0.5*(fL5 + fR5);
    const double favg6 = 0.5*(fL6 + fR6);
    const double favg7 = 0.5*(fL7 + fR7);
    const double fhat0 = wv*(1.0000000000000011*favg0) + hdv*(0.57735026918962629*favg1) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = wv*(1.0000000000000009*favg1) + hdv*(0.57735026918962629*favg0) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = wv*(1.0000000000000009*favg2) + hdv*(0.57735026918962606*favg4) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = wv*(1.0000000000000007*favg3) + hdv*(0.57735026918962606*favg5) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = wv*(1.0000000000000007*favg4) + hdv*(0.57735026918962606*favg2) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = wv*(1.0000000000000007*favg5) + hdv*(0.57735026918962606*favg3) - 0.5*tau*(fR5 - fL5);
    const double fhat6 = wv*(1.0000000000000007*favg6) + hdv*(0.57735026918962584*favg7) - 0.5*tau*(fR6 - fL6);
    const double fhat7 = wv*(1.0000000000000002*favg7) + hdv*(0.57735026918962584*favg6) - 0.5*tau*(fR7 - fL7);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[1*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[5*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat3;
    outl[8*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[8*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[9*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[9*B+b] += rdx2*0.70710678118654757*fhat5;
    outl[10*B+b] -= rdx2*0.70710678118654757*fhat6;
    outr[10*B+b] += rdx2*0.70710678118654757*fhat6;
    outl[11*B+b] -= rdx2*1.2247448713915889*fhat4;
    outr[11*B+b] += rdx2*-1.2247448713915889*fhat4;
    outl[12*B+b] -= rdx2*1.2247448713915889*fhat5;
    outr[12*B+b] += rdx2*-1.2247448713915889*fhat5;
    outl[13*B+b] -= rdx2*1.2247448713915889*fhat6;
    outr[13*B+b] += rdx2*-1.2247448713915889*fhat6;
    outl[14*B+b] -= rdx2*0.70710678118654757*fhat7;
    outr[14*B+b] += rdx2*0.70710678118654757*fhat7;
    outl[15*B+b] -= rdx2*1.2247448713915889*fhat7;
    outr[15*B+b] += rdx2*-1.2247448713915889*fhat7;
  }
}

// Surface acceleration kernel, velocity direction 0:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x3v_p1_ten_accel_surf0(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[2*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[5*B+b];
    const double fL2 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[8*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b] + 1.2247448713915889*fl[9*B+b];
    const double fL4 = 0.70710678118654757*fl[6*B+b] + 1.2247448713915889*fl[11*B+b];
    const double fL5 = 0.70710678118654757*fl[7*B+b] + 1.2247448713915889*fl[12*B+b];
    const double fL6 = 0.70710678118654757*fl[10*B+b] + 1.2247448713915889*fl[14*B+b];
    const double fL7 = 0.70710678118654757*fl[13*B+b] + 1.2247448713915889*fl[15*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[2*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[5*B+b];
    const double fR2 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[8*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b] - 1.2247448713915889*fr[9*B+b];
    const double fR4 = 0.70710678118654757*fr[6*B+b] - 1.2247448713915889*fr[11*B+b];
    const double fR5 = 0.70710678118654757*fr[7*B+b] - 1.2247448713915889*fr[12*B+b];
    const double fR6 = 0.70710678118654757*fr[10*B+b] - 1.2247448713915889*fr[14*B+b];
    const double fR7 = 0.70710678118654757*fr[13*B+b] - 1.2247448713915889*fr[15*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[2*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[5*B+b];
    const double aL2 = 0.70710678118654757*al[3*B+b] + 1.2247448713915889*al[8*B+b];
    const double aL3 = 0.70710678118654757*al[4*B+b] + 1.2247448713915889*al[9*B+b];
    const double aL4 = 0.70710678118654757*al[6*B+b] + 1.2247448713915889*al[11*B+b];
    const double aL5 = 0.70710678118654757*al[7*B+b] + 1.2247448713915889*al[12*B+b];
    const double aL6 = 0.70710678118654757*al[10*B+b] + 1.2247448713915889*al[14*B+b];
    const double aL7 = 0.70710678118654757*al[13*B+b] + 1.2247448713915889*al[15*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[2*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[5*B+b];
    const double aR2 = 0.70710678118654757*ar[3*B+b] - 1.2247448713915889*ar[8*B+b];
    const double aR3 = 0.70710678118654757*ar[4*B+b] - 1.2247448713915889*ar[9*B+b];
    const double aR4 = 0.70710678118654757*ar[6*B+b] - 1.2247448713915889*ar[11*B+b];
    const double aR5 = 0.70710678118654757*ar[7*B+b] - 1.2247448713915889*ar[12*B+b];
    const double aR6 = 0.70710678118654757*ar[10*B+b] - 1.2247448713915889*ar[14*B+b];
    const double aR7 = 0.70710678118654757*ar[13*B+b] - 1.2247448713915889*ar[15*B+b];
    const double tau = std::fmax(0.0 + 0.35355339059327384*std::fabs(aL0) + 0.61237243569579458*std::fabs(aL1) + 0.61237243569579458*std::fabs(aL2) + 0.61237243569579458*std::fabs(aL3) + 1.0606601717798212*std::fabs(aL4) + 1.0606601717798212*std::fabs(aL5) + 1.0606601717798212*std::fabs(aL6) + 1.8371173070873832*std::fabs(aL7), 0.0 + 0.35355339059327384*std::fabs(aR0) + 0.61237243569579458*std::fabs(aR1) + 0.61237243569579458*std::fabs(aR2) + 0.61237243569579458*std::fabs(aR3) + 1.0606601717798212*std::fabs(aR4) + 1.0606601717798212*std::fabs(aR5) + 1.0606601717798212*std::fabs(aR6) + 1.8371173070873832*std::fabs(aR7));
    const double fhat0 = 0.5*(0.35355339059327412*(aL0*fL0 + aR0*fR0) + 0.35355339059327406*(aL1*fL1 + aR1*fR1) + 0.35355339059327406*(aL2*fL2 + aR2*fR2) + 0.35355339059327401*(aL3*fL3 + aR3*fR3) + 0.35355339059327395*(aL4*fL4 + aR4*fR4) + 0.35355339059327395*(aL5*fL5 + aR5*fR5) + 0.35355339059327395*(aL6*fL6 + aR6*fR6) + 0.35355339059327384*(aL7*fL7 + aR7*fR7)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.35355339059327406*(aL0*fL1 + aR0*fR1) + 0.35355339059327406*(aL1*fL0 + aR1*fR0) + 0.35355339059327395*(aL2*fL4 + aR2*fR4) + 0.35355339059327395*(aL3*fL5 + aR3*fR5) + 0.35355339059327395*(aL4*fL2 + aR4*fR2) + 0.35355339059327395*(aL5*fL3 + aR5*fR3) + 0.35355339059327384*(aL6*fL7 + aR6*fR7) + 0.35355339059327384*(aL7*fL6 + aR7*fR6)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.35355339059327406*(aL0*fL2 + aR0*fR2) + 0.35355339059327395*(aL1*fL4 + aR1*fR4) + 0.35355339059327406*(aL2*fL0 + aR2*fR0) + 0.35355339059327395*(aL3*fL6 + aR3*fR6) + 0.35355339059327395*(aL4*fL1 + aR4*fR1) + 0.35355339059327384*(aL5*fL7 + aR5*fR7) + 0.35355339059327395*(aL6*fL3 + aR6*fR3) + 0.35355339059327384*(aL7*fL5 + aR7*fR5)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.35355339059327401*(aL0*fL3 + aR0*fR3) + 0.35355339059327395*(aL1*fL5 + aR1*fR5) + 0.35355339059327395*(aL2*fL6 + aR2*fR6) + 0.35355339059327401*(aL3*fL0 + aR3*fR0) + 0.35355339059327384*(aL4*fL7 + aR4*fR7) + 0.35355339059327395*(aL5*fL1 + aR5*fR1) + 0.35355339059327395*(aL6*fL2 + aR6*fR2) + 0.35355339059327384*(aL7*fL4 + aR7*fR4)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.35355339059327395*(aL0*fL4 + aR0*fR4) + 0.35355339059327395*(aL1*fL2 + aR1*fR2) + 0.35355339059327395*(aL2*fL1 + aR2*fR1) + 0.35355339059327384*(aL3*fL7 + aR3*fR7) + 0.35355339059327395*(aL4*fL0 + aR4*fR0) + 0.35355339059327384*(aL5*fL6 + aR5*fR6) + 0.35355339059327384*(aL6*fL5 + aR6*fR5) + 0.35355339059327384*(aL7*fL3 + aR7*fR3)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.35355339059327395*(aL0*fL5 + aR0*fR5) + 0.35355339059327395*(aL1*fL3 + aR1*fR3) + 0.35355339059327384*(aL2*fL7 + aR2*fR7) + 0.35355339059327395*(aL3*fL1 + aR3*fR1) + 0.35355339059327384*(aL4*fL6 + aR4*fR6) + 0.35355339059327395*(aL5*fL0 + aR5*fR0) + 0.35355339059327384*(aL6*fL4 + aR6*fR4) + 0.35355339059327384*(aL7*fL2 + aR7*fR2)) - 0.5*tau*(fR5 - fL5);
    const double fhat6 = 0.5*(0.35355339059327395*(aL0*fL6 + aR0*fR6) + 0.35355339059327384*(aL1*fL7 + aR1*fR7) + 0.35355339059327395*(aL2*fL3 + aR2*fR3) + 0.35355339059327395*(aL3*fL2 + aR3*fR2) + 0.35355339059327384*(aL4*fL5 + aR4*fR5) + 0.35355339059327384*(aL5*fL4 + aR5*fR4) + 0.35355339059327395*(aL6*fL0 + aR6*fR0) + 0.35355339059327384*(aL7*fL1 + aR7*fR1)) - 0.5*tau*(fR6 - fL6);
    const double fhat7 = 0.5*(0.35355339059327384*(aL0*fL7 + aR0*fR7) + 0.35355339059327384*(aL1*fL6 + aR1*fR6) + 0.35355339059327384*(aL2*fL5 + aR2*fR5) + 0.35355339059327384*(aL3*fL4 + aR3*fR4) + 0.35355339059327384*(aL4*fL3 + aR4*fR3) + 0.35355339059327384*(aL5*fL2 + aR5*fR2) + 0.35355339059327384*(aL6*fL1 + aR6*fR1) + 0.35355339059327384*(aL7*fL0 + aR7*fR0)) - 0.5*tau*(fR7 - fL7);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[2*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[5*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[7*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[7*B+b] += rdx2*0.70710678118654757*fhat5;
    outl[8*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[8*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[9*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[9*B+b] += rdx2*-1.2247448713915889*fhat3;
    outl[10*B+b] -= rdx2*0.70710678118654757*fhat6;
    outr[10*B+b] += rdx2*0.70710678118654757*fhat6;
    outl[11*B+b] -= rdx2*1.2247448713915889*fhat4;
    outr[11*B+b] += rdx2*-1.2247448713915889*fhat4;
    outl[12*B+b] -= rdx2*1.2247448713915889*fhat5;
    outr[12*B+b] += rdx2*-1.2247448713915889*fhat5;
    outl[13*B+b] -= rdx2*0.70710678118654757*fhat7;
    outr[13*B+b] += rdx2*0.70710678118654757*fhat7;
    outl[14*B+b] -= rdx2*1.2247448713915889*fhat6;
    outr[14*B+b] += rdx2*-1.2247448713915889*fhat6;
    outl[15*B+b] -= rdx2*1.2247448713915889*fhat7;
    outr[15*B+b] += rdx2*-1.2247448713915889*fhat7;
  }
}

// Surface acceleration kernel, velocity direction 1:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x3v_p1_ten_accel_surf1(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[2];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[3*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[6*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[8*B+b];
    const double fL3 = 0.70710678118654757*fl[4*B+b] + 1.2247448713915889*fl[10*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b] + 1.2247448713915889*fl[11*B+b];
    const double fL5 = 0.70710678118654757*fl[7*B+b] + 1.2247448713915889*fl[13*B+b];
    const double fL6 = 0.70710678118654757*fl[9*B+b] + 1.2247448713915889*fl[14*B+b];
    const double fL7 = 0.70710678118654757*fl[12*B+b] + 1.2247448713915889*fl[15*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[3*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[6*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[8*B+b];
    const double fR3 = 0.70710678118654757*fr[4*B+b] - 1.2247448713915889*fr[10*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b] - 1.2247448713915889*fr[11*B+b];
    const double fR5 = 0.70710678118654757*fr[7*B+b] - 1.2247448713915889*fr[13*B+b];
    const double fR6 = 0.70710678118654757*fr[9*B+b] - 1.2247448713915889*fr[14*B+b];
    const double fR7 = 0.70710678118654757*fr[12*B+b] - 1.2247448713915889*fr[15*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[3*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[6*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b] + 1.2247448713915889*al[8*B+b];
    const double aL3 = 0.70710678118654757*al[4*B+b] + 1.2247448713915889*al[10*B+b];
    const double aL4 = 0.70710678118654757*al[5*B+b] + 1.2247448713915889*al[11*B+b];
    const double aL5 = 0.70710678118654757*al[7*B+b] + 1.2247448713915889*al[13*B+b];
    const double aL6 = 0.70710678118654757*al[9*B+b] + 1.2247448713915889*al[14*B+b];
    const double aL7 = 0.70710678118654757*al[12*B+b] + 1.2247448713915889*al[15*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[3*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[6*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b] - 1.2247448713915889*ar[8*B+b];
    const double aR3 = 0.70710678118654757*ar[4*B+b] - 1.2247448713915889*ar[10*B+b];
    const double aR4 = 0.70710678118654757*ar[5*B+b] - 1.2247448713915889*ar[11*B+b];
    const double aR5 = 0.70710678118654757*ar[7*B+b] - 1.2247448713915889*ar[13*B+b];
    const double aR6 = 0.70710678118654757*ar[9*B+b] - 1.2247448713915889*ar[14*B+b];
    const double aR7 = 0.70710678118654757*ar[12*B+b] - 1.2247448713915889*ar[15*B+b];
    const double tau = std::fmax(0.0 + 0.35355339059327384*std::fabs(aL0) + 0.61237243569579458*std::fabs(aL1) + 0.61237243569579458*std::fabs(aL2) + 0.61237243569579458*std::fabs(aL3) + 1.0606601717798212*std::fabs(aL4) + 1.0606601717798212*std::fabs(aL5) + 1.0606601717798212*std::fabs(aL6) + 1.8371173070873832*std::fabs(aL7), 0.0 + 0.35355339059327384*std::fabs(aR0) + 0.61237243569579458*std::fabs(aR1) + 0.61237243569579458*std::fabs(aR2) + 0.61237243569579458*std::fabs(aR3) + 1.0606601717798212*std::fabs(aR4) + 1.0606601717798212*std::fabs(aR5) + 1.0606601717798212*std::fabs(aR6) + 1.8371173070873832*std::fabs(aR7));
    const double fhat0 = 0.5*(0.35355339059327412*(aL0*fL0 + aR0*fR0) + 0.35355339059327406*(aL1*fL1 + aR1*fR1) + 0.35355339059327406*(aL2*fL2 + aR2*fR2) + 0.35355339059327401*(aL3*fL3 + aR3*fR3) + 0.35355339059327395*(aL4*fL4 + aR4*fR4) + 0.35355339059327395*(aL5*fL5 + aR5*fR5) + 0.35355339059327395*(aL6*fL6 + aR6*fR6) + 0.35355339059327384*(aL7*fL7 + aR7*fR7)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.35355339059327406*(aL0*fL1 + aR0*fR1) + 0.35355339059327406*(aL1*fL0 + aR1*fR0) + 0.35355339059327395*(aL2*fL4 + aR2*fR4) + 0.35355339059327395*(aL3*fL5 + aR3*fR5) + 0.35355339059327395*(aL4*fL2 + aR4*fR2) + 0.35355339059327395*(aL5*fL3 + aR5*fR3) + 0.35355339059327384*(aL6*fL7 + aR6*fR7) + 0.35355339059327384*(aL7*fL6 + aR7*fR6)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.35355339059327406*(aL0*fL2 + aR0*fR2) + 0.35355339059327395*(aL1*fL4 + aR1*fR4) + 0.35355339059327406*(aL2*fL0 + aR2*fR0) + 0.35355339059327395*(aL3*fL6 + aR3*fR6) + 0.35355339059327395*(aL4*fL1 + aR4*fR1) + 0.35355339059327384*(aL5*fL7 + aR5*fR7) + 0.35355339059327395*(aL6*fL3 + aR6*fR3) + 0.35355339059327384*(aL7*fL5 + aR7*fR5)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.35355339059327401*(aL0*fL3 + aR0*fR3) + 0.35355339059327395*(aL1*fL5 + aR1*fR5) + 0.35355339059327395*(aL2*fL6 + aR2*fR6) + 0.35355339059327401*(aL3*fL0 + aR3*fR0) + 0.35355339059327384*(aL4*fL7 + aR4*fR7) + 0.35355339059327395*(aL5*fL1 + aR5*fR1) + 0.35355339059327395*(aL6*fL2 + aR6*fR2) + 0.35355339059327384*(aL7*fL4 + aR7*fR4)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.35355339059327395*(aL0*fL4 + aR0*fR4) + 0.35355339059327395*(aL1*fL2 + aR1*fR2) + 0.35355339059327395*(aL2*fL1 + aR2*fR1) + 0.35355339059327384*(aL3*fL7 + aR3*fR7) + 0.35355339059327395*(aL4*fL0 + aR4*fR0) + 0.35355339059327384*(aL5*fL6 + aR5*fR6) + 0.35355339059327384*(aL6*fL5 + aR6*fR5) + 0.35355339059327384*(aL7*fL3 + aR7*fR3)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.35355339059327395*(aL0*fL5 + aR0*fR5) + 0.35355339059327395*(aL1*fL3 + aR1*fR3) + 0.35355339059327384*(aL2*fL7 + aR2*fR7) + 0.35355339059327395*(aL3*fL1 + aR3*fR1) + 0.35355339059327384*(aL4*fL6 + aR4*fR6) + 0.35355339059327395*(aL5*fL0 + aR5*fR0) + 0.35355339059327384*(aL6*fL4 + aR6*fR4) + 0.35355339059327384*(aL7*fL2 + aR7*fR2)) - 0.5*tau*(fR5 - fL5);
    const double fhat6 = 0.5*(0.35355339059327395*(aL0*fL6 + aR0*fR6) + 0.35355339059327384*(aL1*fL7 + aR1*fR7) + 0.35355339059327395*(aL2*fL3 + aR2*fR3) + 0.35355339059327395*(aL3*fL2 + aR3*fR2) + 0.35355339059327384*(aL4*fL5 + aR4*fR5) + 0.35355339059327384*(aL5*fL4 + aR5*fR4) + 0.35355339059327395*(aL6*fL0 + aR6*fR0) + 0.35355339059327384*(aL7*fL1 + aR7*fR1)) - 0.5*tau*(fR6 - fL6);
    const double fhat7 = 0.5*(0.35355339059327384*(aL0*fL7 + aR0*fR7) + 0.35355339059327384*(aL1*fL6 + aR1*fR6) + 0.35355339059327384*(aL2*fL5 + aR2*fR5) + 0.35355339059327384*(aL3*fL4 + aR3*fR4) + 0.35355339059327384*(aL4*fL3 + aR4*fR3) + 0.35355339059327384*(aL5*fL2 + aR5*fR2) + 0.35355339059327384*(aL6*fL1 + aR6*fR1) + 0.35355339059327384*(aL7*fL0 + aR7*fR0)) - 0.5*tau*(fR7 - fL7);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[3*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[4*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[4*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[6*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[7*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[7*B+b] += rdx2*0.70710678118654757*fhat5;
    outl[8*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[8*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[9*B+b] -= rdx2*0.70710678118654757*fhat6;
    outr[9*B+b] += rdx2*0.70710678118654757*fhat6;
    outl[10*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[10*B+b] += rdx2*-1.2247448713915889*fhat3;
    outl[11*B+b] -= rdx2*1.2247448713915889*fhat4;
    outr[11*B+b] += rdx2*-1.2247448713915889*fhat4;
    outl[12*B+b] -= rdx2*0.70710678118654757*fhat7;
    outr[12*B+b] += rdx2*0.70710678118654757*fhat7;
    outl[13*B+b] -= rdx2*1.2247448713915889*fhat5;
    outr[13*B+b] += rdx2*-1.2247448713915889*fhat5;
    outl[14*B+b] -= rdx2*1.2247448713915889*fhat6;
    outr[14*B+b] += rdx2*-1.2247448713915889*fhat6;
    outl[15*B+b] -= rdx2*1.2247448713915889*fhat7;
    outr[15*B+b] += rdx2*-1.2247448713915889*fhat7;
  }
}

// Surface acceleration kernel, velocity direction 2:
// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs
// penalty bounded by the coefficient-sup estimate of |alpha| on the face.
template <int B>
void vlasov_1x3v_p1_ten_accel_surf2(const double* __restrict dxv, const double* __restrict al, const double* __restrict ar, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[3];
  for (int b = 0; b < B; ++b) {
    const double fL0 = 0.70710678118654757*fl[0*B+b] + 1.2247448713915889*fl[4*B+b];
    const double fL1 = 0.70710678118654757*fl[1*B+b] + 1.2247448713915889*fl[7*B+b];
    const double fL2 = 0.70710678118654757*fl[2*B+b] + 1.2247448713915889*fl[9*B+b];
    const double fL3 = 0.70710678118654757*fl[3*B+b] + 1.2247448713915889*fl[10*B+b];
    const double fL4 = 0.70710678118654757*fl[5*B+b] + 1.2247448713915889*fl[12*B+b];
    const double fL5 = 0.70710678118654757*fl[6*B+b] + 1.2247448713915889*fl[13*B+b];
    const double fL6 = 0.70710678118654757*fl[8*B+b] + 1.2247448713915889*fl[14*B+b];
    const double fL7 = 0.70710678118654757*fl[11*B+b] + 1.2247448713915889*fl[15*B+b];
    const double fR0 = 0.70710678118654757*fr[0*B+b] - 1.2247448713915889*fr[4*B+b];
    const double fR1 = 0.70710678118654757*fr[1*B+b] - 1.2247448713915889*fr[7*B+b];
    const double fR2 = 0.70710678118654757*fr[2*B+b] - 1.2247448713915889*fr[9*B+b];
    const double fR3 = 0.70710678118654757*fr[3*B+b] - 1.2247448713915889*fr[10*B+b];
    const double fR4 = 0.70710678118654757*fr[5*B+b] - 1.2247448713915889*fr[12*B+b];
    const double fR5 = 0.70710678118654757*fr[6*B+b] - 1.2247448713915889*fr[13*B+b];
    const double fR6 = 0.70710678118654757*fr[8*B+b] - 1.2247448713915889*fr[14*B+b];
    const double fR7 = 0.70710678118654757*fr[11*B+b] - 1.2247448713915889*fr[15*B+b];
    const double aL0 = 0.70710678118654757*al[0*B+b] + 1.2247448713915889*al[4*B+b];
    const double aL1 = 0.70710678118654757*al[1*B+b] + 1.2247448713915889*al[7*B+b];
    const double aL2 = 0.70710678118654757*al[2*B+b] + 1.2247448713915889*al[9*B+b];
    const double aL3 = 0.70710678118654757*al[3*B+b] + 1.2247448713915889*al[10*B+b];
    const double aL4 = 0.70710678118654757*al[5*B+b] + 1.2247448713915889*al[12*B+b];
    const double aL5 = 0.70710678118654757*al[6*B+b] + 1.2247448713915889*al[13*B+b];
    const double aL6 = 0.70710678118654757*al[8*B+b] + 1.2247448713915889*al[14*B+b];
    const double aL7 = 0.70710678118654757*al[11*B+b] + 1.2247448713915889*al[15*B+b];
    const double aR0 = 0.70710678118654757*ar[0*B+b] - 1.2247448713915889*ar[4*B+b];
    const double aR1 = 0.70710678118654757*ar[1*B+b] - 1.2247448713915889*ar[7*B+b];
    const double aR2 = 0.70710678118654757*ar[2*B+b] - 1.2247448713915889*ar[9*B+b];
    const double aR3 = 0.70710678118654757*ar[3*B+b] - 1.2247448713915889*ar[10*B+b];
    const double aR4 = 0.70710678118654757*ar[5*B+b] - 1.2247448713915889*ar[12*B+b];
    const double aR5 = 0.70710678118654757*ar[6*B+b] - 1.2247448713915889*ar[13*B+b];
    const double aR6 = 0.70710678118654757*ar[8*B+b] - 1.2247448713915889*ar[14*B+b];
    const double aR7 = 0.70710678118654757*ar[11*B+b] - 1.2247448713915889*ar[15*B+b];
    const double tau = std::fmax(0.0 + 0.35355339059327384*std::fabs(aL0) + 0.61237243569579458*std::fabs(aL1) + 0.61237243569579458*std::fabs(aL2) + 0.61237243569579458*std::fabs(aL3) + 1.0606601717798212*std::fabs(aL4) + 1.0606601717798212*std::fabs(aL5) + 1.0606601717798212*std::fabs(aL6) + 1.8371173070873832*std::fabs(aL7), 0.0 + 0.35355339059327384*std::fabs(aR0) + 0.61237243569579458*std::fabs(aR1) + 0.61237243569579458*std::fabs(aR2) + 0.61237243569579458*std::fabs(aR3) + 1.0606601717798212*std::fabs(aR4) + 1.0606601717798212*std::fabs(aR5) + 1.0606601717798212*std::fabs(aR6) + 1.8371173070873832*std::fabs(aR7));
    const double fhat0 = 0.5*(0.35355339059327412*(aL0*fL0 + aR0*fR0) + 0.35355339059327406*(aL1*fL1 + aR1*fR1) + 0.35355339059327406*(aL2*fL2 + aR2*fR2) + 0.35355339059327401*(aL3*fL3 + aR3*fR3) + 0.35355339059327395*(aL4*fL4 + aR4*fR4) + 0.35355339059327395*(aL5*fL5 + aR5*fR5) + 0.35355339059327395*(aL6*fL6 + aR6*fR6) + 0.35355339059327384*(aL7*fL7 + aR7*fR7)) - 0.5*tau*(fR0 - fL0);
    const double fhat1 = 0.5*(0.35355339059327406*(aL0*fL1 + aR0*fR1) + 0.35355339059327406*(aL1*fL0 + aR1*fR0) + 0.35355339059327395*(aL2*fL4 + aR2*fR4) + 0.35355339059327395*(aL3*fL5 + aR3*fR5) + 0.35355339059327395*(aL4*fL2 + aR4*fR2) + 0.35355339059327395*(aL5*fL3 + aR5*fR3) + 0.35355339059327384*(aL6*fL7 + aR6*fR7) + 0.35355339059327384*(aL7*fL6 + aR7*fR6)) - 0.5*tau*(fR1 - fL1);
    const double fhat2 = 0.5*(0.35355339059327406*(aL0*fL2 + aR0*fR2) + 0.35355339059327395*(aL1*fL4 + aR1*fR4) + 0.35355339059327406*(aL2*fL0 + aR2*fR0) + 0.35355339059327395*(aL3*fL6 + aR3*fR6) + 0.35355339059327395*(aL4*fL1 + aR4*fR1) + 0.35355339059327384*(aL5*fL7 + aR5*fR7) + 0.35355339059327395*(aL6*fL3 + aR6*fR3) + 0.35355339059327384*(aL7*fL5 + aR7*fR5)) - 0.5*tau*(fR2 - fL2);
    const double fhat3 = 0.5*(0.35355339059327401*(aL0*fL3 + aR0*fR3) + 0.35355339059327395*(aL1*fL5 + aR1*fR5) + 0.35355339059327395*(aL2*fL6 + aR2*fR6) + 0.35355339059327401*(aL3*fL0 + aR3*fR0) + 0.35355339059327384*(aL4*fL7 + aR4*fR7) + 0.35355339059327395*(aL5*fL1 + aR5*fR1) + 0.35355339059327395*(aL6*fL2 + aR6*fR2) + 0.35355339059327384*(aL7*fL4 + aR7*fR4)) - 0.5*tau*(fR3 - fL3);
    const double fhat4 = 0.5*(0.35355339059327395*(aL0*fL4 + aR0*fR4) + 0.35355339059327395*(aL1*fL2 + aR1*fR2) + 0.35355339059327395*(aL2*fL1 + aR2*fR1) + 0.35355339059327384*(aL3*fL7 + aR3*fR7) + 0.35355339059327395*(aL4*fL0 + aR4*fR0) + 0.35355339059327384*(aL5*fL6 + aR5*fR6) + 0.35355339059327384*(aL6*fL5 + aR6*fR5) + 0.35355339059327384*(aL7*fL3 + aR7*fR3)) - 0.5*tau*(fR4 - fL4);
    const double fhat5 = 0.5*(0.35355339059327395*(aL0*fL5 + aR0*fR5) + 0.35355339059327395*(aL1*fL3 + aR1*fR3) + 0.35355339059327384*(aL2*fL7 + aR2*fR7) + 0.35355339059327395*(aL3*fL1 + aR3*fR1) + 0.35355339059327384*(aL4*fL6 + aR4*fR6) + 0.35355339059327395*(aL5*fL0 + aR5*fR0) + 0.35355339059327384*(aL6*fL4 + aR6*fR4) + 0.35355339059327384*(aL7*fL2 + aR7*fR2)) - 0.5*tau*(fR5 - fL5);
    const double fhat6 = 0.5*(0.35355339059327395*(aL0*fL6 + aR0*fR6) + 0.35355339059327384*(aL1*fL7 + aR1*fR7) + 0.35355339059327395*(aL2*fL3 + aR2*fR3) + 0.35355339059327395*(aL3*fL2 + aR3*fR2) + 0.35355339059327384*(aL4*fL5 + aR4*fR5) + 0.35355339059327384*(aL5*fL4 + aR5*fR4) + 0.35355339059327395*(aL6*fL0 + aR6*fR0) + 0.35355339059327384*(aL7*fL1 + aR7*fR1)) - 0.5*tau*(fR6 - fL6);
    const double fhat7 = 0.5*(0.35355339059327384*(aL0*fL7 + aR0*fR7) + 0.35355339059327384*(aL1*fL6 + aR1*fR6) + 0.35355339059327384*(aL2*fL5 + aR2*fR5) + 0.35355339059327384*(aL3*fL4 + aR3*fR4) + 0.35355339059327384*(aL4*fL3 + aR4*fR3) + 0.35355339059327384*(aL5*fL2 + aR5*fR2) + 0.35355339059327384*(aL6*fL1 + aR6*fR1) + 0.35355339059327384*(aL7*fL0 + aR7*fR0)) - 0.5*tau*(fR7 - fL7);
    outl[0*B+b] -= rdx2*0.70710678118654757*fhat0;
    outr[0*B+b] += rdx2*0.70710678118654757*fhat0;
    outl[1*B+b] -= rdx2*0.70710678118654757*fhat1;
    outr[1*B+b] += rdx2*0.70710678118654757*fhat1;
    outl[2*B+b] -= rdx2*0.70710678118654757*fhat2;
    outr[2*B+b] += rdx2*0.70710678118654757*fhat2;
    outl[3*B+b] -= rdx2*0.70710678118654757*fhat3;
    outr[3*B+b] += rdx2*0.70710678118654757*fhat3;
    outl[4*B+b] -= rdx2*1.2247448713915889*fhat0;
    outr[4*B+b] += rdx2*-1.2247448713915889*fhat0;
    outl[5*B+b] -= rdx2*0.70710678118654757*fhat4;
    outr[5*B+b] += rdx2*0.70710678118654757*fhat4;
    outl[6*B+b] -= rdx2*0.70710678118654757*fhat5;
    outr[6*B+b] += rdx2*0.70710678118654757*fhat5;
    outl[7*B+b] -= rdx2*1.2247448713915889*fhat1;
    outr[7*B+b] += rdx2*-1.2247448713915889*fhat1;
    outl[8*B+b] -= rdx2*0.70710678118654757*fhat6;
    outr[8*B+b] += rdx2*0.70710678118654757*fhat6;
    outl[9*B+b] -= rdx2*1.2247448713915889*fhat2;
    outr[9*B+b] += rdx2*-1.2247448713915889*fhat2;
    outl[10*B+b] -= rdx2*1.2247448713915889*fhat3;
    outr[10*B+b] += rdx2*-1.2247448713915889*fhat3;
    outl[11*B+b] -= rdx2*0.70710678118654757*fhat7;
    outr[11*B+b] += rdx2*0.70710678118654757*fhat7;
    outl[12*B+b] -= rdx2*1.2247448713915889*fhat4;
    outr[12*B+b] += rdx2*-1.2247448713915889*fhat4;
    outl[13*B+b] -= rdx2*1.2247448713915889*fhat5;
    outr[13*B+b] += rdx2*-1.2247448713915889*fhat5;
    outl[14*B+b] -= rdx2*1.2247448713915889*fhat6;
    outr[14*B+b] += rdx2*-1.2247448713915889*fhat6;
    outl[15*B+b] -= rdx2*1.2247448713915889*fhat7;
    outr[15*B+b] += rdx2*-1.2247448713915889*fhat7;
  }
}

// LBO diffusion volume kernel: exact DG volume integral of the twice
// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,
// with D = vtSq the configuration-space vth^2 expansion (2 coefficients).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_vol(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  (void)dxv; (void)vtSq; (void)f; (void)out;
}

// LBO diffusion surface kernel, velocity direction 0: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_surf0(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[2*B+b] - 0.40824829046386268*fr[2*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[2*B+b] - 1.5309310892394858*fr[2*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[5*B+b] - 0.40824829046386268*fr[5*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[5*B+b] - 1.5309310892394858*fr[5*B+b];
    const double rv2 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b] + 0.40824829046386302*fl[8*B+b] - 0.40824829046386268*fr[8*B+b];
    const double rd2 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b] - 1.5309310892394858*fl[8*B+b] - 1.5309310892394858*fr[8*B+b];
    const double rv3 = 0.35355339059327373*fl[4*B+b] + 0.35355339059327356*fr[4*B+b] + 0.40824829046386302*fl[9*B+b] - 0.40824829046386268*fr[9*B+b];
    const double rd3 = -1.5909902576697319*fl[4*B+b] + 1.5909902576697319*fr[4*B+b] - 1.5309310892394858*fl[9*B+b] - 1.5309310892394858*fr[9*B+b];
    const double rv4 = 0.35355339059327373*fl[6*B+b] + 0.35355339059327356*fr[6*B+b] + 0.40824829046386302*fl[11*B+b] - 0.40824829046386268*fr[11*B+b];
    const double rd4 = -1.5909902576697319*fl[6*B+b] + 1.5909902576697319*fr[6*B+b] - 1.5309310892394858*fl[11*B+b] - 1.5309310892394858*fr[11*B+b];
    const double rv5 = 0.35355339059327373*fl[7*B+b] + 0.35355339059327356*fr[7*B+b] + 0.40824829046386302*fl[12*B+b] - 0.40824829046386268*fr[12*B+b];
    const double rd5 = -1.5909902576697319*fl[7*B+b] + 1.5909902576697319*fr[7*B+b] - 1.5309310892394858*fl[12*B+b] - 1.5309310892394858*fr[12*B+b];
    const double rv6 = 0.35355339059327373*fl[10*B+b] + 0.35355339059327356*fr[10*B+b] + 0.40824829046386302*fl[14*B+b] - 0.40824829046386268*fr[14*B+b];
    const double rd6 = -1.5909902576697319*fl[10*B+b] + 1.5909902576697319*fr[10*B+b] - 1.5309310892394858*fl[14*B+b] - 1.5309310892394858*fr[14*B+b];
    const double rv7 = 0.35355339059327373*fl[13*B+b] + 0.35355339059327356*fr[13*B+b] + 0.40824829046386302*fl[15*B+b] - 0.40824829046386268*fr[15*B+b];
    const double rd7 = -1.5909902576697319*fl[13*B+b] + 1.5909902576697319*fr[13*B+b] - 1.5309310892394858*fl[15*B+b] - 1.5309310892394858*fr[15*B+b];
    const double pD0 = 0.35355339059327412*dF0*rd0 + 0.35355339059327406*dF1*rd1;
    const double pD1 = 0.35355339059327406*dF0*rd1 + 0.35355339059327406*dF1*rd0;
    const double pD2 = 0.35355339059327406*dF0*rd2 + 0.35355339059327395*dF1*rd4;
    const double pD3 = 0.35355339059327401*dF0*rd3 + 0.35355339059327395*dF1*rd5;
    const double pD4 = 0.35355339059327395*dF0*rd4 + 0.35355339059327395*dF1*rd2;
    const double pD5 = 0.35355339059327395*dF0*rd5 + 0.35355339059327395*dF1*rd3;
    const double pD6 = 0.35355339059327395*dF0*rd6 + 0.35355339059327384*dF1*rd7;
    const double pD7 = 0.35355339059327384*dF0*rd7 + 0.35355339059327384*dF1*rd6;
    const double pV0 = 0.35355339059327412*dF0*rv0 + 0.35355339059327406*dF1*rv1;
    const double pV1 = 0.35355339059327406*dF0*rv1 + 0.35355339059327406*dF1*rv0;
    const double pV2 = 0.35355339059327406*dF0*rv2 + 0.35355339059327395*dF1*rv4;
    const double pV3 = 0.35355339059327401*dF0*rv3 + 0.35355339059327395*dF1*rv5;
    const double pV4 = 0.35355339059327395*dF0*rv4 + 0.35355339059327395*dF1*rv2;
    const double pV5 = 0.35355339059327395*dF0*rv5 + 0.35355339059327395*dF1*rv3;
    const double pV6 = 0.35355339059327395*dF0*rv6 + 0.35355339059327384*dF1*rv7;
    const double pV7 = 0.35355339059327384*dF0*rv7 + 0.35355339059327384*dF1*rv6;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[2*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[3*B+b] += s2*(0.35355339059327379*pD2);
    outr[3*B+b] += s2*(-0.35355339059327379*pD2);
    outl[4*B+b] += s2*(0.35355339059327379*pD3);
    outr[4*B+b] += s2*(-0.35355339059327379*pD3);
    outl[5*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[5*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
    outl[6*B+b] += s2*(0.35355339059327379*pD4);
    outr[6*B+b] += s2*(-0.35355339059327379*pD4);
    outl[7*B+b] += s2*(0.35355339059327379*pD5);
    outr[7*B+b] += s2*(-0.35355339059327379*pD5);
    outl[8*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[8*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[9*B+b] += s2*(0.61237243569579447*pD3 - 1.2247448713915889*pV3);
    outr[9*B+b] += s2*(0.61237243569579447*pD3 + 1.2247448713915889*pV3);
    outl[10*B+b] += s2*(0.35355339059327379*pD6);
    outr[10*B+b] += s2*(-0.35355339059327379*pD6);
    outl[11*B+b] += s2*(0.61237243569579447*pD4 - 1.2247448713915889*pV4);
    outr[11*B+b] += s2*(0.61237243569579447*pD4 + 1.2247448713915889*pV4);
    outl[12*B+b] += s2*(0.61237243569579447*pD5 - 1.2247448713915889*pV5);
    outr[12*B+b] += s2*(0.61237243569579447*pD5 + 1.2247448713915889*pV5);
    outl[13*B+b] += s2*(0.35355339059327379*pD7);
    outr[13*B+b] += s2*(-0.35355339059327379*pD7);
    outl[14*B+b] += s2*(0.61237243569579447*pD6 - 1.2247448713915889*pV6);
    outr[14*B+b] += s2*(0.61237243569579447*pD6 + 1.2247448713915889*pV6);
    outl[15*B+b] += s2*(0.61237243569579447*pD7 - 1.2247448713915889*pV7);
    outr[15*B+b] += s2*(0.61237243569579447*pD7 + 1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd0_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[5*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] - 1.2247448713915889*f[8*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] - 1.2247448713915889*f[9*B+b];
    const double tr4 = 0.70710678118654757*f[6*B+b] - 1.2247448713915889*f[11*B+b];
    const double tr5 = 0.70710678118654757*f[7*B+b] - 1.2247448713915889*f[12*B+b];
    const double tr6 = 0.70710678118654757*f[10*B+b] - 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[13*B+b] - 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[2*B+b] += s2*(1.2247448713915889*pV0);
    out[5*B+b] += s2*(1.2247448713915889*pV1);
    out[8*B+b] += s2*(1.2247448713915889*pV2);
    out[9*B+b] += s2*(1.2247448713915889*pV3);
    out[11*B+b] += s2*(1.2247448713915889*pV4);
    out[12*B+b] += s2*(1.2247448713915889*pV5);
    out[14*B+b] += s2*(1.2247448713915889*pV6);
    out[15*B+b] += s2*(1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 0, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd0_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[1];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[2*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[5*B+b];
    const double tr2 = 0.70710678118654757*f[3*B+b] + 1.2247448713915889*f[8*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] + 1.2247448713915889*f[9*B+b];
    const double tr4 = 0.70710678118654757*f[6*B+b] + 1.2247448713915889*f[11*B+b];
    const double tr5 = 0.70710678118654757*f[7*B+b] + 1.2247448713915889*f[12*B+b];
    const double tr6 = 0.70710678118654757*f[10*B+b] + 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[13*B+b] + 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[2*B+b] += s2*(-1.2247448713915889*pV0);
    out[5*B+b] += s2*(-1.2247448713915889*pV1);
    out[8*B+b] += s2*(-1.2247448713915889*pV2);
    out[9*B+b] += s2*(-1.2247448713915889*pV3);
    out[11*B+b] += s2*(-1.2247448713915889*pV4);
    out[12*B+b] += s2*(-1.2247448713915889*pV5);
    out[14*B+b] += s2*(-1.2247448713915889*pV6);
    out[15*B+b] += s2*(-1.2247448713915889*pV7);
  }
}

// LBO diffusion surface kernel, velocity direction 1: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_surf1(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[3*B+b] - 0.40824829046386268*fr[3*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[3*B+b] - 1.5309310892394858*fr[3*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[6*B+b] - 0.40824829046386268*fr[6*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[6*B+b] - 1.5309310892394858*fr[6*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b] + 0.40824829046386302*fl[8*B+b] - 0.40824829046386268*fr[8*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b] - 1.5309310892394858*fl[8*B+b] - 1.5309310892394858*fr[8*B+b];
    const double rv3 = 0.35355339059327373*fl[4*B+b] + 0.35355339059327356*fr[4*B+b] + 0.40824829046386302*fl[10*B+b] - 0.40824829046386268*fr[10*B+b];
    const double rd3 = -1.5909902576697319*fl[4*B+b] + 1.5909902576697319*fr[4*B+b] - 1.5309310892394858*fl[10*B+b] - 1.5309310892394858*fr[10*B+b];
    const double rv4 = 0.35355339059327373*fl[5*B+b] + 0.35355339059327356*fr[5*B+b] + 0.40824829046386302*fl[11*B+b] - 0.40824829046386268*fr[11*B+b];
    const double rd4 = -1.5909902576697319*fl[5*B+b] + 1.5909902576697319*fr[5*B+b] - 1.5309310892394858*fl[11*B+b] - 1.5309310892394858*fr[11*B+b];
    const double rv5 = 0.35355339059327373*fl[7*B+b] + 0.35355339059327356*fr[7*B+b] + 0.40824829046386302*fl[13*B+b] - 0.40824829046386268*fr[13*B+b];
    const double rd5 = -1.5909902576697319*fl[7*B+b] + 1.5909902576697319*fr[7*B+b] - 1.5309310892394858*fl[13*B+b] - 1.5309310892394858*fr[13*B+b];
    const double rv6 = 0.35355339059327373*fl[9*B+b] + 0.35355339059327356*fr[9*B+b] + 0.40824829046386302*fl[14*B+b] - 0.40824829046386268*fr[14*B+b];
    const double rd6 = -1.5909902576697319*fl[9*B+b] + 1.5909902576697319*fr[9*B+b] - 1.5309310892394858*fl[14*B+b] - 1.5309310892394858*fr[14*B+b];
    const double rv7 = 0.35355339059327373*fl[12*B+b] + 0.35355339059327356*fr[12*B+b] + 0.40824829046386302*fl[15*B+b] - 0.40824829046386268*fr[15*B+b];
    const double rd7 = -1.5909902576697319*fl[12*B+b] + 1.5909902576697319*fr[12*B+b] - 1.5309310892394858*fl[15*B+b] - 1.5309310892394858*fr[15*B+b];
    const double pD0 = 0.35355339059327412*dF0*rd0 + 0.35355339059327406*dF1*rd1;
    const double pD1 = 0.35355339059327406*dF0*rd1 + 0.35355339059327406*dF1*rd0;
    const double pD2 = 0.35355339059327406*dF0*rd2 + 0.35355339059327395*dF1*rd4;
    const double pD3 = 0.35355339059327401*dF0*rd3 + 0.35355339059327395*dF1*rd5;
    const double pD4 = 0.35355339059327395*dF0*rd4 + 0.35355339059327395*dF1*rd2;
    const double pD5 = 0.35355339059327395*dF0*rd5 + 0.35355339059327395*dF1*rd3;
    const double pD6 = 0.35355339059327395*dF0*rd6 + 0.35355339059327384*dF1*rd7;
    const double pD7 = 0.35355339059327384*dF0*rd7 + 0.35355339059327384*dF1*rd6;
    const double pV0 = 0.35355339059327412*dF0*rv0 + 0.35355339059327406*dF1*rv1;
    const double pV1 = 0.35355339059327406*dF0*rv1 + 0.35355339059327406*dF1*rv0;
    const double pV2 = 0.35355339059327406*dF0*rv2 + 0.35355339059327395*dF1*rv4;
    const double pV3 = 0.35355339059327401*dF0*rv3 + 0.35355339059327395*dF1*rv5;
    const double pV4 = 0.35355339059327395*dF0*rv4 + 0.35355339059327395*dF1*rv2;
    const double pV5 = 0.35355339059327395*dF0*rv5 + 0.35355339059327395*dF1*rv3;
    const double pV6 = 0.35355339059327395*dF0*rv6 + 0.35355339059327384*dF1*rv7;
    const double pV7 = 0.35355339059327384*dF0*rv7 + 0.35355339059327384*dF1*rv6;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[3*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[4*B+b] += s2*(0.35355339059327379*pD3);
    outr[4*B+b] += s2*(-0.35355339059327379*pD3);
    outl[5*B+b] += s2*(0.35355339059327379*pD4);
    outr[5*B+b] += s2*(-0.35355339059327379*pD4);
    outl[6*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[6*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
    outl[7*B+b] += s2*(0.35355339059327379*pD5);
    outr[7*B+b] += s2*(-0.35355339059327379*pD5);
    outl[8*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[8*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[9*B+b] += s2*(0.35355339059327379*pD6);
    outr[9*B+b] += s2*(-0.35355339059327379*pD6);
    outl[10*B+b] += s2*(0.61237243569579447*pD3 - 1.2247448713915889*pV3);
    outr[10*B+b] += s2*(0.61237243569579447*pD3 + 1.2247448713915889*pV3);
    outl[11*B+b] += s2*(0.61237243569579447*pD4 - 1.2247448713915889*pV4);
    outr[11*B+b] += s2*(0.61237243569579447*pD4 + 1.2247448713915889*pV4);
    outl[12*B+b] += s2*(0.35355339059327379*pD7);
    outr[12*B+b] += s2*(-0.35355339059327379*pD7);
    outl[13*B+b] += s2*(0.61237243569579447*pD5 - 1.2247448713915889*pV5);
    outr[13*B+b] += s2*(0.61237243569579447*pD5 + 1.2247448713915889*pV5);
    outl[14*B+b] += s2*(0.61237243569579447*pD6 - 1.2247448713915889*pV6);
    outr[14*B+b] += s2*(0.61237243569579447*pD6 + 1.2247448713915889*pV6);
    outl[15*B+b] += s2*(0.61237243569579447*pD7 - 1.2247448713915889*pV7);
    outr[15*B+b] += s2*(0.61237243569579447*pD7 + 1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd1_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[3*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[6*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] - 1.2247448713915889*f[8*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] - 1.2247448713915889*f[10*B+b];
    const double tr4 = 0.70710678118654757*f[5*B+b] - 1.2247448713915889*f[11*B+b];
    const double tr5 = 0.70710678118654757*f[7*B+b] - 1.2247448713915889*f[13*B+b];
    const double tr6 = 0.70710678118654757*f[9*B+b] - 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[12*B+b] - 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[3*B+b] += s2*(1.2247448713915889*pV0);
    out[6*B+b] += s2*(1.2247448713915889*pV1);
    out[8*B+b] += s2*(1.2247448713915889*pV2);
    out[10*B+b] += s2*(1.2247448713915889*pV3);
    out[11*B+b] += s2*(1.2247448713915889*pV4);
    out[13*B+b] += s2*(1.2247448713915889*pV5);
    out[14*B+b] += s2*(1.2247448713915889*pV6);
    out[15*B+b] += s2*(1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 1, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd1_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[2];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[3*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[6*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] + 1.2247448713915889*f[8*B+b];
    const double tr3 = 0.70710678118654757*f[4*B+b] + 1.2247448713915889*f[10*B+b];
    const double tr4 = 0.70710678118654757*f[5*B+b] + 1.2247448713915889*f[11*B+b];
    const double tr5 = 0.70710678118654757*f[7*B+b] + 1.2247448713915889*f[13*B+b];
    const double tr6 = 0.70710678118654757*f[9*B+b] + 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[12*B+b] + 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[3*B+b] += s2*(-1.2247448713915889*pV0);
    out[6*B+b] += s2*(-1.2247448713915889*pV1);
    out[8*B+b] += s2*(-1.2247448713915889*pV2);
    out[10*B+b] += s2*(-1.2247448713915889*pV3);
    out[11*B+b] += s2*(-1.2247448713915889*pV4);
    out[13*B+b] += s2*(-1.2247448713915889*pV5);
    out[14*B+b] += s2*(-1.2247448713915889*pV6);
    out[15*B+b] += s2*(-1.2247448713915889*pV7);
  }
}

// LBO diffusion surface kernel, velocity direction 2: the recovery
// polynomial of the two cells sharing the face gives the interface value rv
// and slope rd; the flux term [w D df/deta] and the value term
// -[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper).
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_surf2(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict fl, const double* __restrict fr, double* __restrict outl, double* __restrict outr) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double rv0 = 0.35355339059327373*fl[0*B+b] + 0.35355339059327356*fr[0*B+b] + 0.40824829046386302*fl[4*B+b] - 0.40824829046386268*fr[4*B+b];
    const double rd0 = -1.5909902576697319*fl[0*B+b] + 1.5909902576697319*fr[0*B+b] - 1.5309310892394858*fl[4*B+b] - 1.5309310892394858*fr[4*B+b];
    const double rv1 = 0.35355339059327373*fl[1*B+b] + 0.35355339059327356*fr[1*B+b] + 0.40824829046386302*fl[7*B+b] - 0.40824829046386268*fr[7*B+b];
    const double rd1 = -1.5909902576697319*fl[1*B+b] + 1.5909902576697319*fr[1*B+b] - 1.5309310892394858*fl[7*B+b] - 1.5309310892394858*fr[7*B+b];
    const double rv2 = 0.35355339059327373*fl[2*B+b] + 0.35355339059327356*fr[2*B+b] + 0.40824829046386302*fl[9*B+b] - 0.40824829046386268*fr[9*B+b];
    const double rd2 = -1.5909902576697319*fl[2*B+b] + 1.5909902576697319*fr[2*B+b] - 1.5309310892394858*fl[9*B+b] - 1.5309310892394858*fr[9*B+b];
    const double rv3 = 0.35355339059327373*fl[3*B+b] + 0.35355339059327356*fr[3*B+b] + 0.40824829046386302*fl[10*B+b] - 0.40824829046386268*fr[10*B+b];
    const double rd3 = -1.5909902576697319*fl[3*B+b] + 1.5909902576697319*fr[3*B+b] - 1.5309310892394858*fl[10*B+b] - 1.5309310892394858*fr[10*B+b];
    const double rv4 = 0.35355339059327373*fl[5*B+b] + 0.35355339059327356*fr[5*B+b] + 0.40824829046386302*fl[12*B+b] - 0.40824829046386268*fr[12*B+b];
    const double rd4 = -1.5909902576697319*fl[5*B+b] + 1.5909902576697319*fr[5*B+b] - 1.5309310892394858*fl[12*B+b] - 1.5309310892394858*fr[12*B+b];
    const double rv5 = 0.35355339059327373*fl[6*B+b] + 0.35355339059327356*fr[6*B+b] + 0.40824829046386302*fl[13*B+b] - 0.40824829046386268*fr[13*B+b];
    const double rd5 = -1.5909902576697319*fl[6*B+b] + 1.5909902576697319*fr[6*B+b] - 1.5309310892394858*fl[13*B+b] - 1.5309310892394858*fr[13*B+b];
    const double rv6 = 0.35355339059327373*fl[8*B+b] + 0.35355339059327356*fr[8*B+b] + 0.40824829046386302*fl[14*B+b] - 0.40824829046386268*fr[14*B+b];
    const double rd6 = -1.5909902576697319*fl[8*B+b] + 1.5909902576697319*fr[8*B+b] - 1.5309310892394858*fl[14*B+b] - 1.5309310892394858*fr[14*B+b];
    const double rv7 = 0.35355339059327373*fl[11*B+b] + 0.35355339059327356*fr[11*B+b] + 0.40824829046386302*fl[15*B+b] - 0.40824829046386268*fr[15*B+b];
    const double rd7 = -1.5909902576697319*fl[11*B+b] + 1.5909902576697319*fr[11*B+b] - 1.5309310892394858*fl[15*B+b] - 1.5309310892394858*fr[15*B+b];
    const double pD0 = 0.35355339059327412*dF0*rd0 + 0.35355339059327406*dF1*rd1;
    const double pD1 = 0.35355339059327406*dF0*rd1 + 0.35355339059327406*dF1*rd0;
    const double pD2 = 0.35355339059327406*dF0*rd2 + 0.35355339059327395*dF1*rd4;
    const double pD3 = 0.35355339059327401*dF0*rd3 + 0.35355339059327395*dF1*rd5;
    const double pD4 = 0.35355339059327395*dF0*rd4 + 0.35355339059327395*dF1*rd2;
    const double pD5 = 0.35355339059327395*dF0*rd5 + 0.35355339059327395*dF1*rd3;
    const double pD6 = 0.35355339059327395*dF0*rd6 + 0.35355339059327384*dF1*rd7;
    const double pD7 = 0.35355339059327384*dF0*rd7 + 0.35355339059327384*dF1*rd6;
    const double pV0 = 0.35355339059327412*dF0*rv0 + 0.35355339059327406*dF1*rv1;
    const double pV1 = 0.35355339059327406*dF0*rv1 + 0.35355339059327406*dF1*rv0;
    const double pV2 = 0.35355339059327406*dF0*rv2 + 0.35355339059327395*dF1*rv4;
    const double pV3 = 0.35355339059327401*dF0*rv3 + 0.35355339059327395*dF1*rv5;
    const double pV4 = 0.35355339059327395*dF0*rv4 + 0.35355339059327395*dF1*rv2;
    const double pV5 = 0.35355339059327395*dF0*rv5 + 0.35355339059327395*dF1*rv3;
    const double pV6 = 0.35355339059327395*dF0*rv6 + 0.35355339059327384*dF1*rv7;
    const double pV7 = 0.35355339059327384*dF0*rv7 + 0.35355339059327384*dF1*rv6;
    outl[0*B+b] += s2*(0.35355339059327379*pD0);
    outr[0*B+b] += s2*(-0.35355339059327379*pD0);
    outl[1*B+b] += s2*(0.35355339059327379*pD1);
    outr[1*B+b] += s2*(-0.35355339059327379*pD1);
    outl[2*B+b] += s2*(0.35355339059327379*pD2);
    outr[2*B+b] += s2*(-0.35355339059327379*pD2);
    outl[3*B+b] += s2*(0.35355339059327379*pD3);
    outr[3*B+b] += s2*(-0.35355339059327379*pD3);
    outl[4*B+b] += s2*(0.61237243569579447*pD0 - 1.2247448713915889*pV0);
    outr[4*B+b] += s2*(0.61237243569579447*pD0 + 1.2247448713915889*pV0);
    outl[5*B+b] += s2*(0.35355339059327379*pD4);
    outr[5*B+b] += s2*(-0.35355339059327379*pD4);
    outl[6*B+b] += s2*(0.35355339059327379*pD5);
    outr[6*B+b] += s2*(-0.35355339059327379*pD5);
    outl[7*B+b] += s2*(0.61237243569579447*pD1 - 1.2247448713915889*pV1);
    outr[7*B+b] += s2*(0.61237243569579447*pD1 + 1.2247448713915889*pV1);
    outl[8*B+b] += s2*(0.35355339059327379*pD6);
    outr[8*B+b] += s2*(-0.35355339059327379*pD6);
    outl[9*B+b] += s2*(0.61237243569579447*pD2 - 1.2247448713915889*pV2);
    outr[9*B+b] += s2*(0.61237243569579447*pD2 + 1.2247448713915889*pV2);
    outl[10*B+b] += s2*(0.61237243569579447*pD3 - 1.2247448713915889*pV3);
    outr[10*B+b] += s2*(0.61237243569579447*pD3 + 1.2247448713915889*pV3);
    outl[11*B+b] += s2*(0.35355339059327379*pD7);
    outr[11*B+b] += s2*(-0.35355339059327379*pD7);
    outl[12*B+b] += s2*(0.61237243569579447*pD4 - 1.2247448713915889*pV4);
    outr[12*B+b] += s2*(0.61237243569579447*pD4 + 1.2247448713915889*pV4);
    outl[13*B+b] += s2*(0.61237243569579447*pD5 - 1.2247448713915889*pV5);
    outr[13*B+b] += s2*(0.61237243569579447*pD5 + 1.2247448713915889*pV5);
    outl[14*B+b] += s2*(0.61237243569579447*pD6 - 1.2247448713915889*pV6);
    outr[14*B+b] += s2*(0.61237243569579447*pD6 + 1.2247448713915889*pV6);
    outl[15*B+b] += s2*(0.61237243569579447*pD7 - 1.2247448713915889*pV7);
    outr[15*B+b] += s2*(0.61237243569579447*pD7 + 1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 2, lower domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd2_lo(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] - 1.2247448713915889*f[4*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] - 1.2247448713915889*f[7*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] - 1.2247448713915889*f[9*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b] - 1.2247448713915889*f[10*B+b];
    const double tr4 = 0.70710678118654757*f[5*B+b] - 1.2247448713915889*f[12*B+b];
    const double tr5 = 0.70710678118654757*f[6*B+b] - 1.2247448713915889*f[13*B+b];
    const double tr6 = 0.70710678118654757*f[8*B+b] - 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[11*B+b] - 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[4*B+b] += s2*(1.2247448713915889*pV0);
    out[7*B+b] += s2*(1.2247448713915889*pV1);
    out[9*B+b] += s2*(1.2247448713915889*pV2);
    out[10*B+b] += s2*(1.2247448713915889*pV3);
    out[12*B+b] += s2*(1.2247448713915889*pV4);
    out[13*B+b] += s2*(1.2247448713915889*pV5);
    out[14*B+b] += s2*(1.2247448713915889*pV6);
    out[15*B+b] += s2*(1.2247448713915889*pV7);
  }
}

// LBO diffusion boundary kernel, velocity direction 2, upper domain face:
// zero-flux closure. The flux term is dropped; the value term uses the
// one-sided trace of the boundary cell f.
// vtSq is shared by every lane (one configuration cell per block).
template <int B>
void vlasov_1x3v_p1_ten_lbo_diff_bnd2_up(const double* __restrict dxv, const double* __restrict vtSq, const double* __restrict f, double* __restrict out) {
  const double rdx2 = 2.0/dxv[3];
  const double s2 = rdx2*rdx2;
  const double dF0 = 2.0000000000000004*vtSq[0];
  const double dF1 = 2.0000000000000004*vtSq[1];
  for (int b = 0; b < B; ++b) {
    const double tr0 = 0.70710678118654757*f[0*B+b] + 1.2247448713915889*f[4*B+b];
    const double tr1 = 0.70710678118654757*f[1*B+b] + 1.2247448713915889*f[7*B+b];
    const double tr2 = 0.70710678118654757*f[2*B+b] + 1.2247448713915889*f[9*B+b];
    const double tr3 = 0.70710678118654757*f[3*B+b] + 1.2247448713915889*f[10*B+b];
    const double tr4 = 0.70710678118654757*f[5*B+b] + 1.2247448713915889*f[12*B+b];
    const double tr5 = 0.70710678118654757*f[6*B+b] + 1.2247448713915889*f[13*B+b];
    const double tr6 = 0.70710678118654757*f[8*B+b] + 1.2247448713915889*f[14*B+b];
    const double tr7 = 0.70710678118654757*f[11*B+b] + 1.2247448713915889*f[15*B+b];
    const double pV0 = 0.35355339059327412*dF0*tr0 + 0.35355339059327406*dF1*tr1;
    const double pV1 = 0.35355339059327406*dF0*tr1 + 0.35355339059327406*dF1*tr0;
    const double pV2 = 0.35355339059327406*dF0*tr2 + 0.35355339059327395*dF1*tr4;
    const double pV3 = 0.35355339059327401*dF0*tr3 + 0.35355339059327395*dF1*tr5;
    const double pV4 = 0.35355339059327395*dF0*tr4 + 0.35355339059327395*dF1*tr2;
    const double pV5 = 0.35355339059327395*dF0*tr5 + 0.35355339059327395*dF1*tr3;
    const double pV6 = 0.35355339059327395*dF0*tr6 + 0.35355339059327384*dF1*tr7;
    const double pV7 = 0.35355339059327384*dF0*tr7 + 0.35355339059327384*dF1*tr6;
    out[4*B+b] += s2*(-1.2247448713915889*pV0);
    out[7*B+b] += s2*(-1.2247448713915889*pV1);
    out[9*B+b] += s2*(-1.2247448713915889*pV2);
    out[10*B+b] += s2*(-1.2247448713915889*pV3);
    out[12*B+b] += s2*(-1.2247448713915889*pV4);
    out[13*B+b] += s2*(-1.2247448713915889*pV5);
    out[14*B+b] += s2*(-1.2247448713915889*pV6);
    out[15*B+b] += s2*(-1.2247448713915889*pV7);
  }
}

template <int B>
CompiledKernelSet kernelSet() {
  CompiledKernelSet k;
  k.lanes = B;
  k.streamVol = vlasov_1x3v_p1_ten_stream_vol<B>;
  k.accelVol = vlasov_1x3v_p1_ten_accel_vol<B>;
  k.streamSurf[0] = vlasov_1x3v_p1_ten_stream_surf0<B>;
  k.accelSurf[0] = vlasov_1x3v_p1_ten_accel_surf0<B>;
  k.accelSurf[1] = vlasov_1x3v_p1_ten_accel_surf1<B>;
  k.accelSurf[2] = vlasov_1x3v_p1_ten_accel_surf2<B>;
  k.lbo.diffVol = vlasov_1x3v_p1_ten_lbo_diff_vol<B>;
  k.lbo.diffSurf[0] = vlasov_1x3v_p1_ten_lbo_diff_surf0<B>;
  k.lbo.diffBound[0][0] = vlasov_1x3v_p1_ten_lbo_diff_bnd0_lo<B>;
  k.lbo.diffBound[0][1] = vlasov_1x3v_p1_ten_lbo_diff_bnd0_up<B>;
  k.lbo.diffSurf[1] = vlasov_1x3v_p1_ten_lbo_diff_surf1<B>;
  k.lbo.diffBound[1][0] = vlasov_1x3v_p1_ten_lbo_diff_bnd1_lo<B>;
  k.lbo.diffBound[1][1] = vlasov_1x3v_p1_ten_lbo_diff_bnd1_up<B>;
  k.lbo.diffSurf[2] = vlasov_1x3v_p1_ten_lbo_diff_surf2<B>;
  k.lbo.diffBound[2][0] = vlasov_1x3v_p1_ten_lbo_diff_bnd2_lo<B>;
  k.lbo.diffBound[2][1] = vlasov_1x3v_p1_ten_lbo_diff_bnd2_up<B>;
  return k;
}

}  // namespace

__attribute__((cold)) void registerKernels() {
  CompiledKernels k;
  k.numPhaseModes = 16;
  k.sets[0] = kernelSet<1>();
  k.sets[1] = kernelSet<4>();
  k.sets[2] = kernelSet<8>();
  registerCompiledKernels("1x3v_p1_ten", k);
}

}  // namespace vdg::gen_1x3v_p1_ten
