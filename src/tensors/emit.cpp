#include "tensors/emit.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <vector>

#include "kernels/registry.hpp"
#include "math/legendre.hpp"
#include "tensors/vlasov_tensors.hpp"

namespace vdg {

namespace {

/// Format a double so it round-trips exactly.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  std::string s(buf);
  // Make integer-valued constants read as doubles.
  if (s.find_first_of(".eE") == std::string::npos) s += ".0";
  return s;
}

/// Array-element rendering: kernels address an AoSoA block of B cells
/// (mode-major, lane-minor) from inside a `for (int b...)` lane loop, so
/// element 3 of the current lane is `f[3*B+b]`.
std::string at(const std::string& arr, int i) {
  return arr + "[" + std::to_string(i) + "*B+b]";
}

/// Accumulates source text plus operation counts.
struct CodeWriter {
  std::ostringstream os;
  std::size_t mults = 0;
  std::size_t adds = 0;
  std::string indent = "    ";  ///< bodies sit inside the lane loop

  void line(const std::string& s) { os << s << "\n"; }
  void body(const std::string& s) { os << indent << s << "\n"; }

  /// Render "c1*x1 + c2*x2 + ..." counting one multiply per term and one
  /// add per joint; returns "0.0" for an empty sum.
  std::string sum(const std::vector<std::pair<double, std::string>>& terms) {
    if (terms.empty()) return "0.0";
    std::string s;
    for (std::size_t i = 0; i < terms.size(); ++i) {
      const auto& [c, x] = terms[i];
      if (i) {
        s += (c < 0 ? " - " : " + ");
        ++adds;
      } else if (c < 0) {
        s += "-";
      }
      const double a = c < 0 ? -c : c;
      if (a == 1.0) {
        s += x;
      } else {
        s += num(a) + "*" + x;
        ++mults;
      }
    }
    return s;
  }
};

std::string fnPrefix(const BasisSpec& spec) { return "vlasov_" + spec.name(); }

/// Every generated translation unit ends in one registration function that
/// runs once at startup. Marked cold, the linker gathers all of them in
/// .text.unlikely, so registration faults in a few code pages instead of a
/// page (and its read-around) inside every kernel file.
constexpr const char* kRegisterSignature = "__attribute__((cold)) void registerKernels() {\n";

/// Parameter-list rendering: kernels take __restrict-qualified pointers
/// (callers pass disjoint buffers), which lets the compiler vectorize the
/// lane loop without alias versioning.
std::string params(std::initializer_list<std::pair<const char*, const char*>> ps) {
  std::string s;
  bool first = true;
  for (const auto& [type, name] : ps) {
    if (!first) s += ", ";
    first = false;
    s += std::string(type) + "* __restrict " + name;
  }
  return s;
}

/// Opening lines of every kernel: the `template <int B>` signature.
void openKernel(CodeWriter& w, const std::string& name,
                std::initializer_list<std::pair<const char*, const char*>> ps) {
  w.line("template <int B>");
  w.line("void " + name + "(" + params(ps) + ") {");
}

/// Closing lines of every kernel: the end of the lane loop and the body.
EmittedKernel closeKernel(CodeWriter& w, EmittedKernel out, bool laneLoop = true) {
  if (laneLoop) w.line("  }");
  w.line("}");
  out.source = w.os.str();
  out.multiplies = w.mults;
  out.adds = w.adds;
  return out;
}

/// Gather tape terms grouped by output index l.
template <typename Tape>
std::map<int, std::vector<typename Tape::Term>> groupByOut(const Tape& tape) {
  std::map<int, std::vector<typename Tape::Term>> g;
  for (const auto& t : tape.terms) g[t.l].push_back(t);
  return g;
}

}  // namespace

EmittedKernel emitStreamingVolumeKernel(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int np = ks.numPhaseModes;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_stream_vol";
  CodeWriter w;
  w.line("// Volume streaming kernel (exact DG volume integral of div_x (v f)),");
  w.line("// auto-generated for the " + spec.name() + " basis (" + std::to_string(np) +
         " DOF/cell).");
  w.line("// Inputs: cell centers w, cell size dxv, distribution coefficients f;");
  w.line("// out is incremented with the forward-Euler volume contribution.");
  openKernel(w, out.functionName,
             {{"const double", "w"}, {"const double", "dxv"}, {"const double", "f"},
              {"double", "out"}});
  for (int d = 0; d < ks.cdim; ++d) {
    const int vd = ks.cdim + d;
    const std::string sd = std::to_string(d);
    w.line("  const double rdx2_" + sd + " = 2.0/dxv[" + sd + "];");
    w.line("  const double hdv_" + sd + " = 0.5*dxv[" + std::to_string(vd) + "];");
    w.mults += 2;
  }
  w.line("  for (int b = 0; b < B; ++b) {");
  for (int d = 0; d < ks.cdim; ++d)
    w.body("const double wv_" + std::to_string(d) + " = " + at("w", ks.cdim + d) + ";");
  for (int l = 0; l < np; ++l) {
    for (int d = 0; d < ks.cdim; ++d) {
      // (c0*wv + c1*hdv) * f[n], gathered per n.
      std::map<int, std::pair<double, double>> byN;
      for (const Tape2::Term& t : ks.streamVol0[static_cast<std::size_t>(d)].terms)
        if (t.l == l) byN[t.n].first += t.c;
      for (const Tape2::Term& t : ks.streamVol1[static_cast<std::size_t>(d)].terms)
        if (t.l == l) byN[t.n].second += t.c;
      if (byN.empty()) continue;
      const std::string sd = std::to_string(d);
      std::string expr;
      bool first = true;
      for (const auto& [n, cc] : byN) {
        const auto& [c0, c1] = cc;
        if (!first) {
          expr += " + ";
          ++w.adds;
        }
        first = false;
        std::vector<std::pair<double, std::string>> parts;
        if (c0 != 0.0) parts.emplace_back(c0, "wv_" + sd);
        if (c1 != 0.0) parts.emplace_back(c1, "hdv_" + sd);
        expr += "(" + w.sum(parts) + ")*" + at("f", n);
        ++w.mults;
      }
      w.body(at("out", l) + " += rdx2_" + sd + "*(" + expr + ");");
      ++w.mults;
    }
  }
  return closeKernel(w, out);
}

EmittedKernel emitAccelVolumeKernel(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int np = ks.numPhaseModes;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_accel_vol";
  CodeWriter w;
  w.line("// Volume acceleration kernel (exact DG volume integral of div_v (alpha f));");
  w.line("// alpha is the per-cell phase-space flux expansion, vdim x " + std::to_string(np) +
         " coefficients.");
  openKernel(w, out.functionName,
             {{"const double", "dxv"}, {"const double", "alpha"}, {"const double", "f"},
              {"double", "out"}});
  for (int j = 0; j < ks.vdim; ++j) {
    const int d = ks.cdim + j;
    w.line("  const double rdv2_" + std::to_string(j) + " = 2.0/dxv[" + std::to_string(d) +
           "];");
    ++w.mults;
  }
  w.line("  for (int b = 0; b < B; ++b) {");
  for (int j = 0; j < ks.vdim; ++j) {
    const int d = ks.cdim + j;
    const auto grouped = groupByOut(ks.volume[static_cast<std::size_t>(d)]);
    const int off = j * np;
    for (const auto& [l, terms] : grouped) {
      std::string expr;
      for (std::size_t i = 0; i < terms.size(); ++i) {
        const auto& t = terms[i];
        if (i) {
          expr += (t.c < 0 ? " - " : " + ");
          ++w.adds;
        } else if (t.c < 0) {
          expr += "-";
        }
        const double a = t.c < 0 ? -t.c : t.c;
        expr += num(a) + "*" + at("alpha", off + t.m) + "*" + at("f", t.n);
        w.mults += 2;
      }
      w.body(at("out", l) + " += rdv2_" + std::to_string(j) + "*(" + expr + ");");
      ++w.mults;
    }
  }
  return closeKernel(w, out);
}

namespace {

/// Emit face-trace assignments: name_k = sum psiEnd * src[l], one local
/// variable per face mode and lane (only the face modes `only` marks, when
/// given).
void emitTrace(CodeWriter& w, const FaceMap& fm, const std::string& name, const std::string& src,
               bool plusSide, const std::vector<bool>* only = nullptr) {
  std::map<int, std::vector<std::pair<double, std::string>>> byFace;
  for (const FaceMap::Entry& e : fm.entries)
    byFace[e.face].emplace_back(plusSide ? e.atPlus : e.atMinus, at(src, e.vol));
  for (int k = 0; k < fm.numFaceModes; ++k) {
    if (only && !(*only)[static_cast<std::size_t>(k)]) continue;
    auto it = byFace.find(k);
    w.body("const double " + name + std::to_string(k) + " = " +
           (it == byFace.end() ? std::string("0.0") : w.sum(it->second)) + ";");
  }
}

/// Emit the two diagonal lifts of fhat into outl/outr.
void emitLifts(CodeWriter& w, const FaceMap& fm, const std::string& rdx2) {
  for (const FaceMap::Entry& e : fm.entries) {
    // outl[l] -= rdx2 * psiEnd(+1) * fhat_k ; outr[l] += rdx2 * psiEnd(-1) * fhat_k.
    w.body(at("outl", e.vol) + " -= " + rdx2 + "*" + num(e.atPlus) + "*fhat" +
           std::to_string(e.face) + ";");
    w.body(at("outr", e.vol) + " += " + rdx2 + "*" + num(e.atMinus) + "*fhat" +
           std::to_string(e.face) + ";");
    w.mults += 4;
  }
}

}  // namespace

EmittedKernel emitStreamingSurfaceKernel(const BasisSpec& spec, int dir) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(dir)];
  const int nf = fm.numFaceModes;
  const int vd = ks.cdim + dir;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_stream_surf" + std::to_string(dir);
  CodeWriter w;
  w.line("// Surface streaming kernel, configuration direction " + std::to_string(dir) + ":");
  w.line("// local Lax-Friedrichs flux Fhat = v favg - (tau/2)(fr - fl) on the shared");
  w.line("// face, lifted into both adjacent cells (fl: left/lower cell, fr: right).");
  openKernel(w, out.functionName,
             {{"const double", "w"}, {"const double", "dxv"}, {"const double", "fl"},
              {"const double", "fr"}, {"double", "outl"}, {"double", "outr"}});
  w.line("  const double rdx2 = 2.0/dxv[" + std::to_string(dir) + "];");
  w.line("  const double hdv = 0.5*dxv[" + std::to_string(vd) + "];");
  w.line("  for (int b = 0; b < B; ++b) {");
  w.body("const double wv = " + at("w", vd) + ";");
  w.body("const double tau = std::fmax(std::fabs(wv - hdv), std::fabs(wv + hdv));");
  w.mults += 3;
  emitTrace(w, fm, "fL", "fl", /*plusSide=*/true);
  emitTrace(w, fm, "fR", "fr", /*plusSide=*/false);
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    w.body("const double favg" + sk + " = 0.5*(fL" + sk + " + fR" + sk + ");");
    ++w.mults;
    ++w.adds;
  }
  // fhat_k = wv * G0_k(favg) + hdv * G1_k(favg) - 0.5 tau (fR_k - fL_k).
  std::map<int, std::vector<std::pair<double, std::string>>> g0, g1;
  for (const Tape2::Term& t : ks.streamFace0[static_cast<std::size_t>(dir)].terms)
    g0[t.l].emplace_back(t.c, "favg" + std::to_string(t.n));
  for (const Tape2::Term& t : ks.streamFace1[static_cast<std::size_t>(dir)].terms)
    g1[t.l].emplace_back(t.c, "favg" + std::to_string(t.n));
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    std::string expr = "wv*(" + w.sum(g0[k]) + ") + hdv*(" + w.sum(g1[k]) + ") - 0.5*tau*(fR" +
                       sk + " - fL" + sk + ")";
    w.mults += 3;
    w.adds += 3;
    w.body("const double fhat" + sk + " = " + expr + ";");
  }
  emitLifts(w, fm, "rdx2");
  return closeKernel(w, out);
}

EmittedKernel emitAccelSurfaceKernel(const BasisSpec& spec, int j) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const int d = ks.cdim + j;
  const FaceMap& fm = ks.faceMap[static_cast<std::size_t>(d)];
  const int nf = fm.numFaceModes;
  const std::vector<double>& sup = ks.faceSup[static_cast<std::size_t>(d)];

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_accel_surf" + std::to_string(j);
  CodeWriter w;
  w.line("// Surface acceleration kernel, velocity direction " + std::to_string(j) + ":");
  w.line("// per-side flux expansions (paper Eq. 5) with a local Lax-Friedrichs");
  w.line("// penalty bounded by the coefficient-sup estimate of |alpha| on the face.");
  openKernel(w, out.functionName,
             {{"const double", "dxv"}, {"const double", "al"}, {"const double", "ar"},
              {"const double", "fl"}, {"const double", "fr"}, {"double", "outl"},
              {"double", "outr"}});
  w.line("  const double rdx2 = 2.0/dxv[" + std::to_string(d) + "];");
  ++w.mults;
  w.line("  for (int b = 0; b < B; ++b) {");
  emitTrace(w, fm, "fL", "fl", true);
  emitTrace(w, fm, "fR", "fr", false);
  emitTrace(w, fm, "aL", "al", true);
  emitTrace(w, fm, "aR", "ar", false);
  {
    std::string bl = "0.0", br = "0.0";
    for (int k = 0; k < nf; ++k) {
      const std::string sk = std::to_string(k);
      const std::string c = num(sup[static_cast<std::size_t>(k)]);
      bl += " + " + c + "*std::fabs(aL" + sk + ")";
      br += " + " + c + "*std::fabs(aR" + sk + ")";
      w.mults += 2;
      w.adds += 2;
    }
    w.body("const double tau = std::fmax(" + bl + ", " + br + ");");
  }
  const auto gaunt = groupByOut(ks.faceProduct[static_cast<std::size_t>(d)]);
  for (int k = 0; k < nf; ++k) {
    const std::string sk = std::to_string(k);
    std::string expr;
    const auto it = gaunt.find(k);
    if (it != gaunt.end()) {
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        const auto& t = it->second[i];
        if (i) {
          expr += (t.c < 0 ? " - " : " + ");
          ++w.adds;
        } else if (t.c < 0) {
          expr += "-";
        }
        const double a = t.c < 0 ? -t.c : t.c;
        expr += num(a) + "*(aL" + std::to_string(t.m) + "*fL" + std::to_string(t.n) + " + aR" +
                std::to_string(t.m) + "*fR" + std::to_string(t.n) + ")";
        w.mults += 3;
        w.adds += 1;
      }
    }
    if (expr.empty()) expr = "0.0";
    w.body("const double fhat" + sk + " = 0.5*(" + expr + ") - 0.5*tau*(fR" + sk + " - fL" +
           sk + ");");
    w.mults += 2;
    w.adds += 2;
  }
  emitLifts(w, fm, "rdx2");
  return closeKernel(w, out);
}

namespace {

/// Shared setup of the LBO diffusion emitters for velocity direction j:
/// the diffusion coefficient is a configuration-space expansion vtSq[k]
/// embedded in the phase basis (mode embedIdx[k], factor embedFac), so
/// its face trace has only the face modes those embeddings land on, with
/// the same value from both sides (velocity degree 0).
struct LboDir {
  int d = 0;          ///< phase-space direction cdim + j
  const FaceMap* fm = nullptr;
  /// Face trace of the embedded coefficient: face mode -> (coef, vtSq[k]).
  std::map<int, std::vector<std::pair<double, std::string>>> dFace;
  std::vector<double> derivMinus, derivPlus;  ///< psi'_{a_d}(-1), psi'_{a_d}(+1) per mode
  std::vector<int> slice;  ///< [k*(p+1)+m]: volume mode of face mode k, degree m (-1: none)
};

LboDir lboDir(const VlasovKernelSet& ks, int j) {
  LboDir r;
  r.d = ks.cdim + j;
  r.fm = &ks.faceMap[static_cast<std::size_t>(r.d)];
  const int np = ks.numPhaseModes;
  const int p1 = ks.spec.polyOrder + 1;
  std::vector<int> confOf(static_cast<std::size_t>(np), -1);
  for (int k = 0; k < ks.numConfModes; ++k)
    confOf[static_cast<std::size_t>(ks.embedIdx[static_cast<std::size_t>(k)])] = k;
  r.slice.assign(static_cast<std::size_t>(r.fm->numFaceModes * p1), -1);
  r.derivMinus.resize(static_cast<std::size_t>(np));
  r.derivPlus.resize(static_cast<std::size_t>(np));
  for (const FaceMap::Entry& e : r.fm->entries) {
    const int a = ks.phase->mode(e.vol)[r.d];
    r.slice[static_cast<std::size_t>(e.face * p1 + a)] = e.vol;
    r.derivMinus[static_cast<std::size_t>(e.vol)] = legendrePsiDeriv(a, -1.0);
    r.derivPlus[static_cast<std::size_t>(e.vol)] = legendrePsiDeriv(a, +1.0);
    const int k = confOf[static_cast<std::size_t>(e.vol)];
    if (k >= 0)
      r.dFace[e.face].emplace_back(e.atPlus * ks.embedFac, "vtSq[" + std::to_string(k) + "]");
  }
  return r;
}

/// Emit the lane-invariant face trace of the diffusion coefficient,
/// dF<k> = sum c * vtSq[k'] (one local per structurally nonzero face
/// mode), ahead of the lane loop.
void emitDiffFace(CodeWriter& w, const LboDir& dir) {
  for (const auto& [k, terms] : dir.dFace)
    w.line("  const double dF" + std::to_string(k) + " = " + w.sum(terms) + ";");
}

/// Face modes k whose value-term product pV_k some lift reads: those
/// carrying a volume mode of nonzero degree along the face normal (the
/// derivative lifts psi'(+-1) vanish for degree 0).
std::vector<bool> valueTermModes(const LboDir& dir) {
  std::vector<bool> used(static_cast<std::size_t>(dir.fm->numFaceModes), false);
  for (const FaceMap::Entry& e : dir.fm->entries)
    if (dir.derivPlus[static_cast<std::size_t>(e.vol)] != 0.0)
      used[static_cast<std::size_t>(e.face)] = true;
  return used;
}

/// The face Gaunt product p_k = sum_t G_kmn dF_m src_n for the face modes
/// `want` selects, keeping only terms whose dF_m is structurally nonzero.
struct DiffProduct {
  std::map<int, std::vector<std::pair<double, std::string>>> byFace;
  std::vector<bool> reads;  ///< source face modes the sums read
};

DiffProduct diffProduct(const VlasovKernelSet& ks, const LboDir& dir, const std::string& src,
                        const std::vector<bool>& want) {
  DiffProduct r;
  r.reads.assign(static_cast<std::size_t>(dir.fm->numFaceModes), false);
  for (const Tape3::Term& t : ks.faceProduct[static_cast<std::size_t>(dir.d)].terms)
    if (want[static_cast<std::size_t>(t.l)] && dir.dFace.count(t.m)) {
      r.byFace[t.l].emplace_back(t.c, "dF" + std::to_string(t.m) + "*" + src + std::to_string(t.n));
      r.reads[static_cast<std::size_t>(t.n)] = true;
    }
  return r;
}

/// Emit one local p<name><k> per face mode with product terms; returns the
/// face modes that got one.
std::vector<bool> emitProduct(CodeWriter& w, const DiffProduct& prod, const std::string& name) {
  std::vector<bool> has(prod.reads.size(), false);
  for (const auto& [k, terms] : prod.byFace) {
    w.body("const double " + name + std::to_string(k) + " = " + w.sum(terms) + ";");
    w.mults += terms.size();
    has[static_cast<std::size_t>(k)] = true;
  }
  return has;
}

/// Opening lines shared by the LBO diffusion kernels: comment block,
/// signature, the squared velocity-space scale s2 = (2/dv)^2 and the
/// coefficient's face trace.
void openDiffKernel(CodeWriter& w, const EmittedKernel& out,
                    const std::vector<std::string>& comment,
                    std::initializer_list<std::pair<const char*, const char*>> ps,
                    const LboDir& dir) {
  for (const std::string& c : comment) w.line("// " + c);
  w.line("// vtSq is shared by every lane (one configuration cell per block).");
  openKernel(w, out.functionName, ps);
  w.line("  const double rdx2 = 2.0/dxv[" + std::to_string(dir.d) + "];");
  w.line("  const double s2 = rdx2*rdx2;");
  w.mults += 1;
  emitDiffFace(w, dir);
  w.line("  for (int b = 0; b < B; ++b) {");
}

}  // namespace

EmittedKernel emitLboDiffVolumeKernel(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  std::vector<int> confOf(static_cast<std::size_t>(ks.numPhaseModes), -1);
  for (int k = 0; k < ks.numConfModes; ++k)
    confOf[static_cast<std::size_t>(ks.embedIdx[static_cast<std::size_t>(k)])] = k;

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_lbo_diff_vol";
  CodeWriter w;
  w.line("// LBO diffusion volume kernel: exact DG volume integral of the twice");
  w.line("// integrated-by-parts diffusion term, sum_j (2/dv_j)^2 int d2w_l/deta_j^2 D f,");
  w.line("// with D = vtSq the configuration-space vth^2 expansion (" +
         std::to_string(ks.numConfModes) + " coefficients).");
  w.line("// vtSq is shared by every lane (one configuration cell per block).");
  openKernel(w, out.functionName,
             {{"const double", "dxv"}, {"const double", "vtSq"}, {"const double", "f"},
              {"double", "out"}});
  // (sum_k c_lkn vtSq[k]) * f[n], gathered per direction, output l, input n.
  std::vector<std::map<int, std::map<int, std::vector<std::pair<double, std::string>>>>> terms(
      static_cast<std::size_t>(ks.vdim));
  bool any = false;
  for (int j = 0; j < ks.vdim; ++j)
    for (const Tape3::Term& t : buildVolumeTape2(*ks.phase, ks.cdim + j).terms) {
      const int k = confOf[static_cast<std::size_t>(t.m)];
      if (k < 0) continue;
      terms[static_cast<std::size_t>(j)][t.l][t.n].emplace_back(
          t.c * ks.embedFac, "vtSq[" + std::to_string(k) + "]");
      any = true;
    }
  if (!any) {
    // p = 1: the second derivative of every basis function vanishes.
    w.line("  (void)dxv; (void)vtSq; (void)f; (void)out;");
    return closeKernel(w, out, /*laneLoop=*/false);
  }
  for (int j = 0; j < ks.vdim; ++j) {
    const std::string sj = std::to_string(j);
    w.line("  const double rdv2_" + sj + " = 2.0/dxv[" + std::to_string(ks.cdim + j) + "];");
    w.line("  const double s2_" + sj + " = rdv2_" + sj + "*rdv2_" + sj + ";");
    w.mults += 2;
  }
  w.line("  for (int b = 0; b < B; ++b) {");
  for (int j = 0; j < ks.vdim; ++j) {
    for (const auto& [l, byN] : terms[static_cast<std::size_t>(j)]) {
      std::string expr;
      for (const auto& [n, terms] : byN) {
        if (!expr.empty()) {
          expr += " + ";
          ++w.adds;
        }
        expr += "(" + w.sum(terms) + ")*" + at("f", n);
        ++w.mults;
      }
      w.body(at("out", l) + " += s2_" + std::to_string(j) + "*(" + expr + ");");
      ++w.mults;
    }
  }
  return closeKernel(w, out);
}

EmittedKernel emitLboDiffSurfaceKernel(const BasisSpec& spec, int j) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const LboDir dir = lboDir(ks, j);
  const FaceMap& fm = *dir.fm;
  const int p1 = spec.polyOrder + 1;
  const RecoveryWeights rec = buildRecoveryWeights(spec.polyOrder);

  EmittedKernel out;
  out.functionName = fnPrefix(spec) + "_lbo_diff_surf" + std::to_string(j);
  CodeWriter w;
  openDiffKernel(
      w, out,
      {"LBO diffusion surface kernel, velocity direction " + std::to_string(j) + ": the recovery",
       "polynomial of the two cells sharing the face gives the interface value rv",
       "and slope rd; the flux term [w D df/deta] and the value term",
       "-[dw/deta D f] are lifted into both cells (fl: lower cell, fr: upper)."},
      {{"const double", "dxv"},
       {"const double", "vtSq"},
       {"const double", "fl"},
       {"const double", "fr"},
       {"double", "outl"},
       {"double", "outr"}},
      dir);
  const DiffProduct prodD = diffProduct(
      ks, dir, "rd", std::vector<bool>(static_cast<std::size_t>(fm.numFaceModes), true));
  const DiffProduct prodV = diffProduct(ks, dir, "rv", valueTermModes(dir));
  for (int k = 0; k < fm.numFaceModes; ++k) {
    std::vector<std::pair<double, std::string>> val, der;
    for (int m = 0; m < p1; ++m) {
      const int l = dir.slice[static_cast<std::size_t>(k * p1 + m)];
      if (l < 0) continue;
      const auto sm = static_cast<std::size_t>(m);
      val.emplace_back(rec.valL[sm], at("fl", l));
      val.emplace_back(rec.valR[sm], at("fr", l));
      der.emplace_back(rec.derivL[sm], at("fl", l));
      der.emplace_back(rec.derivR[sm], at("fr", l));
    }
    if (prodV.reads[static_cast<std::size_t>(k)])
      w.body("const double rv" + std::to_string(k) + " = " + w.sum(val) + ";");
    if (prodD.reads[static_cast<std::size_t>(k)])
      w.body("const double rd" + std::to_string(k) + " = " + w.sum(der) + ";");
  }
  const std::vector<bool> hasD = emitProduct(w, prodD, "pD");
  const std::vector<bool> hasV = emitProduct(w, prodV, "pV");
  // outl_l += s2 (psi_l(+1)/2 pD - psi'_l(+1) pV);
  // outr_l += s2 (-psi_l(-1)/2 pD + psi'_l(-1) pV).
  for (const FaceMap::Entry& e : fm.entries) {
    const auto sf = static_cast<std::size_t>(e.face);
    const auto sl = static_cast<std::size_t>(e.vol);
    const std::string sk = std::to_string(e.face);
    std::vector<std::pair<double, std::string>> left, right;
    if (hasD[sf]) {
      left.emplace_back(0.5 * e.atPlus, "pD" + sk);
      right.emplace_back(-0.5 * e.atMinus, "pD" + sk);
    }
    if (hasV[sf] && dir.derivPlus[sl] != 0.0) {
      left.emplace_back(-dir.derivPlus[sl], "pV" + sk);
      right.emplace_back(dir.derivMinus[sl], "pV" + sk);
    }
    if (left.empty()) continue;
    w.body(at("outl", e.vol) + " += s2*(" + w.sum(left) + ");");
    w.body(at("outr", e.vol) + " += s2*(" + w.sum(right) + ");");
    w.mults += 2;
  }
  return closeKernel(w, out);
}

EmittedKernel emitLboDiffBoundaryKernel(const BasisSpec& spec, int j, int side) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const LboDir dir = lboDir(ks, j);
  const bool upper = side > 0;

  EmittedKernel out;
  out.functionName =
      fnPrefix(spec) + "_lbo_diff_bnd" + std::to_string(j) + (upper ? "_up" : "_lo");
  CodeWriter w;
  openDiffKernel(
      w, out,
      {"LBO diffusion boundary kernel, velocity direction " + std::to_string(j) + ", " +
           (upper ? "upper" : "lower") + " domain face:",
       "zero-flux closure. The flux term is dropped; the value term uses the",
       "one-sided trace of the boundary cell f."},
      {{"const double", "dxv"}, {"const double", "vtSq"}, {"const double", "f"}, {"double", "out"}},
      dir);
  const DiffProduct prod = diffProduct(ks, dir, "tr", valueTermModes(dir));
  emitTrace(w, *dir.fm, "tr", "f", upper, &prod.reads);
  const std::vector<bool> has = emitProduct(w, prod, "pV");
  for (const FaceMap::Entry& e : dir.fm->entries) {
    const auto sl = static_cast<std::size_t>(e.vol);
    const double c = upper ? -dir.derivPlus[sl] : dir.derivMinus[sl];
    if (!has[static_cast<std::size_t>(e.face)] || c == 0.0) continue;
    w.body(at("out", e.vol) + " += s2*(" + w.sum({{c, "pV" + std::to_string(e.face)}}) + ");");
    ++w.mults;
  }
  return closeKernel(w, out);
}

namespace {

/// Every kernel of one spec's translation unit, in emission order.
std::vector<EmittedKernel> emitAllKernels(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  std::vector<EmittedKernel> kernels;
  kernels.push_back(emitStreamingVolumeKernel(spec));
  kernels.push_back(emitAccelVolumeKernel(spec));
  for (int d = 0; d < ks.cdim; ++d) kernels.push_back(emitStreamingSurfaceKernel(spec, d));
  for (int j = 0; j < ks.vdim; ++j) kernels.push_back(emitAccelSurfaceKernel(spec, j));
  kernels.push_back(emitLboDiffVolumeKernel(spec));
  for (int j = 0; j < ks.vdim; ++j) {
    kernels.push_back(emitLboDiffSurfaceKernel(spec, j));
    kernels.push_back(emitLboDiffBoundaryKernel(spec, j, -1));
    kernels.push_back(emitLboDiffBoundaryKernel(spec, j, +1));
  }
  return kernels;
}

}  // namespace

std::string emitKernelTranslationUnit(const BasisSpec& spec) {
  const VlasovKernelSet& ks = vlasovKernels(spec);
  const std::string pre = fnPrefix(spec);
  std::string laneList;
  for (const int lanes : kKernelLanes)
    laneList += (laneList.empty() ? "" : ",") + std::to_string(lanes);

  std::ostringstream os;
  os << "// ============================================================================\n"
     << "// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.\n"
     << "// Exact (alias-free) modal DG Vlasov and LBO-diffusion kernels for the\n"
     << "// " << spec.name() << " basis, rendered from the symbolically integrated sparse\n"
     << "// tensors with all constants folded to double precision (the paper's\n"
     << "// Maxima-CAS workflow).\n"
     << "// Each kernel updates an AoSoA block of B cells (mode-major, lane-minor:\n"
     << "// element i of lane b at [i*B+b]) in an inner lane loop the compiler\n"
     << "// autovectorizes; at B = 1 the block is one cell in its plain layout. The\n"
     << "// kernels are instantiated for B in {" << laneList << "}, and per lane the FP operation\n"
     << "// order does not depend on B (tests/test_batch.cpp). This translation unit\n"
     << "// is compiled with the VDG_KERNEL_SIMD flags (wider ISA + -ffp-contract=off).\n"
     << "// Regenerate with: gen_kernels <output-dir>\n"
     << "// ============================================================================\n"
     << "// clang-format off\n"
     << "#include <cmath>\n\n"
     << "#include \"kernels/registry.hpp\"\n\n"
     << "namespace vdg::gen_" << spec.name() << " {\nnamespace {\n\n";

  for (const EmittedKernel& k : emitAllKernels(spec)) os << k.source << "\n";

  os << "template <int B>\n"
     << "CompiledKernelSet kernelSet() {\n"
     << "  CompiledKernelSet k;\n"
     << "  k.lanes = B;\n"
     << "  k.streamVol = " << pre << "_stream_vol<B>;\n"
     << "  k.accelVol = " << pre << "_accel_vol<B>;\n";
  for (int d = 0; d < ks.cdim; ++d)
    os << "  k.streamSurf[" << d << "] = " << pre << "_stream_surf" << d << "<B>;\n";
  for (int j = 0; j < ks.vdim; ++j)
    os << "  k.accelSurf[" << j << "] = " << pre << "_accel_surf" << j << "<B>;\n";
  os << "  k.lbo.diffVol = " << pre << "_lbo_diff_vol<B>;\n";
  for (int j = 0; j < ks.vdim; ++j)
    os << "  k.lbo.diffSurf[" << j << "] = " << pre << "_lbo_diff_surf" << j << "<B>;\n"
       << "  k.lbo.diffBound[" << j << "][0] = " << pre << "_lbo_diff_bnd" << j << "_lo<B>;\n"
       << "  k.lbo.diffBound[" << j << "][1] = " << pre << "_lbo_diff_bnd" << j << "_up<B>;\n";
  os << "  return k;\n"
     << "}\n\n"
     << "}  // namespace\n\n"
     << kRegisterSignature
     << "  CompiledKernels k;\n"
     << "  k.numPhaseModes = " << ks.numPhaseModes << ";\n";
  for (int i = 0; i < kNumKernelLanes; ++i)
    os << "  k.sets[" << i << "] = kernelSet<" << kKernelLanes[i] << ">();\n";
  os << "  registerCompiledKernels(\"" << spec.name() << "\", k);\n"
     << "}\n\n"
     << "}  // namespace vdg::gen_" << spec.name() << "\n";
  return os.str();
}

}  // namespace vdg
