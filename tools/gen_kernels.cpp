// Kernel generator driver (the role Maxima plays for Gkeyll): renders the
// pre-generated C++ kernel translation units for a curated set of basis
// specs into the given output directory (normally src/kernels/gen/, checked
// into the repository like Gkeyll's generated kernels).
//
// Usage: gen_kernels <output-dir>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "tensors/emit.hpp"

int main(int argc, char** argv) {
  using namespace vdg;
  if (argc != 2) {
    std::fprintf(stderr, "usage: gen_kernels <output-dir>\n");
    return 1;
  }
  const std::string outDir = argv[1];

  // Every spec exercised by the examples, tests and benchmarks. The
  // 2X3V p2 Serendipity set (112 DOF, the paper's Table I configuration)
  // is the largest one generated.
  const std::vector<BasisSpec> specs = {
      // 1X1V
      {1, 1, 1, BasisFamily::Tensor},
      {1, 1, 2, BasisFamily::Tensor},
      {1, 1, 2, BasisFamily::Serendipity},
      {1, 1, 3, BasisFamily::Serendipity},
      {1, 1, 3, BasisFamily::Tensor},
      // 1X2V
      {1, 2, 1, BasisFamily::Tensor},
      {1, 2, 1, BasisFamily::Serendipity},
      {1, 2, 2, BasisFamily::Serendipity},
      {1, 2, 2, BasisFamily::Tensor},
      {1, 2, 3, BasisFamily::Serendipity},
      // 1X3V
      {1, 3, 1, BasisFamily::Serendipity},
      {1, 3, 1, BasisFamily::Tensor},
      {1, 3, 2, BasisFamily::Serendipity},
      // 2X2V
      {2, 2, 1, BasisFamily::Serendipity},
      {2, 2, 1, BasisFamily::Tensor},
      {2, 2, 2, BasisFamily::Serendipity},
      // 2X3V (Table I configuration is 2x3v p2 Serendipity)
      {2, 3, 1, BasisFamily::Serendipity},
      {2, 3, 1, BasisFamily::Tensor},
      {2, 3, 2, BasisFamily::Serendipity},
      // 3X3V (the paper's weak/strong scaling configuration, Np=64)
      {3, 3, 1, BasisFamily::Serendipity},
      {3, 3, 1, BasisFamily::MaximalOrder},
  };

  for (const BasisSpec& spec : specs) {
    const std::string path = outDir + "/vlasov_" + spec.name() + ".cpp";
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    os << emitKernelTranslationUnit(spec);
    std::printf("wrote %s\n", path.c_str());
  }

  // Manifest: the registry calls this to register every generated set
  // (static-initializer registration would be dropped by the archiver).
  {
    const std::string path = outDir + "/manifest.cpp";
    std::ofstream os(path);
    os << "// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.\n"
       << "// Registration manifest for the generated kernel translation units.\n";
    for (const BasisSpec& spec : specs)
      os << "namespace vdg::gen_" << spec.name() << " { void registerKernels(); }\n";
    os << "\nnamespace vdg::detail {\n\nvoid registerGeneratedKernels() {\n";
    for (const BasisSpec& spec : specs) os << "  vdg::gen_" << spec.name() << "::registerKernels();\n";
    os << "}\n\n}  // namespace vdg::detail\n";
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}
