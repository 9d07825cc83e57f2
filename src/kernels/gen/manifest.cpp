// AUTO-GENERATED by tools/gen_kernels — DO NOT EDIT BY HAND.
// Registration manifest for the generated kernel translation units.
namespace vdg::gen_1x1v_p1_ten { void registerKernels(); }
namespace vdg::gen_1x1v_p2_ten { void registerKernels(); }
namespace vdg::gen_1x1v_p2_ser { void registerKernels(); }
namespace vdg::gen_1x1v_p3_ser { void registerKernels(); }
namespace vdg::gen_1x1v_p3_ten { void registerKernels(); }
namespace vdg::gen_1x2v_p1_ten { void registerKernels(); }
namespace vdg::gen_1x2v_p1_ser { void registerKernels(); }
namespace vdg::gen_1x2v_p2_ser { void registerKernels(); }
namespace vdg::gen_1x2v_p2_ten { void registerKernels(); }
namespace vdg::gen_1x2v_p3_ser { void registerKernels(); }
namespace vdg::gen_1x3v_p1_ser { void registerKernels(); }
namespace vdg::gen_1x3v_p1_ten { void registerKernels(); }
namespace vdg::gen_1x3v_p2_ser { void registerKernels(); }
namespace vdg::gen_2x2v_p1_ser { void registerKernels(); }
namespace vdg::gen_2x2v_p1_ten { void registerKernels(); }
namespace vdg::gen_2x2v_p2_ser { void registerKernels(); }
namespace vdg::gen_2x3v_p1_ser { void registerKernels(); }
namespace vdg::gen_2x3v_p1_ten { void registerKernels(); }
namespace vdg::gen_2x3v_p2_ser { void registerKernels(); }
namespace vdg::gen_3x3v_p1_ser { void registerKernels(); }
namespace vdg::gen_3x3v_p1_max { void registerKernels(); }

namespace vdg::detail {

void registerGeneratedKernels() {
  vdg::gen_1x1v_p1_ten::registerKernels();
  vdg::gen_1x1v_p2_ten::registerKernels();
  vdg::gen_1x1v_p2_ser::registerKernels();
  vdg::gen_1x1v_p3_ser::registerKernels();
  vdg::gen_1x1v_p3_ten::registerKernels();
  vdg::gen_1x2v_p1_ten::registerKernels();
  vdg::gen_1x2v_p1_ser::registerKernels();
  vdg::gen_1x2v_p2_ser::registerKernels();
  vdg::gen_1x2v_p2_ten::registerKernels();
  vdg::gen_1x2v_p3_ser::registerKernels();
  vdg::gen_1x3v_p1_ser::registerKernels();
  vdg::gen_1x3v_p1_ten::registerKernels();
  vdg::gen_1x3v_p2_ser::registerKernels();
  vdg::gen_2x2v_p1_ser::registerKernels();
  vdg::gen_2x2v_p1_ten::registerKernels();
  vdg::gen_2x2v_p2_ser::registerKernels();
  vdg::gen_2x3v_p1_ser::registerKernels();
  vdg::gen_2x3v_p1_ten::registerKernels();
  vdg::gen_2x3v_p2_ser::registerKernels();
  vdg::gen_3x3v_p1_ser::registerKernels();
  vdg::gen_3x3v_p1_max::registerKernels();
}

}  // namespace vdg::detail
