// Sanctioned ways for a paper bench to get experiment options: copy-init
// from a loaded Table 1 cell, and a waived hand-built set whose goldens no
// scenario file can express.
namespace fixture {

int bench_main(const bench::Args& args) {
  fl::ExperimentOptions options = bench::load_cell(nn::ModelKind::kCnn, args).options;
  options.target_accuracy = 0.0;
  return 0;
}

fl::ExperimentOptions harness_options() {
  fl::ExperimentOptions options;  // analyze:waive(scenario-hardcode)
  return options;
}

}  // namespace fixture
