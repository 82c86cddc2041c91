// A waived hand-built ExperimentOptions: comparing against the struct's
// own defaults.
namespace fixture {

bool defaults_probe(const fl::ExperimentOptions& got) {
  const fl::ExperimentOptions defaults;  // analyze:waive(scenario-hardcode)
  // analyze:waive(scenario-hardcode) the waiver covers the line below too
  fl::ExperimentOptions second{};
  return got.seed == defaults.seed && got.seed == second.seed;
}

}  // namespace fixture
