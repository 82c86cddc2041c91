// Hand-built experiment options in tests: default construction and both
// brace-initialization spellings.
namespace fixture {

void build() {
  fl::ExperimentOptions options;  // expect: scenario-hardcode
  options.num_clients = 5;
  fl::ExperimentOptions braced{};  // expect: scenario-hardcode
  const fl::ExperimentOptions assigned = {};  // expect: scenario-hardcode
}

}  // namespace fixture
