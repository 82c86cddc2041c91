// Sanctioned ways for a test to get experiment options: copy-init from a
// loaded scenario or a helper, reference parameters, and helper
// definitions.
namespace fixture {

void probe(const fl::ExperimentOptions& options);
fl::ExperimentOptions make() { return tiny(); }

void use(const char* path) {
  const fl::Scenario sc = fl::load_scenario_file(path);
  fl::ExperimentOptions options = sc.options;
  fl::ExperimentOptions tweaked = tiny();
  probe(options);
  probe(tweaked);
  // A mention in a comment is not code: fl::ExperimentOptions x;
}

}  // namespace fixture
