// No test file is exempt: a suite that predates the scenario DSL is
// checked like any other.
namespace fixture {

fl::ExperimentOptions options;  // expect: scenario-hardcode

}  // namespace fixture
