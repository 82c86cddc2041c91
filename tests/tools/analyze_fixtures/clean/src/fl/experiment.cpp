// scenario-hardcode is scoped to tests/: the library may build its own
// options type freely.
namespace fixture {

struct ExperimentOptions {
  int clients = 0;
};

ExperimentOptions defaults;

}  // namespace fixture
