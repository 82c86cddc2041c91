// A paper bench that builds its run by hand instead of loading a Table 1
// cell.
namespace fixture {

int bench_main() {
  fl::ExperimentOptions options;  // expect: scenario-hardcode
  options.num_clients = 10;
  return 0;
}

}  // namespace fixture
