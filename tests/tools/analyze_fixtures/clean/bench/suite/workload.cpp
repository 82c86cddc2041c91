// bench/suite/ owns the benchmark's fixed workloads: hand-built options
// are its job.
namespace fixture {

fl::ExperimentOptions table1_quick() {
  fl::ExperimentOptions options;
  options.num_clients = 10;
  return options;
}

}  // namespace fixture
