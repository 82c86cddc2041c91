// A waived float accumulator: a single-term epilogue has no order to
// document.
namespace fixture {

float epilogue(float x) {
  float acc = x;  // analyze:waive(float-accum) scalar epilogue, single term
  return acc;
}

}  // namespace fixture
