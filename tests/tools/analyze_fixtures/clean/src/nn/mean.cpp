// Accumulating in double and casting once at the end is the stronger
// pattern; neither the double declaration nor the cast is a float
// accumulator.
namespace fixture {

float mean(const float* a, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += a[i];
  return static_cast<float>(acc / n);
}

const char* kNote = "float acc is only text here";

}  // namespace fixture
