// Fixed association order: strict left-to-right over i (tensor/ops.hpp
// contract), so the float accumulators below are documented.
namespace fixture {

float dot(const float* a, const float* b, int n) {
  float sum = 0.0f;
  for (int i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

}  // namespace fixture
