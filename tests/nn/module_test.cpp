// Module plumbing: parameter naming, zero_grad, state capture/restore,
// ModelState arithmetic; nn::Tanh keeping libm's bits; MaxPool2d routing
// an all-NaN window's gradient inside its own sample.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/models.hpp"
#include "nn/sequential.hpp"
#include "nn/state.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace fedca {
namespace {

TEST(Module, ParameterNamesFollowPrefix) {
  util::Rng rng(1);
  nn::Linear fc("fc7", 3, 2, rng);
  const auto params = fc.parameters();
  ASSERT_EQ(params.size(), 2u);
  EXPECT_EQ(params[0]->name, "fc7.weight");
  EXPECT_EQ(params[1]->name, "fc7.bias");
  EXPECT_EQ(params[0]->value.shape(), (tensor::Shape{2, 3}));
  EXPECT_EQ(params[1]->value.shape(), (tensor::Shape{2}));
}

TEST(Module, ZeroGradClearsAccumulation) {
  util::Rng rng(2);
  nn::Linear fc("fc", 3, 2, rng);
  nn::Tensor x({2, 3}, 1.0f);
  fc.forward(x);
  fc.backward(nn::Tensor({2, 2}, 1.0f));
  bool any_nonzero = false;
  for (nn::Parameter* p : fc.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      if (p->grad[i] != 0.0f) any_nonzero = true;
    }
  }
  ASSERT_TRUE(any_nonzero);
  fc.zero_grad();
  for (nn::Parameter* p : fc.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      ASSERT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Module, BackwardAccumulatesAcrossCalls) {
  util::Rng rng(3);
  nn::Linear fc("fc", 2, 2, rng);
  nn::Tensor x({1, 2}, 1.0f);
  nn::Tensor g({1, 2}, 1.0f);
  fc.zero_grad();
  fc.forward(x);
  fc.backward(g);
  const float once = fc.parameters()[0]->grad[0];
  fc.forward(x);
  fc.backward(g);
  EXPECT_FLOAT_EQ(fc.parameters()[0]->grad[0], 2.0f * once);
}

TEST(Module, TanhForwardIsLibmTanhBitForBit) {
  // nn::Tanh runs tensor::tanh; its output must keep std::tanh's bits.
  util::Rng rng(9);
  nn::Tensor x({4, 37});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(rng.normal(0.0, 8.0));
  nn::Tanh layer;
  const nn::Tensor y = layer.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float want = std::tanh(x[i]);
    EXPECT_EQ(std::memcmp(&want, y.raw() + i, sizeof want), 0) << "x=" << x[i];
  }
}

TEST(Module, MaxPoolAllNanWindowKeepsItsGradient) {
  // Sample 1 is all NaN: its window yields -inf, and its gradient lands on
  // its own first pixel, not on sample 0's.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  nn::MaxPool2d pool(1, 2, 2, 2);
  const nn::Tensor x({2, 1, 2, 2}, std::vector<float>{1, 2, 3, 4, nan, nan, nan, nan});
  const nn::Tensor y = pool.forward(x);
  EXPECT_EQ(y[0], 4.0f);
  EXPECT_EQ(y[1], -std::numeric_limits<float>::infinity());
  const nn::Tensor dx = pool.backward(nn::Tensor({2, 1, 1, 1}, 1.0f));
  const std::vector<float> want{0, 0, 0, 1, 1, 0, 0, 0};
  EXPECT_EQ(std::vector<float>(dx.raw(), dx.raw() + dx.numel()), want);
}

TEST(Module, ParameterCount) {
  util::Rng rng(4);
  nn::Linear fc("fc", 10, 4, rng);
  EXPECT_EQ(nn::parameter_count(fc), 44u);
}

TEST(ModelState, CaptureAndLoadRoundTrip) {
  util::Rng rng(5);
  nn::Classifier model = nn::build_model(nn::ModelKind::kCnn, rng);
  nn::ModelState state = model.state();
  EXPECT_EQ(state.layer_count(), model.parameters().size());
  EXPECT_EQ(state.numel(), model.info().actual_params);

  // Perturb the model, reload, verify restoration.
  for (nn::Parameter* p : model.parameters()) {
    for (std::size_t i = 0; i < p->value.numel(); ++i) p->value[i] += 1.0f;
  }
  model.load(state);
  nn::ModelState after = model.state();
  for (std::size_t l = 0; l < state.layer_count(); ++l) {
    for (std::size_t i = 0; i < state.tensors[l].numel(); ++i) {
      ASSERT_EQ(after.tensors[l][i], state.tensors[l][i]);
    }
  }
}

TEST(ModelState, NamesMatchParameters) {
  util::Rng rng(6);
  nn::Classifier model = nn::build_model(nn::ModelKind::kLstm, rng);
  nn::ModelState state = model.state();
  const auto params = model.parameters();
  ASSERT_EQ(state.names.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(state.names[i], params[i]->name);
  }
  // PyTorch-style LSTM names the paper's figures reference.
  EXPECT_NO_THROW(state.layer_index("rnn.weight_hh_l0"));
  EXPECT_NO_THROW(state.layer_index("rnn.bias_ih_l0"));
  EXPECT_THROW(state.layer_index("nonexistent"), std::out_of_range);
}

TEST(ModelState, Arithmetic) {
  nn::ModelState a;
  a.names = {"x"};
  a.tensors = {nn::Tensor({3}, std::vector<float>{1, 2, 3})};
  nn::ModelState b;
  b.names = {"x"};
  b.tensors = {nn::Tensor({3}, std::vector<float>{10, 20, 30})};

  nn::ModelState d = nn::state_sub(b, a);
  EXPECT_EQ(d.tensors[0][2], 27.0f);

  nn::state_add_scaled(a, 0.1f, b);
  EXPECT_FLOAT_EQ(a.tensors[0][0], 2.0f);

  nn::ModelState z = nn::state_zeros_like(a);
  EXPECT_EQ(z.tensors[0][1], 0.0f);
  EXPECT_EQ(z.names[0], "x");

  nn::state_scale(b, 0.5f);
  EXPECT_FLOAT_EQ(b.tensors[0][0], 5.0f);

  nn::ModelState n;
  n.names = {"x"};
  n.tensors = {nn::Tensor({2}, std::vector<float>{3, 4})};
  EXPECT_DOUBLE_EQ(nn::state_l2_norm(n), 5.0);
}

TEST(ModelState, LayoutMismatchThrows) {
  nn::ModelState a;
  a.tensors = {nn::Tensor({3})};
  nn::ModelState b;
  b.tensors = {nn::Tensor({4})};
  EXPECT_THROW(nn::state_sub(a, b), std::invalid_argument);
  EXPECT_THROW(nn::state_add_scaled(a, 1.0f, b), std::invalid_argument);
  EXPECT_FALSE(a.same_layout(b));
}

TEST(ModelState, FlattenedConcatenatesLayers) {
  nn::ModelState s;
  s.tensors = {nn::Tensor({2}, std::vector<float>{1, 2}),
               nn::Tensor({1}, std::vector<float>{3})};
  const std::vector<float> flat = s.flattened();
  EXPECT_EQ(flat, (std::vector<float>{1, 2, 3}));
  EXPECT_EQ(s.byte_size(), 12u);
}

TEST(ModelState, LoadRejectsWrongLayout) {
  util::Rng rng(7);
  nn::Classifier cnn = nn::build_model(nn::ModelKind::kCnn, rng);
  nn::Classifier lstm = nn::build_model(nn::ModelKind::kLstm, rng);
  EXPECT_THROW(cnn.load(lstm.state()), std::invalid_argument);
}

}  // namespace
}  // namespace fedca
