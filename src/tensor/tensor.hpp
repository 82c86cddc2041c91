// Dense row-major tensor of 32-bit floats.
//
// This is the storage type underneath the neural-network substrate. Design
// goals, in order: correctness, debuggability (bounds-checked at() in all
// builds, debug-asserted operator[]), and performance for the federated
// round hot loop. There is no view/aliasing machinery — every Tensor owns
// its buffer — which keeps update accounting in the FL layer trivially
// correct. Shapes are stored inline (no heap) up to Shape::kMaxRank
// dimensions, so a tensor's one allocation is its float buffer.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

// Cheap bounds assertions on the unchecked access paths: active in debug
// builds, compiled out under NDEBUG.
#ifndef NDEBUG
#define FEDCA_TENSOR_DCHECK(cond) assert(cond)
#else
#define FEDCA_TENSOR_DCHECK(cond) ((void)0)
#endif

namespace fedca::tensor {

// Shape of a tensor; empty shape denotes a scalar-less, empty tensor.
// Inline fixed-capacity sequence of dimensions with a vector-like surface.
// Keeping dims inline means constructing a Tensor never allocates for its
// shape.
class Shape {
 public:
  using value_type = std::size_t;
  // Highest tensor rank the system supports ([N, C, H, W] is the deepest
  // layout in use; 8 leaves headroom).
  static constexpr std::size_t kMaxRank = 8;

  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims) {
    check_rank(dims.size());
    for (const std::size_t d : dims) dims_[rank_++] = d;
  }
  // `rank` dimensions, all zero (mirrors std::vector's count constructor).
  explicit Shape(std::size_t rank) : rank_(rank) { check_rank(rank); }
  template <typename It>
  Shape(It first, It last) {
    for (; first != last; ++first) push_back(static_cast<std::size_t>(*first));
  }

  std::size_t size() const { return rank_; }
  bool empty() const { return rank_ == 0; }
  std::size_t& operator[](std::size_t i) {
    FEDCA_TENSOR_DCHECK(i < rank_);
    return dims_[i];
  }
  std::size_t operator[](std::size_t i) const {
    FEDCA_TENSOR_DCHECK(i < rank_);
    return dims_[i];
  }
  std::size_t* begin() { return dims_; }
  std::size_t* end() { return dims_ + rank_; }
  const std::size_t* begin() const { return dims_; }
  const std::size_t* end() const { return dims_ + rank_; }
  std::size_t front() const { return (*this)[0]; }
  std::size_t back() const { return (*this)[rank_ - 1]; }

  void push_back(std::size_t d) {
    check_rank(rank_ + 1);
    dims_[rank_++] = d;
  }
  void clear() { rank_ = 0; }

  friend bool operator==(const Shape& a, const Shape& b) {
    if (a.rank_ != b.rank_) return false;
    for (std::size_t i = 0; i < a.rank_; ++i) {
      if (a.dims_[i] != b.dims_[i]) return false;
    }
    return true;
  }
  friend bool operator!=(const Shape& a, const Shape& b) { return !(a == b); }

 private:
  static void check_rank(std::size_t rank) {
    if (rank > kMaxRank) {
      throw std::length_error("Shape: rank exceeds kMaxRank");
    }
  }

  std::size_t rank_ = 0;
  std::size_t dims_[kMaxRank] = {};
};

// Number of elements a shape describes (product of dims; 1-dim minimum not
// enforced — an empty shape has 0 elements by convention here).
std::size_t shape_numel(const Shape& shape);

// "[2, 3, 4]" — for error messages and logs.
std::string shape_to_string(const Shape& shape);

class Tensor {
 public:
  // Empty tensor (no elements, empty shape).
  Tensor() = default;
  // Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape);
  // Tensor filled with `fill`.
  Tensor(Shape shape, float fill);
  // Tensor adopting existing data; data.size() must equal shape_numel(shape).
  Tensor(Shape shape, std::vector<float> data);

  // Copies are vector copies (copy-assign reuses capacity); a moved-from
  // tensor is left empty, shape included.
  Tensor(const Tensor& other) = default;
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(const Tensor& other) = default;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor() = default;

  static Tensor full(Shape shape, float value) { return Tensor(std::move(shape), value); }
  // 1-D tensor from an initializer list — handy in tests.
  static Tensor of(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::size_t ndim() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t axis) const;
  bool empty() const { return data_.empty(); }
  // Bytes of payload if serialized as float32 — used by the network
  // simulator to cost transfers.
  std::size_t byte_size() const { return data_.size() * sizeof(float); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  float* raw() { return data_.data(); }
  const float* raw() const { return data_.data(); }

  // Bounds-checked element access by flat index.
  float& at(std::size_t flat_index);
  float at(std::size_t flat_index) const;
  // Bounds-checked 2-D access (requires ndim() == 2).
  float& at(std::size_t row, std::size_t col);
  float at(std::size_t row, std::size_t col) const;
  // Unchecked flat access for kernels (asserted in debug builds).
  float& operator[](std::size_t i) {
    FEDCA_TENSOR_DCHECK(i < data_.size());
    return data_[i];
  }
  float operator[](std::size_t i) const {
    FEDCA_TENSOR_DCHECK(i < data_.size());
    return data_[i];
  }

  // Reinterprets the buffer with a new shape of equal numel.
  Tensor reshaped(Shape new_shape) const;
  void fill(float value);
  // Sets all elements to +0 (one memset).
  void zero();

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace fedca::tensor
