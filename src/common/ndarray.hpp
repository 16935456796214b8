#pragma once
// Dense N-dimensional array of floating-point samples.
//
// Scientific fields in this repo are 1-, 2- or 3-dimensional grids of
// float/double values. NdArray owns its storage and carries the grid
// shape; it is the unit the compressors, feature extractors, and
// dataset generators exchange.
//
// Dimension order is row-major with dims()[0] slowest-varying, matching
// the "nz x ny x nx" convention the paper uses (e.g. RTM 449x449x235).

#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace ocelot {

/// Grid shape: up to 3 dimensions; unused dims are 1.
class Shape {
 public:
  Shape() : dims_{1, 1, 1}, rank_(0) {}
  explicit Shape(std::size_t n0) : dims_{n0, 1, 1}, rank_(1) {
    require(n0 > 0, "Shape: zero dimension");
  }
  Shape(std::size_t n0, std::size_t n1) : dims_{n0, n1, 1}, rank_(2) {
    require(n0 > 0 && n1 > 0, "Shape: zero dimension");
    require_size_fits();
  }
  Shape(std::size_t n0, std::size_t n1, std::size_t n2)
      : dims_{n0, n1, n2}, rank_(3) {
    require(n0 > 0 && n1 > 0 && n2 > 0, "Shape: zero dimension");
    require_size_fits();
  }

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] std::size_t dim(int i) const {
    return dims_[static_cast<std::size_t>(i)];
  }
  [[nodiscard]] std::size_t size() const {
    return dims_[0] * dims_[1] * dims_[2];
  }

  friend bool operator==(const Shape& a, const Shape& b) {
    return a.rank_ == b.rank_ && a.dims_ == b.dims_;
  }

 private:
  /// Rejects dims whose element count wraps size_t (shapes parsed from
  /// wire varints can claim anything), so size() is always exact.
  void require_size_fits() const {
    const std::size_t max = std::numeric_limits<std::size_t>::max();
    require(dims_[1] <= max / dims_[0] &&
                dims_[2] <= max / (dims_[0] * dims_[1]),
            "Shape: element count overflows size_t");
  }

  std::array<std::size_t, 3> dims_;
  int rank_;
};

/// Owning dense array with shape. T is float or double.
template <typename T>
class NdArray {
 public:
  NdArray() = default;

  /// Allocates a zero-initialized array of the given shape.
  explicit NdArray(Shape shape) : shape_(shape), data_(shape.size(), T{}) {}

  /// Wraps existing sample data; size must match the shape.
  NdArray(Shape shape, std::vector<T> data)
      : shape_(shape), data_(std::move(data)) {
    require(data_.size() == shape_.size(),
            "NdArray: data size does not match shape");
  }

  [[nodiscard]] const Shape& shape() const { return shape_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }
  [[nodiscard]] std::size_t byte_size() const {
    return data_.size() * sizeof(T);
  }

  [[nodiscard]] std::span<const T> values() const { return data_; }
  [[nodiscard]] std::span<T> values() { return data_; }
  [[nodiscard]] const std::vector<T>& vector() const { return data_; }

  /// Moves the storage out, leaving the array empty. Lets the pooled
  /// block codec hand scratch vectors back to their ScratchPool after
  /// wrapping them in a temporary array.
  [[nodiscard]] std::vector<T> release() {
    shape_ = Shape();
    return std::move(data_);
  }

  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }

  /// 2-D access: (row, col) with row the slow dimension.
  [[nodiscard]] T& at(std::size_t i, std::size_t j) {
    return data_[i * shape_.dim(1) + j];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t j) const {
    return data_[i * shape_.dim(1) + j];
  }

  /// 3-D access: (plane, row, col) with plane the slow dimension.
  [[nodiscard]] T& at(std::size_t i, std::size_t j, std::size_t k) {
    return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
  }
  [[nodiscard]] const T& at(std::size_t i, std::size_t j, std::size_t k) const {
    return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
  }

 private:
  Shape shape_;
  std::vector<T> data_;
};

using FloatArray = NdArray<float>;
using DoubleArray = NdArray<double>;

}  // namespace ocelot
