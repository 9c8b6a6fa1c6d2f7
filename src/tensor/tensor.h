// A minimal dense 2-D float32 tensor.
//
// This is the numeric substrate standing in for the GPU tensors that DGL /
// PyTorch provide in the original APT implementation. Row-major, owning,
// value-semantic. Kernels live in ops.h / segment_ops.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/error.h"

namespace apt {

/// std::allocator whose no-argument construct() default-initializes: a
/// vector<float> resized with it leaves the new elements unwritten. Other
/// constructions (fill, copy) take allocator_traits' default path.
template <class T>
struct DefaultInitAllocator : std::allocator<T> {
  using std::allocator<T>::allocator;
  template <class U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols tensor.
  Tensor(std::int64_t rows, std::int64_t cols)
      : rows_(rows), cols_(cols), data_(CheckedSize(rows, cols), 0.0f) {}

  // Moves keep the buffer (data() is unchanged) and leave the source an
  // empty 0 x 0 tensor.
  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&& o) noexcept
      : rows_(std::exchange(o.rows_, 0)),
        cols_(std::exchange(o.cols_, 0)),
        data_(std::move(o.data_)) {}
  Tensor& operator=(Tensor&& o) noexcept {
    rows_ = std::exchange(o.rows_, 0);
    cols_ = std::exchange(o.cols_, 0);
    data_ = std::move(o.data_);
    return *this;
  }

  Tensor(std::int64_t rows, std::int64_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    APT_CHECK_EQ(static_cast<std::int64_t>(data_.size()), rows * cols);
  }

  /// rows x cols tensor whose elements are left unwritten: for outputs the
  /// next kernel overwrites in full (gather targets, beta = 0 GEMM outputs,
  /// SpMM outputs). Accumulators must use the zero-filled constructor.
  /// AddressSanitizer builds fill with quiet NaN instead, so a kernel that
  /// reads an element it did not write breaks the bit-parity tests.
  static Tensor Uninitialized(std::int64_t rows, std::int64_t cols) {
    Tensor t;
    t.data_.resize(CheckedSize(rows, cols));
    t.rows_ = rows;
    t.cols_ = cols;
#if defined(__SANITIZE_ADDRESS__)
    t.Fill(std::numeric_limits<float>::quiet_NaN());
#endif
    return t;
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t numel() const { return rows_ * cols_; }
  bool empty() const { return numel() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the beginning of row r.
  float* row(std::int64_t r) {
    APT_CHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }
  const float* row(std::int64_t r) const {
    APT_CHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }
  std::span<float> row_span(std::int64_t r) { return {row(r), static_cast<std::size_t>(cols_)}; }
  std::span<const float> row_span(std::int64_t r) const {
    return {row(r), static_cast<std::size_t>(cols_)};
  }

  float& at(std::int64_t r, std::int64_t c) {
    APT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") of (" << rows_ << "," << cols_ << ")";
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  float at(std::int64_t r, std::int64_t c) const {
    APT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") of (" << rows_ << "," << cols_ << ")";
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Unchecked element access for hot kernels.
  float& operator()(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  float operator()(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  bool SameShape(const Tensor& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  std::string ShapeString() const;

  /// Total payload size in bytes (what the simulator charges for transfers).
  std::int64_t bytes() const { return numel() * static_cast<std::int64_t>(sizeof(float)); }

 private:
  static std::size_t CheckedSize(std::int64_t rows, std::int64_t cols) {
    APT_CHECK_GE(rows, 0);
    APT_CHECK_GE(cols, 0);
    return static_cast<std::size_t>(rows * cols);
  }

  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

/// Row-major matrix views of a Tensor's buffer (implicit from a Tensor). A
/// view borrows the buffer, which a move of the tensor keeps in place.
struct MatrixRef {
  MatrixRef(Tensor& t) : data(t.data()), rows(t.rows()), cols(t.cols()) {}
  MatrixRef(float* d, std::int64_t r, std::int64_t c) : data(d), rows(r), cols(c) {}
  float* data;
  std::int64_t rows;
  std::int64_t cols;
};

/// Read-only view; a writable view converts to one.
struct ConstMatrixRef {
  ConstMatrixRef(const Tensor& t) : data(t.data()), rows(t.rows()), cols(t.cols()) {}
  ConstMatrixRef(MatrixRef m) : data(m.data), rows(m.rows), cols(m.cols) {}
  ConstMatrixRef(const float* d, std::int64_t r, std::int64_t c)
      : data(d), rows(r), cols(c) {}
  const float* data;
  std::int64_t rows;
  std::int64_t cols;
};

}  // namespace apt
