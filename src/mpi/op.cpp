#include "src/mpi/op.hpp"

#include <algorithm>
#include <cstdint>
#include <string>
#include <type_traits>

#include "src/support/error.hpp"

namespace adapt::mpi {

const char* op_name(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum: return "sum";
    case ReduceOp::kProd: return "prod";
    case ReduceOp::kMax: return "max";
    case ReduceOp::kMin: return "min";
    case ReduceOp::kBand: return "band";
    case ReduceOp::kBor: return "bor";
  }
  return "?";
}

namespace {

/// Integer sum and product wrap like two's-complement hardware. Signed
/// overflow is undefined, so they are computed in the unsigned type of the
/// same width and converted back (modular since C++20): the same bits.
template <typename T, bool = std::is_integral_v<T>>
struct WrapType {
  using type = T;
};
template <typename T>
struct WrapType<T, true> {
  using type = std::make_unsigned_t<T>;
};

template <typename T>
void fold(ReduceOp op, std::byte* dst_raw, const std::byte* src_raw,
          Bytes bytes) {
  const std::size_t n = static_cast<std::size_t>(bytes) / sizeof(T);
  T* dst = reinterpret_cast<T*>(dst_raw);
  const T* src = reinterpret_cast<const T*>(src_raw);
  using W = typename WrapType<T>::type;
  switch (op) {
    case ReduceOp::kSum:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<T>(static_cast<W>(dst[i]) + static_cast<W>(src[i]));
      return;
    case ReduceOp::kProd:
      for (std::size_t i = 0; i < n; ++i)
        dst[i] = static_cast<T>(static_cast<W>(dst[i]) * static_cast<W>(src[i]));
      return;
    case ReduceOp::kMax:
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::max(dst[i], src[i]);
      return;
    case ReduceOp::kMin:
      for (std::size_t i = 0; i < n; ++i) dst[i] = std::min(dst[i], src[i]);
      return;
    case ReduceOp::kBand:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<T>(dst[i] & src[i]);
        return;
      }
      break;
    case ReduceOp::kBor:
      if constexpr (std::is_integral_v<T>) {
        for (std::size_t i = 0; i < n; ++i) dst[i] = static_cast<T>(dst[i] | src[i]);
        return;
      }
      break;
  }
  throw Error(std::string("op ") + op_name(op) +
              " is not defined for floating-point datatypes");
}

}  // namespace

void apply(ReduceOp op, Datatype dtype, std::byte* dst, const std::byte* src,
           Bytes bytes) {
  ADAPT_CHECK(bytes >= 0);
  ADAPT_CHECK(bytes % size_of(dtype) == 0)
      << "bytes=" << bytes << " not a multiple of " << datatype_name(dtype);
  switch (dtype) {
    case Datatype::kUint8: fold<std::uint8_t>(op, dst, src, bytes); return;
    case Datatype::kInt32: fold<std::int32_t>(op, dst, src, bytes); return;
    case Datatype::kInt64: fold<std::int64_t>(op, dst, src, bytes); return;
    case Datatype::kFloat: fold<float>(op, dst, src, bytes); return;
    case Datatype::kDouble: fold<double>(op, dst, src, bytes); return;
  }
  ADAPT_UNREACHABLE("bad datatype");
}

}  // namespace adapt::mpi
