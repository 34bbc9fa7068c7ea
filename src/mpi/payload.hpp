// Payload views: the unit of data the runtime moves.
//
// A view is either *real* (points at actual bytes, which the transport copies
// end-to-end so correctness is testable) or *synthetic* (size-only; used at
// paper scale where materialising 1.5k ranks × 4 MB is pointless — the timing
// model only ever reads sizes). Real and synthetic payloads follow identical
// code paths; only the final memcpy/arithmetic is skipped for synthetic ones.
//
// Real payloads are backed by pooled BufferRefs: engine-internal staging
// buffers (segment scratch, eager copies) come from the engine's BufferPool
// and recycle across segments and collectives; engine-free payloads (unit
// tests, user buffers) fall back to plain heap blocks. Either way the first
// `size` bytes start zeroed, exactly as the vector-backed payloads did.
#pragma once

#include <cstddef>
#include <vector>

#include "src/support/buffer_pool.hpp"
#include "src/support/error.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

/// Read-only view of send data.
struct ConstView {
  const std::byte* data = nullptr;  ///< null for synthetic views
  Bytes size = 0;

  bool synthetic() const { return data == nullptr; }
  ConstView slice(Bytes offset, Bytes len) const {
    ADAPT_CHECK(offset >= 0 && len >= 0 && offset + len <= size);
    return ConstView{data ? data + offset : nullptr, len};
  }
};

/// Writable view of receive space.
struct MutView {
  std::byte* data = nullptr;  ///< null for synthetic views
  Bytes size = 0;

  bool synthetic() const { return data == nullptr; }
  MutView slice(Bytes offset, Bytes len) const {
    ADAPT_CHECK(offset >= 0 && len >= 0 && offset + len <= size);
    return MutView{data ? data + offset : nullptr, len};
  }
  ConstView as_const() const { return ConstView{data, size}; }
};

/// Owning buffer with view accessors; `Payload::synthetic(n)` produces a
/// size-only payload that never allocates.
class Payload {
 public:
  Payload() = default;

  static Payload real(Bytes size) {
    Payload p;
    p.size_ = size;
    if (size > 0) p.buf_ = support::BufferRef::heap(size);
    return p;
  }
  /// Pool-backed payload: the block returns to `pool` when the payload (and
  /// any copies) die. Zero-filled like real().
  static Payload pooled(support::BufferPool& pool, Bytes size) {
    Payload p;
    p.size_ = size;
    if (size > 0) p.buf_ = pool.acquire(size);
    return p;
  }
  static Payload synthetic(Bytes size) {
    Payload p;
    p.size_ = size;
    return p;
  }
  /// Staging-buffer helper for the collectives: synthetic mirrors a
  /// synthetic user buffer; otherwise pooled when an engine pool is at hand,
  /// plain heap when not (engine-free unit tests).
  static Payload scratch(support::BufferPool* pool, Bytes size,
                         bool synthetic) {
    if (synthetic) return Payload::synthetic(size);
    return pool ? Payload::pooled(*pool, size) : Payload::real(size);
  }

  Bytes size() const { return size_; }

  MutView view() { return MutView{buf_ ? buf_.data() : nullptr, size_}; }
  ConstView cview() const {
    return ConstView{buf_ ? buf_.data() : nullptr, size_};
  }
  std::byte* data() { return buf_ ? buf_.data() : nullptr; }
  const std::byte* data() const { return buf_ ? buf_.data() : nullptr; }

 private:
  Bytes size_ = 0;
  support::BufferRef buf_;
};

}  // namespace adapt::mpi
