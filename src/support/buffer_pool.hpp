// Size-classed buffer pool with intrusive refcounted buffers.
//
// The simulator's data plane recycles two kinds of byte buffers at high
// rate: ADAPT segment staging scratch (one per in-flight segment) and
// captured message payloads (unexpected-queue staging, and the transport
// paths that cannot borrow the sender's buffer). Each used to
// be a fresh vector<byte> (or make_shared<vector<byte>> — two allocations),
// so a 1k-rank collective paid millions of malloc/free round trips for
// buffers of a handful of recurring sizes. The pool holds freed blocks on
// per-size-class free lists (capacities are powers of two, 64 B minimum) and
// hands them back on the next acquire: steady state allocates nothing.
//
// BufferRef is the owner handle: a pointer to a header co-allocated ahead of
// the data bytes, carrying an intrusive atomic refcount and the home pool.
// Copies share the block (envelopes holding a captured payload are copied
// through lambda captures and the unexpected queue); the last drop returns the block to its
// pool — or plain-deletes it for pool-less blocks (BufferRef::heap), which
// keeps Payload usable in unit tests with no engine around.
//
// Thread safety: the free lists are mutex-guarded and the refcount is
// atomic, so ThreadEngine ranks may acquire/release concurrently. The
// SimEngine is single-threaded and pays only an uncontended lock.
//
// Lifetime contract: a pool-backed BufferRef must not outlive its pool
// (release returns the block to a raw pool pointer). Engines own the pool
// and declare it before every component that holds buffers, so it is
// destroyed last — the same by-construction discipline as EventHandle/slab.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "src/support/units.hpp"

namespace adapt::support {

class BufferPool;

namespace detail {

/// Block header; the data bytes follow immediately.
struct alignas(std::max_align_t) BufHeader {
  BufferPool* pool;                 ///< null for pool-less heap blocks
  std::uint32_t size_class;
  std::atomic<std::uint32_t> refs;
};

}  // namespace detail

/// Shared owner of one pooled (or heap) byte block.
class BufferRef {
 public:
  BufferRef() = default;
  BufferRef(const BufferRef& other) : h_(other.h_) {
    if (h_) h_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  BufferRef(BufferRef&& other) noexcept : h_(other.h_) { other.h_ = nullptr; }
  BufferRef& operator=(const BufferRef& other) {
    if (this != &other) {
      release();
      h_ = other.h_;
      if (h_) h_->refs.fetch_add(1, std::memory_order_relaxed);
    }
    return *this;
  }
  BufferRef& operator=(BufferRef&& other) noexcept {
    if (this != &other) {
      release();
      h_ = other.h_;
      other.h_ = nullptr;
    }
    return *this;
  }
  ~BufferRef() { release(); }

  explicit operator bool() const { return h_ != nullptr; }
  std::byte* data() { return reinterpret_cast<std::byte*>(h_ + 1); }
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(h_ + 1);
  }
  Bytes capacity() const;

  void reset() { release(); }

  /// Pool-less zero-filled block (unit tests, engine-free Payloads).
  static BufferRef heap(Bytes n);
  /// Pool-less block, contents unspecified (callers that overwrite fully).
  static BufferRef heap_raw(Bytes n);

 private:
  friend class BufferPool;
  explicit BufferRef(detail::BufHeader* h) : h_(h) {}
  void release();

  detail::BufHeader* h_ = nullptr;
};

/// The per-engine pool: size-class free lists of refcounted blocks.
class BufferPool {
 public:
  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// A block of capacity >= n with the first n bytes zeroed (fresh-buffer
  /// semantics, matching what vector-backed payloads guaranteed).
  BufferRef acquire(Bytes n);
  /// A block of capacity >= n, contents unspecified — for callers that
  /// overwrite every byte (captured message payloads).
  BufferRef acquire_raw(Bytes n);

  /// Warm-up: guarantees at least `count` free blocks of capacity >= n, so a
  /// later burst of `count` acquires is all free-list hits. Persistent init
  /// calls this with the round's worst-case staging footprint — the mechanism
  /// behind the zero-allocations-per-start contract.
  void reserve(Bytes n, int count);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Bytes currently parked on the free lists.
  std::uint64_t cached_bytes() const { return cached_bytes_; }
  /// Cumulative block capacity handed out by acquire/acquire_raw. Unlike
  /// hits/misses/cached_bytes (which depend on cross-thread interleaving of
  /// a shared pool), every acquire happens exactly once with a deterministic
  /// size class, so this figure is identical for any --shards value — the
  /// pool component of the sim.rank_state_bytes gauge.
  std::uint64_t acquired_bytes() const { return acquired_bytes_; }

  static constexpr int kClasses = 32;       // 64 B .. 64 B << 31
  static constexpr Bytes kMinCapacity = 64;
  static int class_of(Bytes n) {
    if (n <= kMinCapacity) return 0;
    return std::bit_width(static_cast<std::uint64_t>(n - 1)) - 6;
  }
  static Bytes capacity_of(int size_class) {
    return kMinCapacity << size_class;
  }

 private:
  friend class BufferRef;
  void put_back(detail::BufHeader* h);

  std::mutex mu_;
  std::vector<detail::BufHeader*> free_[kClasses];
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t cached_bytes_ = 0;
  std::uint64_t acquired_bytes_ = 0;
};

inline Bytes BufferRef::capacity() const {
  return h_ ? BufferPool::capacity_of(static_cast<int>(h_->size_class)) : 0;
}

}  // namespace adapt::support
