// Receiver-side message matching: the posted-receive queue and the
// unexpected-message queue.
//
// Matching is by (source, tag) with MPI-style wildcards; among equally
// matching entries the earliest posted/arrived wins (FIFO). The unexpected
// path is what the paper's M > N discussion (§2.2.1) is about: an unexpected
// message costs an extra buffer allocation and copy when it is finally
// matched, so ADAPT posts more receives (M) than each sender keeps in
// flight (N).
//
// Placement: a matched payload lands in the receive's buffer through one
// step, Envelope::write_into — a copy, or, for a folding receive (a reduce
// receive whose request carries an op and datatype), a fold into the bytes
// already there. Expected eager data and rendezvous bulk are placed on
// arrival (place_into); a captured payload (an unexpected hit, a reliable
// bulk frame) at finalisation. Either way a payload is placed once, and a
// receive that has already failed gets nothing.
//
// Both queues are bucketed by the concrete (source, tag) pair, so the
// common case — a fully specified receive meeting a fully specified
// envelope — is an O(1) bucket-front hit instead of a linear scan across
// every pending entry (the scan is what made deep posted queues, M large in
// the M > N scheme, quadratic). Wildcard receives take a fallback path:
// posted wildcards live on a separate FIFO list that arrivals scan
// linearly, and a wildcard post scans the bucket fronts of the unexpected
// table. Every entry carries a monotone arrival stamp, and a match always
// takes the lowest stamp among the bucket candidate and the wildcard
// candidate — exactly the earliest-wins order of the original single-queue
// scan, which the interleaving unit tests pin down.
//
// Bucket lifetime: a bucket exists only while it holds an entry. The moment
// it drains it is unlinked from its table (unordered_map::extract) and its
// node — key, Fifo and the Fifo's vector capacity — goes on a spare list;
// the next fresh (source, tag) key re-keys a spare node instead of
// allocating one. One-shot collectives take fresh tags every call, so
// without retirement the tables would grow by one bucket per segment for
// the life of the engine; with it they hold only live entries, and the
// tables plus spares are bounded by the peak number of simultaneously live
// keys. Matching recurring or fresh tags allocates nothing once that peak
// has been reached.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/mpi/payload.hpp"
#include "src/mpi/request.hpp"
#include "src/support/buffer_pool.hpp"
#include "src/support/units.hpp"

namespace adapt::mpi {

/// A receive that has been posted and not yet matched. A folding receive
/// (Request::folds) keeps its op and datatype on the request, not here:
/// posted entries are part of the matcher's footprint gauge.
struct PostedRecv {
  RequestPtr request;
  MutView buffer;
  Rank src = kAnyRank;  ///< kAnyRank = wildcard
  Tag tag = kAnyTag;    ///< kAnyTag = wildcard
};

/// In-flight message (eager: data travels with it) or rendezvous
/// ready-to-send notice (grant set: data moves only once a receive matched).
///
/// The payload (`size` bytes) is either borrowed or captured. A borrowed
/// payload is the sender's own buffer, read in place: the send request is
/// still pending, so the buffer cannot change. The borrow rule is that a leg
/// reads it no later than the event that schedules the sender's completion;
/// a path that needs the bytes past that point (an unexpected arrival, a
/// retransmit buffer, a receive in a later event, a corrupted copy) captures
/// them first. Synthetic payloads and RTS notices carry neither.
///
/// The two share one word, told apart by a flag in the padding after `tag`:
/// the unexpected queue holds envelopes, so their size is part of the
/// matcher's footprint gauge.
struct Envelope {
  Rank src = kAnyRank;
  Rank dst = kAnyRank;
  Tag tag = kAnyTag;

 private:
  bool borrowing_ = false;

 public:
  Bytes size = 0;
  /// Rendezvous grant: invoked exactly once with the matched receive; the
  /// transport then runs CTS + data transfer and finalises both requests.
  std::function<void(PostedRecv)> grant;

  Envelope() : data_() {}
  Envelope(const Envelope& other)
      : src(other.src), dst(other.dst), tag(other.tag), size(other.size),
        grant(other.grant) {
    copy_payload(other);
  }
  Envelope(Envelope&& other) noexcept
      : src(other.src), dst(other.dst), tag(other.tag), size(other.size),
        grant(std::move(other.grant)) {
    take_payload(other);
  }
  Envelope& operator=(const Envelope& other) {
    if (this != &other) {
      src = other.src;
      dst = other.dst;
      tag = other.tag;
      size = other.size;
      grant = other.grant;
      destroy_payload();
      copy_payload(other);
    }
    return *this;
  }
  Envelope& operator=(Envelope&& other) noexcept {
    if (this != &other) {
      src = other.src;
      dst = other.dst;
      tag = other.tag;
      size = other.size;
      grant = std::move(other.grant);
      destroy_payload();
      take_payload(other);
    }
    return *this;
  }
  ~Envelope() { destroy_payload(); }

  bool rendezvous() const { return static_cast<bool>(grant); }
  bool borrowing() const { return borrowing_; }
  /// The payload's bytes, wherever they are; null for no payload.
  const std::byte* bytes() const {
    return borrowing_ ? borrowed_ : (data_ ? data_.data() : nullptr);
  }
  /// The captured copy's bytes; null unless captured.
  std::byte* captured() {
    return borrowing_ || !data_ ? nullptr : data_.data();
  }

  /// Borrows the sender's `bytes` (the `size` of them) as the payload; a
  /// null (synthetic) `bytes` leaves the envelope as it is.
  void borrow(const std::byte* bytes) {
    if (bytes == nullptr) return;
    destroy_payload();
    borrowed_ = bytes;
    borrowing_ = true;
  }
  /// Ends a borrow: copies the sender's bytes into a block of `pool` (a heap
  /// block when null) that this envelope owns. No-op unless borrowing.
  void capture(support::BufferPool* pool) {
    if (borrowing_) capture_borrowed(pool);
  }
  /// Writes the payload into `recv`'s buffer and drops it, so the receive
  /// later completes without touching the bytes again. A receive that has
  /// already failed gets nothing: its buffer may be gone.
  void place_into(const PostedRecv& recv) {
    if (bytes() != nullptr) place_bytes(recv);
  }
  /// The one placement step: copies the payload into `recv`'s buffer, or,
  /// for a folding receive, folds it in (buffer = buffer OP payload). No
  /// payload or a synthetic buffer writes nothing; a payload larger than the
  /// buffer is a hard error.
  void write_into(const PostedRecv& recv) const;
  /// Forgets the payload (borrowed or captured); `size` is kept.
  void drop_payload() {
    if (borrowing_) {
      borrowing_ = false;
      new (&data_) support::BufferRef();
    } else {
      data_.reset();
    }
  }

 private:
  void capture_borrowed(support::BufferPool* pool);
  void place_bytes(const PostedRecv& recv);
  // copy_payload/take_payload construct the live payload member below and
  // destroy_payload ends it; a moved-from envelope keeps an empty block.
  void destroy_payload() {
    if (!borrowing_) data_.~BufferRef();
  }
  void copy_payload(const Envelope& other) {
    borrowing_ = other.borrowing_;
    if (borrowing_) {
      borrowed_ = other.borrowed_;
    } else {
      new (&data_) support::BufferRef(other.data_);
    }
  }
  void take_payload(Envelope& other) {
    borrowing_ = other.borrowing_;
    if (borrowing_) {
      borrowed_ = other.borrowed_;
      other.borrowing_ = false;
      new (&other.data_) support::BufferRef();
    } else {
      new (&data_) support::BufferRef(std::move(other.data_));
    }
  }

  union {
    support::BufferRef data_;   ///< captured copy (live unless borrowing_)
    const std::byte* borrowed_; ///< the sender's buffer (while borrowing_)
  };
};

class Matcher {
 public:
  /// Tries to match a newly posted receive against the unexpected queue.
  /// On a hit the envelope is removed and returned; otherwise the receive is
  /// enqueued on the posted list.
  std::optional<Envelope> post(PostedRecv recv);

  /// Tries to match an arriving envelope against the posted list. On a hit
  /// the posted receive is removed and returned and `env` is left untouched;
  /// only on a miss is `env` moved into the unexpected list (copying it
  /// would re-box the rendezvous grant's std::function on every unexpected
  /// arrival — the per-round allocation the steady-state bench pins at 0).
  /// A miss captures a borrowed payload into `pool` first (MPI's unexpected
  /// copy): the sender's buffer is free again long before a receive matches.
  std::optional<PostedRecv> arrive(Envelope&& env,
                                   support::BufferPool* pool = nullptr);

  std::size_t posted_count() const { return posted_count_; }
  std::size_t unexpected_count() const { return unexpected_count_; }
  std::uint64_t total_unexpected() const { return total_unexpected_; }

  /// Approximate resident bytes of the matching structures: bucket-table
  /// slots, per-bucket node overhead and every Fifo's retained capacity, for
  /// live buckets and spare (retired) nodes alike — both stay resident.
  /// Deterministic for a given rank's matching history (capacities grow by
  /// the same doubling sequence whatever the shard count), which lets the
  /// rank-state gauge sum it across ranks and stay byte-comparable across
  /// --shards values. Bounded by the peak number of live keys, not by the
  /// number of keys ever seen.
  std::size_t footprint_bytes() const {
    return sizeof(Matcher) + posted_.footprint_bytes() +
           unexpected_.footprint_bytes() +
           posted_wild_.size() * sizeof(Stamped<PostedRecv>);
  }

 private:
  static bool matches(const PostedRecv& recv, const Envelope& env) {
    return (recv.src == kAnyRank || recv.src == env.src) &&
           (recv.tag == kAnyTag || recv.tag == env.tag);
  }
  /// Envelopes always carry a concrete (src, tag): the bucket key.
  static std::uint64_t key_of(Rank src, Tag tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  template <typename T>
  struct Stamped {
    std::uint64_t stamp;
    T value;
  };

  /// Vector-backed FIFO: pop_front advances a head index and storage resets
  /// (capacity kept) once drained, so the capacity travels with a retired
  /// node to its next key — no deque chunk map, and contiguous for the scans.
  template <typename T>
  struct Fifo {
    std::vector<Stamped<T>> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    Stamped<T>& front() { return items[head]; }
    const Stamped<T>& front() const { return items[head]; }
    void push_back(Stamped<T> v) {
      // A bucket that never fully drains (steady-state traffic keeps an
      // entry in flight across every push) never hits the drained reset, so
      // the consumed prefix would grow `items` without bound. When a push is
      // about to reallocate and at least half the storage is consumed
      // prefix, slide the live suffix down instead: erase() keeps capacity
      // and reclaims >= capacity/2 slots (amortised O(1)), so a warmed-up
      // bucket pushes with no allocation.
      if (items.size() == items.capacity() && head * 2 >= items.size() &&
          head > 0) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      items.push_back(std::move(v));
    }
    void pop_front() {
      if (++head == items.size()) {
        items.clear();
        head = 0;
      }
    }
  };

  /// Buckets keyed by concrete (src, tag), holding only non-empty Fifos.
  /// A drained bucket is retired onto the spare list, and a fresh key
  /// re-keys a spare node, so neither path allocates once the spares cover
  /// the peak number of live keys.
  template <typename T>
  class Table {
   public:
    using Map = std::unordered_map<std::uint64_t, Fifo<T>>;
    using iterator = typename Map::iterator;

    iterator find(std::uint64_t key) { return live_.find(key); }
    iterator end() { return live_.end(); }
    iterator begin() { return live_.begin(); }

    /// The bucket for `key`, reviving a spare node if the key is not live.
    Fifo<T>& get(std::uint64_t key) {
      if (const auto it = live_.find(key); it != live_.end()) return it->second;
      if (spares_.empty()) return live_.try_emplace(key).first->second;
      typename Map::node_type node = std::move(spares_.back());
      spares_.pop_back();
      node.key() = key;
      return live_.insert(std::move(node)).position->second;
    }

    /// Pops the front of `it`'s bucket, retiring the bucket if it drained.
    void pop_front(iterator it) {
      it->second.pop_front();
      if (it->second.empty()) spares_.push_back(live_.extract(it));
    }

    std::size_t footprint_bytes() const {
      // unordered_map node: key + value + next pointer (libstdc++ layout).
      constexpr std::size_t kNode = sizeof(std::uint64_t) + sizeof(void*);
      const auto bucket_bytes = [](const Fifo<T>& fifo) {
        return kNode + sizeof(fifo) +
               fifo.items.capacity() * sizeof(Stamped<T>);
      };
      std::size_t total = live_.bucket_count() * sizeof(void*);
      for (const auto& [key, fifo] : live_) total += bucket_bytes(fifo);
      for (const auto& node : spares_) total += bucket_bytes(node.mapped());
      return total;
    }

   private:
    Map live_;
    std::vector<typename Map::node_type> spares_;
  };

  /// Fully specified receives, bucketed by (src, tag); FIFO within a bucket.
  Table<PostedRecv> posted_;
  /// Receives with a kAnyRank/kAnyTag wildcard, in posting order.
  std::deque<Stamped<PostedRecv>> posted_wild_;
  /// Unexpected envelopes, bucketed by their concrete (src, tag).
  Table<Envelope> unexpected_;

  std::uint64_t next_stamp_ = 0;
  std::size_t posted_count_ = 0;
  std::size_t unexpected_count_ = 0;
  std::uint64_t total_unexpected_ = 0;
};

}  // namespace adapt::mpi
