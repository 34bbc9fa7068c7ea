#include "src/mpi/match.hpp"

#include <cstring>
#include <limits>
#include <utility>

#include "src/mpi/op.hpp"
#include "src/support/error.hpp"

namespace adapt::mpi {

namespace {
constexpr std::uint64_t kNoStamp = std::numeric_limits<std::uint64_t>::max();
}  // namespace

// The borrowed pointer and the captured block share one word and the flag
// sits in the padding after `tag`: envelopes are no larger than when they
// could only hold a captured block.
static_assert(sizeof(Envelope) ==
              4 * sizeof(std::int32_t) + sizeof(Bytes) +
                  sizeof(support::BufferRef) +
                  sizeof(std::function<void(PostedRecv)>));

void Envelope::capture_borrowed(support::BufferPool* pool) {
  const std::byte* from = borrowed_;
  drop_payload();
  data_ = pool ? pool->acquire_raw(size) : support::BufferRef::heap_raw(size);
  std::memcpy(data_.data(), from, static_cast<std::size_t>(size));
}

// A folding receive's op and datatype ride its request, so a posted entry
// is no larger than a plain receive's (it feeds the matcher's footprint).
static_assert(sizeof(PostedRecv) == 32);

void Envelope::write_into(const PostedRecv& recv) const {
  ADAPT_CHECK(size <= recv.buffer.size)
      << "message of " << size << "B overflows a " << recv.buffer.size
      << "B receive buffer (src=" << src << " tag=" << tag << ")";
  const std::byte* from = bytes();
  if (from == nullptr || recv.buffer.synthetic()) return;
  const Request& req = *recv.request;
  if (req.folds()) {
    apply(req.fold_op(), req.fold_dtype(), recv.buffer.data, from, size);
  } else {
    std::memcpy(recv.buffer.data, from, static_cast<std::size_t>(size));
  }
}

void Envelope::place_bytes(const PostedRecv& recv) {
  if (!recv.request->complete()) write_into(recv);
  drop_payload();
}

std::optional<Envelope> Matcher::post(PostedRecv recv) {
  // Find the earliest-arrived matching envelope. A concrete receive can only
  // match its own (src, tag) bucket; a wildcard receive must consider the
  // front (earliest) of every bucket whose key it matches. Every bucket in
  // the table is non-empty: drained ones are retired.
  auto hit = unexpected_.end();
  if (recv.src != kAnyRank && recv.tag != kAnyTag) {
    hit = unexpected_.find(key_of(recv.src, recv.tag));
  } else {
    std::uint64_t best = kNoStamp;
    for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
      const Stamped<Envelope>& front = it->second.front();
      if (front.stamp < best && matches(recv, front.value)) {
        best = front.stamp;
        hit = it;
      }
    }
  }
  if (hit != unexpected_.end()) {
    Envelope env = std::move(hit->second.front().value);
    unexpected_.pop_front(hit);
    --unexpected_count_;
    return env;
  }
  const std::uint64_t stamp = next_stamp_++;
  if (recv.src != kAnyRank && recv.tag != kAnyTag) {
    posted_.get(key_of(recv.src, recv.tag))
        .push_back(Stamped<PostedRecv>{stamp, std::move(recv)});
  } else {
    posted_wild_.push_back(Stamped<PostedRecv>{stamp, std::move(recv)});
  }
  ++posted_count_;
  return std::nullopt;
}

std::optional<PostedRecv> Matcher::arrive(Envelope&& env,
                                          support::BufferPool* pool) {
  // Two candidates can match: the front of the exact (src, tag) bucket and
  // the earliest matching wildcard. Earliest posted wins overall, so compare
  // stamps — this reproduces the original single-queue FIFO scan exactly.
  const auto bucket = posted_.find(key_of(env.src, env.tag));
  const std::uint64_t bucket_stamp =
      bucket != posted_.end() ? bucket->second.front().stamp : kNoStamp;
  auto wild = posted_wild_.begin();
  for (; wild != posted_wild_.end(); ++wild) {
    if (matches(wild->value, env)) break;
  }
  const std::uint64_t wild_stamp =
      wild != posted_wild_.end() ? wild->stamp : kNoStamp;

  if (bucket_stamp < wild_stamp) {
    PostedRecv recv = std::move(bucket->second.front().value);
    posted_.pop_front(bucket);
    --posted_count_;
    return recv;
  }
  if (wild_stamp != kNoStamp) {
    PostedRecv recv = std::move(wild->value);
    posted_wild_.erase(wild);
    --posted_count_;
    return recv;
  }
  env.capture(pool);
  unexpected_.get(key_of(env.src, env.tag))
      .push_back(Stamped<Envelope>{next_stamp_++, std::move(env)});
  ++unexpected_count_;
  ++total_unexpected_;
  return std::nullopt;
}

}  // namespace adapt::mpi
