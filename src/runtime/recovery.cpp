// Engine-level recovery service: see recovery.hpp for the protocol overview.
#include "src/runtime/recovery.hpp"

#include <bit>

#include "src/obs/trace.hpp"
#include "src/runtime/sim_engine.hpp"
#include "src/support/error.hpp"

namespace adapt::runtime {

// -- per-rank facade ----------------------------------------------------------

class RecoveryService::Facade final : public Recovery {
 public:
  Facade(RecoveryService& svc, Rank rank) : svc_(svc), rank_(rank) {}

  const RecoveryOptions& options() const override { return svc_.options_; }
  std::uint64_t failed_mask() const override {
    return svc_.failed_mask(rank_);
  }
  void report_failure(Rank peer) override { svc_.on_notice(rank_, peer); }
  void clear_poison() override { svc_.clear_poison(rank_); }
  void acquire_heartbeats() override { svc_.acquire(rank_); }
  void release_heartbeats() override { svc_.release(rank_); }
  void acquire_poison_shield() override { svc_.acquire_shield(rank_); }
  void release_poison_shield() override { svc_.release_shield(rank_); }
  void revoke(std::uint64_t fingerprint) override {
    svc_.revoke(rank_, fingerprint);
  }
  bool revoked(std::uint64_t fingerprint) const override {
    return svc_.revoked(rank_, fingerprint);
  }
  sim::Task<AgreeOutcome> agree(std::uint64_t fingerprint,
                                std::uint64_t members,
                                std::uint64_t flags) override {
    return svc_.agree(rank_, fingerprint, members, flags);
  }

 private:
  RecoveryService& svc_;
  Rank rank_;
};

// -- service ------------------------------------------------------------------

RecoveryService::RecoveryService(SimEngine& engine, RecoveryOptions options)
    : engine_(engine), options_(options) {
  const int n = engine.nranks();
  ADAPT_CHECK(n <= 64)
      << "recovery mode tracks membership in 64-bit masks (nranks = " << n
      << ")";
  ranks_.resize(static_cast<std::size_t>(n));
  facades_.reserve(static_cast<std::size_t>(n));
  for (Rank r = 0; r < n; ++r) {
    facades_.push_back(std::make_unique<Facade>(*this, r));
  }
}

RecoveryService::~RecoveryService() = default;

Recovery& RecoveryService::rank_facade(Rank r) {
  ADAPT_CHECK(r >= 0 && r < static_cast<Rank>(facades_.size()));
  return *facades_[static_cast<std::size_t>(r)];
}

void RecoveryService::proto_instant(Rank self, const char* what,
                                    std::int64_t arg) {
  if (obs::Recorder* rec = engine_.recorder()) {
    rec->instant(obs::rank_pid(self), obs::kTidProgress, obs::Cat::kProto,
                 what, rec->now(), arg);
  }
}

void RecoveryService::count(const char* name, std::int64_t by) {
  if (obs::Recorder* rec = engine_.recorder()) {
    rec->metrics().counter(name) += by;
  }
}

void RecoveryService::note_detection(Rank about) {
  const std::uint64_t bit = 1ull << about;
  if (first_noticed_ & bit) return;
  first_noticed_ |= bit;
  obs::Recorder* rec = engine_.recorder();
  if (rec == nullptr) return;
  const TimeNs death = engine_.death_time(about);
  if (death < 0 || rec->now() < death) return;  // not a planned death
  const TimeNs latency = rec->now() - death;
  rec->metrics().histogram("recovery.detect_latency_ns").record(latency);
}

// -- detection & notification -------------------------------------------------

void RecoveryService::on_give_up(Rank self, Rank peer) {
  if (peer < 0 || peer >= static_cast<Rank>(ranks_.size()) || peer == self) {
    return;
  }
  on_notice(self, peer);
}

void RecoveryService::on_notice(Rank self, Rank about) {
  if (about < 0 || about >= static_cast<Rank>(ranks_.size())) return;
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  const std::uint64_t bit = 1ull << about;
  if (rs.failed & bit) return;  // idempotent per (observer, failed rank)
  rs.failed |= bit;
  proto_instant(self, "fail_notice", about);
  count("recovery.fail_notices");
  note_detection(about);
  // Gossip: reliably flood the suspect to every rank not itself in our failed
  // view (ascending order — determinism). Receivers re-flood once, so a
  // notice reaches everyone even if the original observer dies.
  if (mpi::ReliableChannel* ch = engine_.channel(self)) {
    for (Rank r = 0; r < static_cast<Rank>(ranks_.size()); ++r) {
      if (r == self || ((rs.failed >> r) & 1u)) continue;
      mpi::Frame f;
      f.kind = mpi::Frame::Kind::kFailNotice;
      f.rec.about = about;
      ch->submit(r, f);
    }
  }
  // Unblock: fail this rank's pending (and near-future) requests so a
  // coroutine wedged inside a collective whose peer died unwinds into its
  // retry wrapper. The wrapper re-arms the endpoint via clear_poison before
  // the next attempt; EC collectives shield themselves instead.
  if (rs.shield == 0 && !engine_.endpoint(self).poisoned()) {
    engine_.poison_rank(self, mpi::ErrCode::kErrProcFailed);
  }
  // A view change can re-elect a coordinator, complete an agreement with
  // fewer needed contributions, or exclude us — drive every instance.
  for (auto& [key, st] : rs.agreements) {
    (void)st;
    step_agreement(self, key.first, key.second);
  }
}

// -- revocation ---------------------------------------------------------------

void RecoveryService::revoke(Rank self, std::uint64_t fingerprint) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  if (!rs.revoked.insert(fingerprint).second) return;
  proto_instant(self, "revoke", static_cast<std::int64_t>(fingerprint));
  count("recovery.revokes");
  if (mpi::ReliableChannel* ch = engine_.channel(self)) {
    std::int64_t fanout = 0;
    for (Rank r = 0; r < static_cast<Rank>(ranks_.size()); ++r) {
      if (r == self || ((rs.failed >> r) & 1u)) continue;
      mpi::Frame f;
      f.kind = mpi::Frame::Kind::kRevoke;
      f.rec.fingerprint = fingerprint;
      ch->submit(r, f);
      ++fanout;
    }
    count("recovery.revoke_frames", fanout);
  }
}

void RecoveryService::on_revoke(Rank self, std::uint64_t fingerprint) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  if (rs.revoked.count(fingerprint) != 0) return;  // idempotent
  proto_instant(self, "revoked", static_cast<std::int64_t>(fingerprint));
  revoke(self, fingerprint);  // mark + forward the flood
  // A revoked communicator means some rank already failed its collective and
  // moved on to recovery — unblock anyone still pumping data on it. Idle
  // ranks (nothing pending) are untouched.
  if (rs.shield == 0 && !engine_.endpoint(self).poisoned() &&
      engine_.endpoint(self).has_pending()) {
    engine_.poison_rank(self, mpi::ErrCode::kErrRevoked);
  }
}

// -- endpoint re-arm ----------------------------------------------------------

void RecoveryService::clear_poison(Rank self) {
  mpi::Endpoint& ep = engine_.endpoint(self);
  if (!ep.poisoned()) return;
  // Watchdog poison is the harness declaring the run wedged — terminal.
  if (ep.poison_code() == mpi::ErrCode::kErrWatchdog) return;
  ep.clear_poison();
}

// -- ring heartbeats ----------------------------------------------------------

void RecoveryService::acquire(Rank self) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  if (++rs.interest == 1) {
    // New generation invalidates any timer chain left from a previous
    // interest window, so exactly one chain runs per rank.
    schedule_heartbeat(self, ++rs.hb_gen);
  }
}

void RecoveryService::release(Rank self) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  ADAPT_CHECK(rs.interest > 0) << "heartbeat release without acquire";
  --rs.interest;  // the pending timer sees interest == 0 and stops
}

void RecoveryService::schedule_heartbeat(Rank self, std::uint64_t gen) {
  engine_.simulator().after(options_.heartbeat_period, [this, self, gen] {
    RankState& rs = ranks_[static_cast<std::size_t>(self)];
    if (rs.hb_gen != gen || rs.interest <= 0) return;
    // Ping the nearest ring successor not already in the failed view. The
    // ping's retry exhaustion (channel give-up) IS the detection signal —
    // this is what notices a dead rank nobody happens to send data to,
    // e.g. a bcast root that only receives contributions in reduce.
    const int n = static_cast<int>(ranks_.size());
    for (int d = 1; d < n; ++d) {
      const Rank succ = static_cast<Rank>((self + d) % n);
      if ((rs.failed >> succ) & 1u) continue;
      if (mpi::ReliableChannel* ch = engine_.channel(self)) {
        mpi::Frame f;
        f.kind = mpi::Frame::Kind::kPing;
        ch->submit(succ, f);
      }
      break;
    }
    schedule_heartbeat(self, gen);
  });
}

// -- agreement ----------------------------------------------------------------

void RecoveryService::send_agree(Rank self, Rank to, std::uint64_t fingerprint,
                                 std::uint32_t seq, std::uint8_t phase,
                                 std::uint64_t flags, std::uint64_t view) {
  mpi::ReliableChannel* ch = engine_.channel(self);
  if (!ch) return;
  mpi::Frame f;
  f.kind = mpi::Frame::Kind::kAgree;
  f.rec.fingerprint = fingerprint;
  f.rec.seq = seq;
  f.rec.phase = phase;
  f.rec.flags = flags;
  f.rec.view = view;
  ch->submit(to, f);
  proto_instant(self, phase == 0 ? "agree_contrib" : "agree_result", to);
  count("recovery.agree_frames");
}

void RecoveryService::complete(Rank self, AgreeState& st,
                               AgreeOutcome outcome) {
  if (st.done) return;
  st.outcome = outcome;
  st.done = true;
  proto_instant(self, "agree_done",
                static_cast<std::int64_t>(outcome.failed));
  if (st.waiter) {
    auto h = st.waiter;
    st.waiter = {};
    engine_.context(self).defer(0, [h] { h.resume(); });
  }
}

void RecoveryService::step_agreement(Rank self, std::uint64_t fingerprint,
                                     std::uint32_t seq) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  auto it = rs.agreements.find({fingerprint, seq});
  if (it == rs.agreements.end()) return;
  AgreeState& st = it->second;
  // Passive state created by frames that outran the local agree() call:
  // contributions are already folded; agree() drives the first step.
  if (!st.started) return;
  const std::uint64_t view = rs.failed & st.members;
  const std::uint64_t survivors = st.members & ~view;
  if (st.done) {
    // Late-phase service: if the membership changed under a completed
    // agreement, resend our contribution so a newly elected coordinator can
    // still converge (it answers us with its frozen result; we ignore it).
    if (((view >> self) & 1u) || survivors == 0) return;
    const Rank coord = static_cast<Rank>(std::countr_zero(survivors));
    if (coord != self && st.sent_contrib_to != coord) {
      st.sent_contrib_to = coord;
      send_agree(self, coord, fingerprint, seq, 0, st.my_flags, view);
    }
    return;
  }
  if ((view >> self) & 1u) {
    // We appear in the failed view: some survivor's detector declared us
    // dead. Self-exclude — the survivors will shrink us away.
    complete(self, st, AgreeOutcome{0, view, true});
    return;
  }
  if (st.has_result) {
    complete(self, st, AgreeOutcome{st.result_flags, st.result_failed, false});
    return;
  }
  ADAPT_CHECK(survivors != 0);
  const Rank coord = static_cast<Rank>(std::countr_zero(survivors));
  if (coord == self) {
    const std::uint64_t needed = survivors & ~(1ull << self);
    if ((st.contributed & needed) != needed) return;  // still gathering
    if (!st.decided) {
      // Decide exactly once: AND of everyone's flags, OR of everyone's
      // failed views, confined to the membership. The decision is frozen —
      // later view changes re-send it, never re-derive it.
      st.decided = true;
      st.result_flags = st.flags_acc & st.my_flags;
      st.result_failed = (st.view_acc | view) & st.members;
      proto_instant(self, "agree_decided",
                    static_cast<std::int64_t>(st.result_failed));
      count("recovery.agree_decided");
    }
    for (Rank r = 0; r < static_cast<Rank>(ranks_.size()); ++r) {
      if ((needed >> r) & 1u) {
        send_agree(self, r, fingerprint, seq, 1, st.result_flags,
                   st.result_failed);
      }
    }
    complete(self, st, AgreeOutcome{st.result_flags, st.result_failed, false});
    return;
  }
  // Participant: (re)contribute whenever the coordinator changes.
  if (st.sent_contrib_to != coord) {
    st.sent_contrib_to = coord;
    send_agree(self, coord, fingerprint, seq, 0, st.my_flags, view);
  }
}

void RecoveryService::on_agree(Rank self, Rank from,
                               const mpi::RecoveryInfo& info) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  const auto key = std::make_pair(info.fingerprint, info.seq);
  AgreeState& st = rs.agreements[key];
  if (info.phase == 0) {
    // A contribution: fold it (AND/OR are idempotent, so retransmissions and
    // re-elections fold safely) and mark the sender.
    st.contributed |= 1ull << from;
    st.flags_acc &= info.flags;
    st.view_acc |= info.view;
    if (st.done) {
      // Frozen-decision service: the sender elected us coordinator after we
      // completed. Answer with the decision we hold — our own if we decided,
      // the one we received otherwise — so late restarts converge on it.
      send_agree(self, from, info.fingerprint, info.seq, 1,
                 st.decided ? st.result_flags : st.outcome.flags,
                 st.decided ? st.result_failed : st.outcome.failed);
      return;
    }
    step_agreement(self, info.fingerprint, info.seq);
  } else {
    if (st.done) return;
    st.has_result = true;
    st.result_flags = info.flags;
    st.result_failed = info.view;
    if (st.started) {
      complete(self, st, AgreeOutcome{info.flags, info.view, false});
    }
  }
}

sim::Task<AgreeOutcome> RecoveryService::agree(Rank self,
                                               std::uint64_t fingerprint,
                                               std::uint64_t members,
                                               std::uint64_t flags) {
  RankState& rs = ranks_[static_cast<std::size_t>(self)];
  ADAPT_CHECK((members >> self) & 1u)
      << "rank " << self << " called agree() on a communicator it is not in";
  const std::uint32_t seq = rs.next_agree_seq[fingerprint]++;
  const auto key = std::make_pair(fingerprint, seq);
  AgreeState& st = rs.agreements[key];  // may hold early-arrived frames
  st.members = members;
  st.my_flags = flags;
  st.started = true;
  proto_instant(self, "agree_start", static_cast<std::int64_t>(seq));
  count("recovery.agreements");
  obs::Recorder* rec = engine_.recorder();
  const TimeNs t0 = rec != nullptr ? rec->now() : 0;
  step_agreement(self, fingerprint, seq);
  if (!st.done) {
    co_await sim::Suspend([&st](std::coroutine_handle<> h) { st.waiter = h; });
  }
  if (rec != nullptr) {
    rec->span(obs::rank_pid(self), obs::kTidMain, obs::Cat::kProto, "agree",
              t0, rec->now(), static_cast<std::int64_t>(seq));
  }
  co_return st.outcome;
}

}  // namespace adapt::runtime
