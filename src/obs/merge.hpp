// Canonical merge of per-shard Recorders into one output Recorder.
//
// The sharded engine gives every shard a private Recorder so the hot path
// never synchronizes on observability, then merges them after the run. The
// merge order is the determinism linchpin: records are sorted by virtual
// time with the owning rank as tiebreak, and same-key records keep their
// per-rank append order (stable sort; every rank's records live in exactly
// one shard, so concatenation order within a key is the rank's own execution
// order — invariant to how ranks were sharded). The merged trace, metrics
// CSV and golden hashes are therefore byte-identical for ANY --shards value,
// including 1: the engine routes even a single shard through this merge.
//
// Metrics: replaying CpuRecs through Recorder::cpu_task reconstructs the
// four per-rank CPU-time counters exactly (records the shard recorder
// skipped are the zero-delta ones), so merge_metrics sums only the
// transport-side counters (sends/recvs/bytes), link bytes, named counters
// and histograms.
#pragma once

#include <string>
#include <vector>

#include "src/obs/trace.hpp"

namespace adapt::obs {

/// Appends every record of `parts` into `out` in canonical order. `out`
/// should be freshly init_ranks()'d; parts are read-only. Transfers not yet
/// done are dropped (exports skip them anyway).
void merge_recorders(const std::vector<const Recorder*>& parts, Recorder& out);

/// `rec`'s trace export with its records in canonical order, the order of a
/// sharded run's merged recorder: one schedule gives one canonical trace.
std::string canonical_trace_json(const Recorder& rec);

}  // namespace adapt::obs
