#include "src/obs/merge.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>

#include "src/obs/export.hpp"

namespace adapt::obs {

namespace {

void merge_metrics(const MetricsRegistry& part, MetricsRegistry& out) {
  const auto& ranks = part.ranks();
  for (std::size_t r = 0; r < ranks.size(); ++r) {
    const RankCounters& src = ranks[r];
    RankCounters& dst = out.rank(static_cast<Rank>(r));
    // The CPU-time counters were already rebuilt by the cpu_task replay.
    dst.sends += src.sends;
    dst.send_bytes += src.send_bytes;
    dst.recvs += src.recvs;
    dst.recv_bytes += src.recv_bytes;
  }
  const auto& links = part.links();
  for (std::size_t i = 0; i < links.size(); ++i) {
    out.link_bytes(static_cast<int>(i)) += links[i];
  }
  for (const auto& [name, value] : part.counters()) {
    out.counter(name) += value;
  }
  for (const auto& [name, hist] : part.histograms()) {
    Histogram& dst = out.histogram(name);
    for (std::size_t b = 0; b < hist.buckets.size(); ++b) {
      dst.buckets[b] += hist.buckets[b];
    }
    dst.count += hist.count;
    dst.sum += hist.sum;
    dst.max = std::max(dst.max, hist.max);
  }
}

}  // namespace

void merge_recorders(const std::vector<const Recorder*>& parts,
                     Recorder& out) {
  std::vector<SpanRec> spans;
  std::vector<InstantRec> instants;
  std::vector<CpuRec> cpu;
  std::vector<TransferRec> transfers;
  std::vector<LinkSampleRec> links;
  for (const Recorder* part : parts) {
    spans.insert(spans.end(), part->spans().begin(), part->spans().end());
    instants.insert(instants.end(), part->instants().begin(),
                    part->instants().end());
    cpu.insert(cpu.end(), part->cpu_tasks().begin(), part->cpu_tasks().end());
    transfers.insert(transfers.end(), part->transfers().begin(),
                     part->transfers().end());
    links.insert(links.end(), part->link_samples().begin(),
                 part->link_samples().end());
  }

  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRec& a, const SpanRec& b) {
                     return std::tie(a.t0, a.pid, a.tid) <
                            std::tie(b.t0, b.pid, b.tid);
                   });
  std::stable_sort(instants.begin(), instants.end(),
                   [](const InstantRec& a, const InstantRec& b) {
                     return std::tie(a.t, a.pid, a.tid) <
                            std::tie(b.t, b.pid, b.tid);
                   });
  std::stable_sort(cpu.begin(), cpu.end(),
                   [](const CpuRec& a, const CpuRec& b) {
                     return std::tie(a.t_request, a.rank, a.progress) <
                            std::tie(b.t_request, b.rank, b.progress);
                   });
  // A transfer record is always appended by the shard of its `src` rank (the
  // rank whose callback produced it), so (t_post, src, dst, kind) ties are
  // same-rank ties and the stable order is shard-count invariant.
  std::stable_sort(transfers.begin(), transfers.end(),
                   [](const TransferRec& a, const TransferRec& b) {
                     return std::tie(a.t_post, a.src, a.dst, a.kind) <
                            std::tie(b.t_post, b.src, b.dst, b.kind);
                   });
  std::stable_sort(links.begin(), links.end(),
                   [](const LinkSampleRec& a, const LinkSampleRec& b) {
                     return std::tie(a.t, a.link) < std::tie(b.t, b.link);
                   });

  for (const SpanRec& s : spans) {
    out.span(s.pid, s.tid, s.cat, s.name, s.t0, s.t1, s.arg);
  }
  for (const InstantRec& i : instants) {
    out.instant(i.pid, i.tid, i.cat, i.name, i.t, i.arg);
  }
  for (const CpuRec& c : cpu) {
    out.cpu_task(c.rank, c.progress, c.t_request, c.t_ready, c.t_start,
                 c.t_end);
  }
  for (const TransferRec& t : transfers) {
    if (!t.done) continue;
    const std::uint64_t id =
        out.transfer_begin(t.src, t.dst, t.bytes, t.kind, t.t_post);
    if (id == 0) continue;  // out is in flight mode and sampled this one out
    if (t.t_active >= 0) out.transfer_active(id, t.t_active, t.ideal);
    out.transfer_end(id, t.t_end);
    if (!t.delivered) out.transfer_undelivered(id);
  }
  for (const LinkSampleRec& l : links) {
    out.link_sample(l.link, l.t, l.flows);
  }

  for (const Recorder* part : parts) {
    merge_metrics(part->metrics(), out.metrics());
    out.queue_stats().scheduled += part->queue_stats().scheduled;
  }
}

std::string canonical_trace_json(const Recorder& rec) {
  Recorder canonical(true);
  canonical.init_ranks(static_cast<int>(rec.metrics().ranks().size()));
  merge_recorders({&rec}, canonical);
  std::ostringstream os;
  write_trace_json(canonical, os);
  return os.str();
}

}  // namespace adapt::obs
