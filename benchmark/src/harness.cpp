#include "harness.hpp"

#include "machine/measure.hpp"
#include "runtime/proc_view.hpp"
#include "support/rng.hpp"

namespace kali::bench {

namespace {

/// after - before for one rank's counters (the maps keep their keys).
ProcCounters counter_delta(const ProcCounters& after, const ProcCounters& before) {
  ProcCounters d = after;
  d.msgs_sent -= before.msgs_sent;
  d.bytes_sent -= before.bytes_sent;
  d.msgs_recv -= before.msgs_recv;
  d.bytes_recv -= before.bytes_recv;
  d.flops -= before.flops;
  d.compute_time -= before.compute_time;
  d.overhead_time -= before.overhead_time;
  d.wait_time -= before.wait_time;
  d.link_wait_time -= before.link_wait_time;
  d.edge_wait_time -= before.edge_wait_time;
  d.contended_msgs -= before.contended_msgs;
  d.overlap_hidden_time -= before.overlap_hidden_time;
  d.overlap_wire_time -= before.overlap_wire_time;
  const auto sub = [](auto& into, const auto& from) {
    for (const auto& [key, n] : from) {
      into[key] -= n;
    }
  };
  sub(d.sent_by_tag, before.sent_by_tag);
  sub(d.recv_by_tag, before.recv_by_tag);
  sub(d.self_msgs_by_tag, before.self_msgs_by_tag);
  sub(d.edge_msgs, before.edge_msgs);
  return d;
}

MachineConfig sample_config(const Workload& w, int workers, bool detection) {
  MachineConfig cfg = w.config();
  cfg.sim_workers = workers;
  cfg.deadlock_detection = detection;
  return cfg;
}

}  // namespace

double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

double noise(std::uint64_t seed, int i, int j, int k) {
  const auto u = [](int v) { return static_cast<std::uint64_t>(static_cast<std::uint32_t>(v)); };
  Rng rng(seed * 0x9e3779b97f4a7c15ULL ^ (u(i) << 42) ^ (u(j) << 21) ^ u(k));
  (void)rng.next_u64();  // decorrelate neighbouring keys
  return rng.uniform(-1.0, 1.0);
}

Sample run_sample(Workload& w, int workers, const SampleMode& mode) {
  const int p = w.nprocs();
  Sample s;
  std::vector<ProcCounters> deltas(static_cast<std::size_t>(p));
  Tracer tracer(p, mode.traced);
  HostClock::time_point phase_start;
  PhaseStats stats;

  const auto t0 = HostClock::now();
  Machine m(p, sample_config(w, workers, mode.deadlock_detection));
  m.run([&](Context& ctx) {
    RankPhase phase = w.build(ctx, mode.warmup);
    PhaseTimer timer(ctx, ProcView::grid1(p).group(ctx.rank()));
    if (ctx.rank() == 0) {
      phase_start = HostClock::now();
    }
    const ProcCounters before = ctx.proc().counters();
    phase.solve(tracer);
    const ProcCounters after = ctx.proc().counters();
    const PhaseStats st = timer.finish();
    deltas[static_cast<std::size_t>(ctx.rank())] = counter_delta(after, before);
    if (ctx.rank() == 0) {
      s.host_s = seconds_since(phase_start);
      stats = st;
    }
    const Check c = phase.verify();
    if (ctx.rank() == 0) {
      s.check = c;
    }
  });
  s.setup_s = std::chrono::duration<double>(phase_start - t0).count();
  s.modeled_s = stats.makespan;
  for (const ProcCounters& d : deltas) {
    s.phase += d;
  }
  s.mailbox_peak = m.stats().max_mailbox_depth();
  s.check.merge(w.host_check(mode.warmup));
  s.spans = std::move(tracer.per_rank());
  return s;
}

double run_setup(Workload& w, int workers) {
  const int p = w.nprocs();
  HostClock::time_point phase_start;
  const auto t0 = HostClock::now();
  Machine m(p, sample_config(w, workers, true));
  m.run([&](Context& ctx) {
    const RankPhase phase = w.build(ctx, /*warmup=*/false);
    PhaseTimer timer(ctx, ProcView::grid1(p).group(ctx.rank()));
    if (ctx.rank() == 0) {
      phase_start = HostClock::now();
    }
    (void)timer.finish();
  });
  return std::chrono::duration<double>(phase_start - t0).count();
}

ProbeResult run_probe(Workload& w, int workers, const Probe& p, int reps) {
  const int np = w.nprocs();
  ProbeResult r;
  r.name = p.name;
  r.calls = reps;
  std::vector<std::uint64_t> msgs(static_cast<std::size_t>(np), 0);
  Machine m(np, sample_config(w, workers, true));
  m.run([&](Context& ctx) {
    const std::function<void()> call = p.build(ctx);
    PhaseTimer timer(ctx, ProcView::grid1(np).group(ctx.rank()));
    const auto h0 = HostClock::now();
    const std::uint64_t m0 = ctx.proc().counters().msgs_sent;
    for (int i = 0; i < reps; ++i) {
      call();
    }
    msgs[static_cast<std::size_t>(ctx.rank())] =
        ctx.proc().counters().msgs_sent - m0;
    const PhaseStats st = timer.finish();
    if (ctx.rank() == 0) {
      r.host_s = seconds_since(h0) / reps;
      r.modeled_s = st.makespan / reps;
    }
  });
  for (std::uint64_t n : msgs) {
    r.msgs += static_cast<double>(n);
  }
  r.msgs /= reps;
  return r;
}

}  // namespace kali::bench
