// kali_bench — one workload of the kali benchmark per process.
//
//   kali_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//              [--smoke] [--detail FILE] [--trace-out FILE]
//   kali_bench --list
//
// Untraced (--trace 0): one warm-up sample, then timed samples until
// --seconds have passed; prints the end-to-end metrics.  Traced (--trace
// 1): after the warm-up, rounds of three samples — untraced, traced, and
// untraced with the deadlock detector off — then the workload's probes;
// prints the per-layer metrics.  Either way the last line of stdout is one
// JSON object {correct, attempted, failed, metrics}; --detail also writes
// distributions, spans and probes, --trace-out a Chrome trace-event file of
// the last traced sample.  Progress and failures go to stderr.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "machine/message.hpp"
#include "workloads.hpp"

namespace kali::bench {
namespace {

// ---- the metric catalogue ---------------------------------------------------
//
// BENCHMARK.json lists the same names and units; report.py checks every
// result against it.

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"modeled_s", "sim_s"},
    {"host_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Workload-level public calls the benchmark wraps in spans.
const std::vector<std::string> kSpanCalls = {
    "solvers.adi_iterate", "solvers.mg3_cycle", "solvers.jacobi_kf1",
    "kernels.fft2_forward", "kernels.fft2_inverse",
};

/// Layer calls the probes time on the workloads' shapes.
const std::vector<std::string> kProbeCalls = {
    "runtime.exchange_halo", "runtime.redistribute", "runtime.copy_strided_dim_halo",
    "kernels.fft_lines",     "kernels.mtri_const",   "solvers.mg3_zebra_sweep",
};

const std::vector<MetricDef> kMachine = {
    {"machine.compute_s", "sim_s"},     {"machine.overhead_s", "sim_s"},
    {"machine.wait_s", "sim_s"},        {"machine.link_wait_s", "sim_s"},
    {"machine.edge_wait_s", "sim_s"},   {"machine.msgs", "count"},
    {"machine.bytes", "bytes"},         {"machine.contended_msgs", "count"},
    {"machine.utilization", "ratio"},   {"machine.overlap_ratio", "ratio"},
    {"machine.max_edge_load", "count"}, {"machine.host_ns_per_msg", "ns"},
    {"machine.mailbox_peak", "count"},  {"machine.detector_host_s", "s"},
    {"user.msgs", "count"},             {"runtime.msgs", "count"},
    {"kernels.msgs", "count"},          {"collectives.msgs", "count"},
};

const std::vector<MetricDef> kQuality = {
    {"solvers.residual_ratio", "ratio"},
    {"metrics.predictor_rel_err", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

/// Reported per span and per probe.  Host seconds per call go to the
/// --detail file only: a call a workload does not make reads zero, and a
/// host time that reads zero on every run is not a measurement.
const std::vector<MetricDef> kCallFields = {
    {"calls", "count"}, {"modeled_s", "sim_s"}, {"msgs", "count"}};

std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> defs = kMachine;
  for (const auto* calls : {&kSpanCalls, &kProbeCalls}) {
    for (const std::string& call : *calls) {
      for (const MetricDef& f : kCallFields) {
        defs.push_back({call + "." + f.name, f.unit});
      }
    }
  }
  defs.insert(defs.end(), kQuality.begin(), kQuality.end());
  return defs;
}

/// Host worker threads per simulated machine.  Modeled results are
/// bit-identical for any count.  With four workers on a 4-vCPU host, peak
/// RSS spread 2-4% from run to run (against under 1% with one) and host
/// time was no steadier; the price of one worker is that the multi-worker
/// scheduler goes untimed.
constexpr int kSimWorkers = 1;

// ---- small helpers ----------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) {
    throw std::runtime_error("non-finite metric value");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += ch;
  }
  return out + "\"";
}

/// The members of one JSON object, added in order.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return raw(key, num(v)); }
  JsonObject& add(const std::string& key, const std::string& s) { return raw(key, quote(s)); }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// Distribution summary; quartiles as Python's statistics.quantiles(n=4)
/// computes them (the "exclusive" method), so both sides agree.
struct Dist {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

Dist summarize(std::vector<double> v) {
  Dist d;
  d.n = v.size();
  if (v.empty()) {
    return d;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  d.median = n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  d.max = v.back();
  if (n < 2) {
    d.q1 = d.q3 = v[0];
    return d;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  d.q1 = quartile(1);
  d.q3 = quartile(3);
  return d;
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::vector<double> host_times(const std::vector<Sample>& samples) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    v.push_back(s.host_s);
  }
  return v;
}

// ---- results -------------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
  Dist dist;  ///< n > 1 when the value is a median over samples
};

/// Everything one run reports.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  JsonObject spans;   ///< --detail only
  JsonObject probes;  ///< --detail only

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit, {}};
  }
  void set(const std::string& name, const Dist& d, const std::string& unit) {
    metrics[name] = Metric{d.median, unit, d};
  }

  /// `defs` as {name: {value, unit[, q1, q3, max, n]}}.
  [[nodiscard]] std::string metrics_json(const std::vector<MetricDef>& defs,
                                         bool with_dist) const {
    JsonObject out;
    for (const MetricDef& d : defs) {
      const auto it = metrics.find(d.name);
      if (it == metrics.end() || it->second.unit != d.unit) {
        throw std::logic_error("metric not measured as catalogued: " + d.name);
      }
      const Metric& m = it->second;
      JsonObject o;
      o.add("value", m.value).add("unit", m.unit);
      if (with_dist && m.dist.n > 1) {
        o.add("q1", m.dist.q1).add("q3", m.dist.q3).add("max", m.dist.max);
        o.add("n", static_cast<double>(m.dist.n));
      }
      out.raw(d.name, o.str());
    }
    return out.str();
  }
};

/// Count failed samples.  Against a reference, a sample must also repeat
/// its modeled time and message count bit for bit (the warm-up has none:
/// its extra checks may change what it measures).
void tally(Report& rep, const std::vector<Sample>& samples, const Sample* ref,
           const char* what) {
  for (const Sample& s : samples) {
    ++rep.attempted;
    std::string why = s.check.why;
    if (s.check.ok && ref != nullptr &&
        (s.modeled_s != ref->modeled_s || s.phase.msgs_sent != ref->phase.msgs_sent)) {
      why = "modeled_s/msgs differ from the reference sample";
    }
    if (!why.empty()) {
      ++rep.failed;
      std::cerr << "  FAILED " << what << " sample: " << why << "\n";
    }
  }
}

// ---- per-layer metrics -------------------------------------------------------------

/// Machine layer, from the PhaseTimer window's counter deltas.
void add_machine(Report& rep, const Sample& ref, int nprocs) {
  const ProcCounters& c = ref.phase;
  rep.set("machine.compute_s", c.compute_time, "sim_s");
  rep.set("machine.overhead_s", c.overhead_time, "sim_s");
  rep.set("machine.wait_s", c.wait_time, "sim_s");
  rep.set("machine.link_wait_s", c.link_wait_time, "sim_s");
  rep.set("machine.edge_wait_s", c.edge_wait_time, "sim_s");
  rep.set("machine.msgs", static_cast<double>(c.msgs_sent), "count");
  rep.set("machine.bytes", static_cast<double>(c.bytes_sent), "bytes");
  rep.set("machine.contended_msgs", static_cast<double>(c.contended_msgs), "count");
  rep.set("machine.utilization", c.compute_time / (nprocs * ref.modeled_s), "ratio");
  rep.set("machine.overlap_ratio",
          c.overlap_wire_time > 0.0 ? c.overlap_hidden_time / c.overlap_wire_time : 0.0,
          "ratio");
  std::uint64_t max_edge = 0;
  for (const auto& [edge, n] : c.edge_msgs) {
    max_edge = std::max(max_edge, n);
  }
  rep.set("machine.max_edge_load", static_cast<double>(max_edge), "count");

  // Messages by sending layer: the tag bands of machine/message.hpp.
  double user = 0.0;
  double runtime = 0.0;
  double kernels = 0.0;
  double collectives = 0.0;
  for (const auto& [tag, n] : c.sent_by_tag) {
    const auto x = static_cast<double>(n);
    if (tag < kRuntimeTagBase) {
      user += x;
    } else if (tag < kKernelTagBase) {
      runtime += x;
    } else if (tag < kCollectiveTagBase) {
      kernels += x;
    } else {
      collectives += x;
    }
  }
  rep.set("user.msgs", user, "count");
  rep.set("runtime.msgs", runtime, "count");
  rep.set("kernels.msgs", kernels, "count");
  rep.set("collectives.msgs", collectives, "count");
}

/// Spans of the traced samples.  Modeled time per call is the slowest
/// rank's clock delta (the mean over ranks goes to --detail), messages are
/// summed over ranks; both repeat exactly, so the first sample gives them.
/// Host time per call is rank 0's, median over samples.
void add_spans(Report& rep, const std::vector<Sample>& traced) {
  struct Call {
    std::vector<double> max_dt;  ///< per occurrence, first sample
    double sum_dt = 0.0;
    double msgs = 0.0;
    std::vector<double> host;  ///< per call, one entry per sample
  };
  std::map<std::string, Call> calls;
  for (std::size_t k = 0; k < traced.size(); ++k) {
    std::map<std::string, double> host;
    std::map<std::string, std::size_t> count;
    for (const std::vector<Span>& rank : traced[k].spans) {
      std::map<std::string, std::size_t> seen;
      for (const Span& s : rank) {
        const std::size_t i = seen[s.name]++;
        host[s.name] += s.host_s;
        count[s.name] = std::max(count[s.name], i + 1);
        if (k > 0) {
          continue;
        }
        Call& c = calls[s.name];
        if (c.max_dt.size() <= i) {
          c.max_dt.resize(i + 1, 0.0);
        }
        c.max_dt[i] = std::max(c.max_dt[i], s.t1 - s.t0);
        c.sum_dt += s.t1 - s.t0;
        c.msgs += static_cast<double>(s.msgs);
      }
    }
    for (const auto& [name, h] : host) {
      calls[name].host.push_back(h / static_cast<double>(count[name]));
    }
  }
  const auto nranks = static_cast<double>(traced.front().spans.size());
  for (const auto& [name, c] : calls) {
    const auto n = static_cast<double>(c.max_dt.size());
    double slowest = 0.0;
    for (double dt : c.max_dt) {
      slowest += dt;
    }
    rep.set(name + ".calls", n, "count");
    rep.set(name + ".modeled_s", slowest / n, "sim_s");
    rep.set(name + ".msgs", c.msgs / n, "count");
    const Dist h = summarize(c.host);
    rep.spans.raw(name, JsonObject()
                            .add("calls", n)
                            .add("modeled_s", slowest / n)
                            .add("modeled_mean_rank_s", c.sum_dt / n / nranks)
                            .add("host_s", h.median)
                            .add("host_q1", h.q1)
                            .add("host_q3", h.q3)
                            .add("msgs", c.msgs / n)
                            .str());
  }
}

/// Run the workload's probes; returns modeled seconds per call by name.
std::map<std::string, double> add_probes(Report& rep, Workload& w, int workers) {
  std::map<std::string, double> modeled;
  for (const Probe& p : w.probes()) {
    const ProbeResult r = run_probe(w, workers, p, 3);
    modeled[r.name] = r.modeled_s;
    rep.set(r.name + ".calls", r.calls, "count");
    rep.set(r.name + ".modeled_s", r.modeled_s, "sim_s");
    rep.set(r.name + ".msgs", r.msgs, "count");
    rep.probes.raw(r.name, JsonObject()
                               .add("calls", r.calls)
                               .add("modeled_s", r.modeled_s)
                               .add("host_s", r.host_s)
                               .add("msgs", r.msgs)
                               .str());
  }
  return modeled;
}

/// Chrome trace-event JSON of one traced sample: one track per rank, on
/// the modeled clock (1 us = 1 simulated microsecond).  Opens in Perfetto.
void write_chrome_trace(const std::string& path, const Sample& s, const char* workload) {
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":"
    << JsonObject().add("workload", workload).add("clock", "modeled").str()
    << ",\"traceEvents\":[\n"
    << R"({"name":"process_name","ph":"M","pid":0,"args":{"name":"kali )" << workload
    << "\"}}";
  for (std::size_t r = 0; r < s.spans.size(); ++r) {
    f << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << r
      << ",\"args\":{\"name\":\"rank " << r << "\"}}";
    for (const Span& sp : s.spans[r]) {
      const std::string name = sp.name;
      JsonObject args;
      args.add("msgs", static_cast<double>(sp.msgs));
      if (r == 0) {
        args.add("host_s", sp.host_s);
      }
      f << ",\n"
        << JsonObject()
               .add("name", name)
               .add("cat", name.substr(0, name.find('.')))
               .add("ph", "X")
               .add("pid", 0.0)
               .add("tid", static_cast<double>(r))
               .add("ts", sp.t0 * 1e6)
               .add("dur", (sp.t1 - sp.t0) * 1e6)
               .raw("args", args.str())
               .str();
    }
  }
  f << "\n]}\n";
  if (!f) {
    throw std::runtime_error("cannot write " + path);
  }
}

// ---- the two modes --------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  std::string detail;
  std::string trace_out;
};

Report run_untraced(Workload& w, const Args& a) {
  Report rep;
  const Sample warm = run_sample(w, kSimWorkers, {.warmup = true});
  std::vector<Sample> timed;
  std::vector<double> setup;
  const std::size_t min_n = a.smoke ? 2 : 3;
  const auto start = HostClock::now();
  while (timed.size() < min_n || seconds_since(start) < a.seconds) {
    const Sample& s = timed.emplace_back(run_sample(w, kSimWorkers, {}));
    setup.push_back(s.setup_s);
    // Set-up alone is short and spiky: repeat it for a steadier median,
    // spending at most a tenth of the sample's time on the repeats.
    const double reps = std::min(8.0, std::floor(0.1 * s.host_s / s.setup_s));
    for (int i = 0; i < static_cast<int>(reps); ++i) {
      setup.push_back(run_setup(w, kSimWorkers));
    }
  }
  tally(rep, {warm}, nullptr, "warm-up");
  tally(rep, timed, &timed.front(), "timed");

  rep.set("modeled_s", timed.front().modeled_s, "sim_s");
  rep.set("host_s", summarize(host_times(timed)), "s");
  rep.set("setup_s", summarize(setup), "s");
  rep.set("peak_rss_mb", peak_rss_mib(), "MiB");
  return rep;
}

Report run_traced(Workload& w, const Args& a) {
  Report rep;
  const Sample warm = run_sample(w, kSimWorkers, {.warmup = true});
  tally(rep, {warm}, nullptr, "warm-up");
  // Interleaved rounds, so host drift hits all three kinds alike.
  std::vector<Sample> plain;
  std::vector<Sample> traced;
  std::vector<Sample> no_detector;
  const std::size_t min_rounds = a.smoke ? 1 : 2;
  const auto start = HostClock::now();
  while (plain.size() < min_rounds || seconds_since(start) < a.seconds) {
    plain.push_back(run_sample(w, kSimWorkers, {}));
    traced.push_back(run_sample(w, kSimWorkers, {.traced = true}));
    no_detector.push_back(run_sample(w, kSimWorkers, {.deadlock_detection = false}));
  }
  const Sample& ref = plain.front();
  tally(rep, plain, &ref, "untraced");
  tally(rep, traced, &ref, "traced");  // traced modeled_s must equal untraced
  tally(rep, no_detector, &ref, "detector-off");

  add_machine(rep, ref, w.nprocs());
  add_spans(rep, traced);
  const std::map<std::string, double> probe_s = add_probes(rep, w, kSimWorkers);

  const double host = summarize(host_times(plain)).median;
  std::size_t mailbox = 0;
  for (const Sample& s : plain) {
    mailbox = std::max(mailbox, s.mailbox_peak);
  }
  const auto msgs = static_cast<double>(ref.phase.msgs_sent);
  rep.set("machine.host_ns_per_msg", msgs > 0 ? host / msgs * 1e9 : 0.0, "ns");
  rep.set("machine.mailbox_peak", static_cast<double>(mailbox), "count");
  rep.set("machine.detector_host_s", host - summarize(host_times(no_detector)).median, "s");
  rep.set("trace.overhead_frac", summarize(host_times(traced)).median / host - 1.0, "ratio");

  double ratio = warm.check.residual_ratio;
  for (const auto* set : {&plain, &traced, &no_detector}) {
    for (const Sample& s : *set) {
      ratio = std::max(ratio, s.check.residual_ratio);
    }
  }
  rep.set("solvers.residual_ratio", ratio, "ratio");
  rep.set("metrics.predictor_rel_err", w.predictor_rel_err(ref.modeled_s, probe_s), "ratio");

  // Spans and probes a workload does not make read zero calls.
  for (const MetricDef& d : per_layer_defs()) {
    if (rep.metrics.count(d.name) == 0) {
      rep.set(d.name, 0.0, d.unit);
    }
  }
  if (!a.trace_out.empty()) {
    write_chrome_trace(a.trace_out, traced.back(), w.name());
  }
  return rep;
}

void print_list() {
  std::string names;
  for (const std::string& n : workload_names()) {
    names += (names.empty() ? "" : ",") + quote(n);
  }
  const auto defs = [](const std::vector<MetricDef>& list) {
    std::string s;
    for (const MetricDef& d : list) {
      s += (s.empty() ? "" : ",") + JsonObject().add("name", d.name).add("unit", d.unit).str();
    }
    return "[" + s + "]";
  };
  std::cout << JsonObject()
                   .raw("workloads", "[" + names + "]")
                   .raw("end_to_end", defs(kEndToEnd))
                   .raw("per_layer", defs(per_layer_defs()))
                   .str()
            << "\n";
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument("missing value for " + k);
      }
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.traced = std::stoi(value()) != 0;
    } else if (k == "--smoke") {
      a.smoke = true;
    } else if (k == "--detail") {
      a.detail = value();
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

int run(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--list") == 0) {
    print_list();
    return 0;
  }
  const Args a = parse(argc, argv);
  auto w = make_workload(a.workload, a.seed, a.smoke);
  std::cerr << "kali_bench " << w->name() << " seed=" << a.seed << " workers=" << kSimWorkers
            << (a.traced ? " traced" : "") << (a.smoke ? " smoke" : "") << "\n";
  const Report rep = a.traced ? run_traced(*w, a) : run_untraced(*w, a);
  const std::vector<MetricDef> defs = a.traced ? per_layer_defs() : kEndToEnd;
  for (const MetricDef& d : defs) {
    std::cerr << "  " << d.name << " = " << num(rep.metrics.at(d.name).value) << " " << d.unit
              << "\n";
  }
  if (!a.detail.empty()) {
    JsonObject detail;
    detail.add("workload", w->name())
        .add("seed", static_cast<double>(a.seed))
        .add("mode", a.traced ? "traced" : "untraced")
        .raw("smoke", a.smoke ? "true" : "false")
        .raw("host", JsonObject()
                         .add("workers", kSimWorkers)
                         .add("cpus", affinity_cpus())
                         .str())
        .add("attempted", static_cast<double>(rep.attempted))
        .add("failed", static_cast<double>(rep.failed))
        .raw("metrics", rep.metrics_json(defs, true));
    if (a.traced) {
      detail.raw("spans", rep.spans.str()).raw("probes", rep.probes.str());
    }
    std::ofstream f(a.detail);
    f << detail.str() << "\n";
    if (!f) {
      throw std::runtime_error("cannot write " + a.detail);
    }
  }
  std::cout << "{\"correct\":" << (rep.failed == 0 ? "true" : "false")
            << ",\"attempted\":" << rep.attempted << ",\"failed\":" << rep.failed
            << ",\"metrics\":" << rep.metrics_json(defs, false) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace kali::bench

int main(int argc, char** argv) {
  try {
    return kali::bench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "kali_bench: " << e.what() << "\n";
    return 1;
  }
}
