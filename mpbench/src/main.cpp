// mpbench: the repository benchmark. One process runs one workload for a
// fixed host-time budget and prints its metrics, ending with one JSON line:
//
//   mpbench --workload stream|fleet256|chaos50 --seed N --seconds S
//           --trace 0|1 [--spans PATH] [--print-inputs]
//
// A workload is a fixed list of input sets generated from the seed; an
// iteration runs each set once. Run times are the fastest of each set's
// repeats (the work is deterministic; the host's other tenants only slow
// it), summed over the sets. Set-up is the median of zero-time-limit runs
// spread over the whole budget.
//
// --trace 0 measures the end-to-end metrics with telemetry detached: one
//   counted pass (registry counters live; gives the packet count and the
//   reference digest), then untraced iterations until the budget is spent.
// --trace 1 is the separate traced run: untraced iterations, traced
//   iterations (benchmark-owned Telemetry with a counting sink), and the
//   layer drivers; it prints the per-layer metrics and writes the span
//   file.
// Every iteration's digest must equal the first one's, traced equal
// untraced, and at the default seed the pinned digest. Any mismatch fails
// that iteration's sessions and makes the exit code 1.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "pins.h"

namespace mpbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_path;
  bool print_inputs = false;
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(stderr,
               "error: %s\nusage: mpbench --workload stream|fleet256|chaos50 "
               "--seed N --seconds S --trace 0|1 [--spans PATH] "
               "[--print-inputs]\n",
               msg.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + flag);
      return argv[++i];
    };
    auto number = [&](const std::string& v) {
      char* end = nullptr;
      const double d = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !std::isfinite(d)) {
        usage("bad number for " + flag + ": " + v);
      }
      return d;
    };
    if (flag == "--workload") {
      a.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0' || v[0] == '-') usage("bad seed " + v);
    } else if (flag == "--seconds") {
      a.seconds = number(value());
      if (a.seconds <= 0.0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--spans") {
      a.spans_path = value();
    } else if (flag == "--print-inputs") {
      a.print_inputs = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

// Peak resident set of this process image. VmHWM belongs to the address
// space exec created; getrusage's ru_maxrss would carry over the peak of
// whatever process exec'd the benchmark.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  char line[256];
  double kib = 0.0;
  while (f && std::fgets(line, sizeof line, f)) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::atof(line + 6);
  }
  if (f) std::fclose(f);
  if (kib <= 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// One iteration: every input set run once, each timed on its own.
struct Pass {
  std::vector<double> run_s;  // per input set
  SetResult total;            // merged over the input sets
};

void merge(SetResult& into, const SetResult& r) {
  into.digest_text += r.digest_text;
  into.sessions += r.sessions;
  into.failed += r.failed;
  for (const auto& [name, value] : r.counts) {
    // -1 marks a count the workload cannot observe; it stays -1.
    double& v = into.counts[name];
    v = (v < 0 || value < 0) ? -1 : v + value;
  }
  into.runner_wall_s += r.runner_wall_s;
  into.runner_sum_s += r.runner_sum_s;
  into.runner_runs += r.runner_runs;
}

// Per input set, the fastest of its timed runs: the work is
// deterministic, and other tenants of the host only ever slow it down.
double sum_of_fastest(const std::vector<std::vector<double>>& per_set) {
  double sum = 0.0;
  for (const std::vector<double>& v : per_set) {
    sum += *std::min_element(v.begin(), v.end());
  }
  return sum;
}

// Runs the benchmark for one workload and collects its metrics.
class Bench {
 public:
  Bench(const Args& args, Workload& w)
      : args_(args), w_(w), sets_(w.input_sets()) {
    pin_ = pinned_digest(w.name(), args.seed);
  }

  int run() {
    for (int i = 0; i < 3; ++i) setup_round();
    if (args_.trace == 0) {
      run_end_to_end();
    } else {
      run_traced();
    }
    print();
    if (!args_.spans_path.empty()) write_spans();
    return mismatch_ ? 1 : 0;
  }

 private:
  // Every input set once at a zero simulated-time limit.
  void setup_round() {
    for (int k = 0; k < sets_; ++k) {
      const int id = spans_.open("setup", k);
      w_.setup(k);
      setup_s_.push_back(spans_.close(id));
    }
  }

  Pass iterate(Observe observe, const char* label) {
    Pass p;
    const int it_id = spans_.open(label, iterations_);
    for (int k = 0; k < sets_; ++k) {
      const int run_id = spans_.open("exp.run", iterations_);
      const SetResult r = w_.run(k, observe);
      p.run_s.push_back(spans_.close(run_id));
      merge(p.total, r);
    }
    const int check_id = spans_.open("exp.check", iterations_);
    check(p.total, label);
    check_s_.push_back(spans_.close(check_id));
    spans_.close(it_id);
    ++iterations_;
    return p;
  }

  void check(const SetResult& it, const char* label) {
    const std::string digest = fnv1a_hex(it.digest_text);
    attempted_ += it.sessions;
    int failed = it.failed;
    if (reference_.empty()) {
      reference_ = digest;
      std::printf("digest %s seed=%llu %s pinned=%s\n", w_.name(),
                  static_cast<unsigned long long>(args_.seed), digest.c_str(),
                  pin_ ? pin_ : "none");
      if (pin_ && digest != pin_) {
        std::fprintf(stderr, "%s: digest %s differs from the pinned %s\n",
                     label, digest.c_str(), pin_);
        failed = it.sessions;
        mismatch_ = true;
      }
    } else if (digest != reference_) {
      std::fprintf(stderr, "%s %d: digest %s differs from the first %s\n",
                   label, iterations_, digest.c_str(), reference_.c_str());
      failed = it.sessions;
      mismatch_ = true;
    }
    if (it.failed > 0) {
      std::fprintf(stderr, "%s %d: %d of %d sessions failed\n", label,
                   iterations_, it.failed, it.sessions);
    }
    failed_ += failed;
  }

  // Iterations of `observe` kind (at least `min_iters`) while the next
  // one is expected to end within `budget_s`, each followed by set-up
  // rounds for a fortieth of its time, so set-up samples spread over the
  // whole run. Returns the per-set run times; a traced loop checks its
  // counts repeat and keeps the last pass.
  std::vector<std::vector<double>> loop(Observe observe, const char* label,
                                        double budget_s, int min_iters,
                                        Pass* last) {
    std::vector<std::vector<double>> per_set(static_cast<std::size_t>(sets_));
    std::vector<double> iter_s;
    const double t0 = now_s();
    while (static_cast<int>(iter_s.size()) < min_iters ||
           now_s() - t0 + median(iter_s) <= budget_s) {
      const double i0 = now_s();
      Pass p = iterate(observe, label);
      const double setup_end = now_s() + 0.025 * (now_s() - i0);
      do {
        setup_round();
      } while (now_s() < setup_end);
      iter_s.push_back(now_s() - i0);
      for (int k = 0; k < sets_; ++k) {
        per_set[static_cast<std::size_t>(k)].push_back(
            p.run_s[static_cast<std::size_t>(k)]);
      }
      if (observe == Observe::kNone) {
        const SetResult& t = p.total;
        runner_speedup_.push_back(
            t.runner_wall_s > 0.0 ? t.runner_sum_s / t.runner_wall_s : 0.0);
        runner_sum_s_.push_back(t.runner_sum_s);
        runner_runs_ = t.runner_runs;
        for (double r : p.run_s) loop_run_sum_s_ += r;
        loop_runs_ += sets_;
      } else if (last && !last->total.counts.empty() &&
                 p.total.counts != last->total.counts) {
        std::fprintf(stderr, "%s counts differ between iterations\n", label);
        mismatch_ = true;
      }
      if (last) *last = std::move(p);
    }
    if (observe == Observe::kNone) loop_wall_s_ += now_s() - t0;
    return per_set;
  }

  void run_end_to_end() {
    const Pass counted = iterate(Observe::kCounters, "counted");
    const double run_s = sum_of_fastest(
        loop(Observe::kNone, "iteration", args_.seconds, 3, nullptr));
    const double wall = run_s / sets_;
    const double pkts = counted.total.counts.at("link.pkts");
    add("setup_s", median(setup_s_), "s");
    add("wall_s", wall, "s");
    add("pkts_per_s", pkts / run_s, "1/s");
    add("peak_rss_mb", peak_rss_mb(), "MB");
  }

  void run_traced() {
    const double run_s = sum_of_fastest(
        loop(Observe::kNone, "iteration", 0.45 * args_.seconds, 2, nullptr));
    Pass last;
    const double traced_s = sum_of_fastest(
        loop(Observe::kTraced, "traced", 0.3 * args_.seconds, 1, &last));
    Counts& c = last.total.counts;

    const DriverResults d = run_drivers(spans_, args_.seed);

    const bool fleet = std::strcmp(w_.name(), "fleet256") == 0;
    const bool campaign = runner_runs_ > 0;
    const double pkts = c["link.pkts"];
    const double events = c["sim.events"];
    // Serial host time of the run: the campaign's per-run sum when runs
    // overlap on workers, the run calls otherwise.
    const double serial_s = campaign
                                ? *std::min_element(runner_sum_s_.begin(),
                                                    runner_sum_s_.end())
                                : run_s;
    const double sim_ns =
        fleet ? d.sim_ns_per_op_deep : d.sim_ns_per_op_shallow;
    const double link_ns =
        (fleet ? d.link_fq_ns_per_pkt : d.link_fifo_ns_per_pkt) -
        d.link_events_per_pkt * d.sim_ns_per_op_shallow;
    const double http_msgs = 2.0 * c["dash.chunks"];
    const double busy_s = (events * sim_ns + pkts * link_ns +
                           http_msgs * d.http_parse_ns_per_msg) /
                          1e9;

    add("sim.events", events, "count");
    add("sim.events_per_pkt", events / pkts, "ratio");
    add("sim.ns_per_event", serial_s * 1e9 / events, "ns");
    add("sim.drv_ns_per_op.shallow", d.sim_ns_per_op_shallow, "ns");
    add("sim.drv_ns_per_op.deep", d.sim_ns_per_op_deep, "ns");
    add("link.pkts", pkts, "count");
    add("link.drops", c["link.drops"], "count");
    add("link.fifo_ns_per_pkt", d.link_fifo_ns_per_pkt, "ns");
    add("link.fq_ns_per_pkt", d.link_fq_ns_per_pkt, "ns");
    add("transport.ns_per_pkt", d.transport_ns_per_pkt, "ns");
    add("tcp.retx", c["tcp.retx"], "count");
    add("tcp.rto", c["tcp.rto"], "count");
    add("mptcp.reinjected", c["mptcp.reinjected"], "count");
    add("mptcp.subflow_failures", c["mptcp.subflow_failures"], "count");
    add("http.retries", c["http.retries"], "count");
    add("http.timeouts", c["http.timeouts"], "count");
    add("fault.injected", c["fault.injected"], "count");
    add("http.parse_ns_per_msg", d.http_parse_ns_per_msg, "ns");
    add("dash.chunks", c["dash.chunks"], "count");
    add("dash.stalls", c["dash.stalls"], "count");
    add("core.sched_activations", c["core.sched_activations"], "count");
    add("core.deadline_misses", c["core.deadline_misses"], "count");
    for (const auto& [name, value] : c) {
      if (name.rfind("telemetry.records.", 0) == 0) add(name, value, "count");
    }
    add("telemetry.emit_ns", d.telemetry_emit_ns, "ns");
    add("telemetry.trace_overhead", traced_s / run_s - 1.0, "ratio");
    add("analysis.attrib_ns_per_record", d.analysis_ns_per_record, "ns");
    add("exp.setup_s", median(setup_s_), "s");
    add("exp.run_s", run_s, "s");
    add("exp.check_s", median(check_s_), "s");
    if (campaign) {
      add("runner.speedup", median(runner_speedup_), "ratio");
      add("runner.run_s_mean", serial_s / runner_runs_, "s");
    } else {
      // One caller thread runs the input sets back to back: the timed
      // loop is the campaign, each input set one run.
      add("runner.speedup", loop_run_sum_s_ / loop_wall_s_, "ratio");
      add("runner.run_s_mean", loop_run_sum_s_ / loop_runs_, "s");
    }
    add("busy_est_s", busy_s, "s");
    add("unattributed_s", serial_s - busy_s, "s");
    add("fail_frac",
        attempted_ > 0 ? static_cast<double>(failed_) / attempted_ : 1.0,
        "ratio");

    std::fprintf(stderr, "%s", spans_.summary().c_str());
    std::fprintf(stderr,
                 "busy estimate %.4f s = %.0f events x %.1f ns (sim) + %.0f "
                 "pkts x %.1f ns (link self) + %.0f msgs x %.1f ns (http); "
                 "serial run %.4f s, unattributed %.4f s\n",
                 busy_s, events, sim_ns, pkts, link_ns, http_msgs,
                 d.http_parse_ns_per_msg, serial_s, serial_s - busy_s);
  }

  void add(std::string name, double value, const char* unit) {
    metrics_.push_back({std::move(name), value, unit});
  }

  void print() {
    bool finite = true;
    std::string json = "{";
    char buf[256];
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (!std::isfinite(m.value)) finite = false;
      std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit);
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", m.name.c_str(),
                    std::isfinite(m.value) ? m.value : 0.0, m.unit);
      json += buf;
    }
    json += "}";
    if (!finite) {
      std::fprintf(stderr, "a metric is not a finite number\n");
      mismatch_ = true;
    }
    const bool correct = !mismatch_ && failed_ == 0;
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", attempted_, failed_, json.c_str());
    std::fflush(stdout);
  }

  void write_spans() {
    std::FILE* f = std::fopen(args_.spans_path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", args_.spans_path.c_str());
      return;
    }
    const std::string text = spans_.to_jsonl();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }

  const Args& args_;
  Workload& w_;
  const int sets_;
  const char* pin_ = nullptr;
  SpanRecorder spans_;
  std::vector<Metric> metrics_;
  std::string reference_;
  bool mismatch_ = false;
  int attempted_ = 0;
  int failed_ = 0;
  int iterations_ = 0;
  std::vector<double> setup_s_;  // per input set
  std::vector<double> check_s_;
  std::vector<double> runner_speedup_;
  std::vector<double> runner_sum_s_;
  int runner_runs_ = 0;
  double loop_run_sum_s_ = 0.0;
  int loop_runs_ = 0;
  double loop_wall_s_ = 0.0;
};

}  // namespace
}  // namespace mpbench

int main(int argc, char** argv) {
  using namespace mpbench;
  const Args args = parse(argc, argv);
  try {
    std::unique_ptr<Workload> w = make_workload(args.workload, args.seed);
    if (!w) usage("unknown workload " + args.workload);
    if (args.print_inputs) {
      std::printf("inputs %s seed=%llu %s\n", w->name(),
                  static_cast<unsigned long long>(args.seed),
                  fnv1a_hex(w->inputs()).c_str());
      return 0;
    }
    Bench bench(args, *w);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mpbench: %s\n", e.what());
    return 1;
  }
}
