#pragma once
// Shared pieces of the mpbench harness: host clock, in-memory span
// recorder, digest hashing, and the workload / driver interfaces that
// main.cpp strings together into one benchmark run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/telemetry.h"

namespace mpbench {

double now_s();  // steady_clock seconds

// FNV-1a 64 over `text`, rendered as 16 hex digits.
std::string fnv1a_hex(const std::string& text);

double median(std::vector<double> v);

// Benchmark-side spans: one per call the harness makes into the program
// (set-up, run, check, each driver). Kept in memory; written at exit.
class SpanRecorder {
 public:
  int open(std::string name, int iteration = -1);
  double close(int id);  // returns the span's duration

  // JSON Lines, one span per line, then one `summary` line per span name
  // with its count, total and self time (total minus child coverage).
  std::string to_jsonl() const;
  // The same self-time summary as a text table.
  std::string summary() const;

 private:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index of the enclosing span, -1 = root
    int iteration = -1;
  };
  struct Total {
    int count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Total> totals() const;

  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span over one scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, int iteration = -1)
      : rec_(rec), id_(rec.open(std::move(name), iteration)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int id_;
};

// Counts harvested from the traced pass, keyed by per-layer metric name.
using Counts = std::map<std::string, double>;

// Counts every record it sees, per TraceType, plus retransmitted data
// packets offered to a link (the tcp retransmission count observable from
// outside every workload).
class CountingSink final : public mpdash::TraceSink {
 public:
  void on_record(const mpdash::TraceRecord& r) override;
  void add_to(Counts& out) const;

 private:
  std::uint64_t by_type_[mpdash::kTraceTypeCount] = {};
  std::uint64_t retx_sends_ = 0;
};

// Sums the registry counters the harness reads (events, link packets,
// subflow timeouts, scheduler activations and misses) into `out`.
void add_registry_counts(const mpdash::MetricsRegistry& m, Counts& out);

// What one run of one input set produced, as the check sees it.
struct SetResult {
  std::string digest_text;  // canonical text of everything observable
  int sessions = 0;
  int failed = 0;           // sessions not completed / non-ok outcome
  Counts counts;            // filled by counted passes only
  // Campaign bookkeeping (chaos50 only; zero elsewhere).
  double runner_wall_s = 0.0;
  double runner_sum_s = 0.0;
  int runner_runs = 0;
};

// How an iteration observes the program: not at all (timed runs), with
// registry counters live (counted pass), or with counters plus a
// counting trace sink (traced pass).
enum class Observe { kNone, kCounters, kTraced };

// A workload is a fixed list of input sets (a session, a fleet, a
// campaign) generated from the workload seed. One iteration runs every
// set once, in order; each set is timed on its own.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual int input_sets() const = 0;
  // Input set `k` at a zero simulated-time limit: inputs, scenario, links
  // and session stacks built and torn down, nothing simulated.
  virtual void setup(int k) = 0;
  virtual SetResult run(int k, Observe observe) = 0;
  // Deterministic description of the generated inputs (seed check).
  virtual std::string inputs() const = 0;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

// The span-model record set (span_model_trace_mask) of the first `stream`
// session: the analysis driver's input.
std::vector<mpdash::TraceRecord> stream_span_records(std::uint64_t seed);

// --- layer drivers -------------------------------------------------------
// Each times one layer's public functions on a fixed input shape and
// returns host nanoseconds per unit of work (median of repeats).
struct DriverResults {
  double sim_ns_per_op_shallow = 0.0;
  double sim_ns_per_op_deep = 0.0;
  double link_fifo_ns_per_pkt = 0.0;
  double link_fq_ns_per_pkt = 0.0;
  double link_events_per_pkt = 0.0;  // loop events the link driver ran
  double transport_ns_per_pkt = 0.0;
  double http_parse_ns_per_msg = 0.0;
  double telemetry_emit_ns = 0.0;
  double analysis_ns_per_record = 0.0;
};

DriverResults run_drivers(SpanRecorder& spans, std::uint64_t seed);

}  // namespace mpbench
