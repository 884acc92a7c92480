// The three benchmark workloads. Each iteration calls one `exp` entry
// point and turns its result into canonical digest text; the workload seed
// only generates inputs.

#include <cstdio>
#include <stdexcept>

#include "analysis/rollup.h"
#include "analysis/spans.h"
#include "bench.h"
#include "dash/video.h"
#include "exp/chaos.h"
#include "exp/fleet.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "fault/fault_json.h"
#include "runner/campaign.h"
#include "trace/locations.h"
#include "trace/trace_io.h"
#include "util/rng.h"

namespace mpbench {
namespace {

using namespace mpdash;

void append(std::string& out, const char* fmt, auto... args) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, args...);
  out += buf;
}

long long ns(TimePoint t) { return static_cast<long long>(t.count()); }

// Everything a session reports except the telemetry-owned span ids (which
// exist only when a context is attached) and the captured trace.
std::string session_digest_text(const SessionResult& r) {
  std::string out;
  append(out, "done=%d t=%.17g wifi=%lld cell=%lld share=%.17g\n",
         r.completed ? 1 : 0, r.session_s, static_cast<long long>(r.wifi_bytes),
         static_cast<long long>(r.cell_bytes), r.cell_fraction);
  append(out, "stalls=%d stall_s=%.17g switches=%d chunks=%d\n", r.stalls,
         r.stall_s, r.switches, r.chunks);
  append(out, "avg=%.17g steady=%.17g level=%.17g misses=%d engaged=%d\n",
         r.avg_bitrate_mbps, r.steady_avg_bitrate_mbps, r.avg_level,
         r.deadline_misses, r.chunks_engaged);
  append(out, "qoe=%.17g wifi_j=%.17g lte_j=%.17g\n",
         r.steady_avg_bitrate_mbps - kFleetStallPenalty * r.stall_s,
         r.wifi_energy_j, r.lte_energy_j);
  append(out, "sf=%d rev=%d reinj=%d backlog=%llu to=%d rt=%d cr=%d ab=%d\n",
         r.subflow_failures, r.subflow_revivals, r.reinjected_packets,
         static_cast<unsigned long long>(r.reinject_backlog), r.http_timeouts,
         r.http_retries, r.chunk_retries, r.chunks_abandoned);
  append(out, "seq=%llu/%llu/%llu/%llu events=%zu\n",
         static_cast<unsigned long long>(r.server_data_seq_high),
         static_cast<unsigned long long>(r.client_bytes_in_order),
         static_cast<unsigned long long>(r.client_data_seq_high),
         static_cast<unsigned long long>(r.server_bytes_in_order),
         r.events.size());
  for (const ChunkRecord& c : r.chunk_log) {
    append(out, "chunk %d %d %lld %lld %lld %lld %.17g\n", c.chunk, c.level,
           static_cast<long long>(c.bytes), ns(c.requested), ns(c.completed),
           c.deadline ? static_cast<long long>(c.deadline->count()) : -1LL,
           c.buffer_at_request_s);
  }
  return out;
}

void add_session_counts(const SessionResult& r, Counts& c) {
  c["dash.chunks"] += r.chunks;
  c["dash.stalls"] += r.stalls;
  c["mptcp.reinjected"] += r.reinjected_packets;
  c["mptcp.subflow_failures"] += r.subflow_failures;
  c["http.retries"] += r.http_retries;
  c["http.timeouts"] += r.http_timeouts;
  c["fault.injected"] += r.faults_started;
}

// --- stream ---------------------------------------------------------------
// Full `mpdash_sim stream` sessions (Big Buck Bunny, festive, mpdash-rate)
// over the "Hotel Hi" field profile. A session's host cost moves by up to
// 15% with the re-seeded trace, so the workload is kStreamSessions
// sessions, session k over the profile re-seeded with
// derive_stream_seed(workload seed, "stream/k").
constexpr int kStreamSessions = 8;

LocationProfile hotel_hi(std::uint64_t seed) {
  for (const LocationProfile& l : field_study_locations()) {
    if (l.name == "Hotel Hi") {
      LocationProfile out = l;
      out.seed = seed;
      return out;
    }
  }
  throw std::runtime_error("no Hotel Hi profile");
}

Video stream_video() { return big_buck_bunny(seconds(4.0)); }

SessionResult stream_session(const LocationProfile& location, Duration limit,
                             Telemetry* telemetry) {
  const Video video = stream_video();
  const Duration horizon = video.total_duration() + seconds(180.0);
  ScenarioConfig sc;
  sc.wifi_down = location.wifi_trace(horizon);
  sc.lte_down = location.lte_trace(horizon);
  sc.wifi_rtt = location.wifi_rtt;
  sc.lte_rtt = location.lte_rtt;
  Scenario scenario(std::move(sc));
  SessionConfig cfg;
  cfg.scheme = Scheme::kMpDashRate;
  cfg.adaptation = "festive";
  cfg.time_limit = limit;
  SessionEnv env;
  env.telemetry = telemetry;
  return run_streaming_session(scenario, video, cfg, env);
}

class StreamWorkload final : public Workload {
 public:
  explicit StreamWorkload(std::uint64_t seed) {
    for (int k = 0; k < kStreamSessions; ++k) {
      locations_.push_back(hotel_hi(
          derive_stream_seed(seed, "stream/" + std::to_string(k))));
    }
  }

  const char* name() const override { return "stream"; }
  int input_sets() const override { return kStreamSessions; }

  void setup(int k) override {
    stream_session(location(k), kDurationZero, nullptr);
  }

  SetResult run(int k, Observe observe) override {
    Telemetry telemetry;
    CountingSink sink;
    if (observe == Observe::kTraced) telemetry.add_sink(&sink);
    const SessionResult r = stream_session(
        location(k), seconds(1800.0),
        observe == Observe::kNone ? nullptr : &telemetry);
    if (observe == Observe::kTraced) telemetry.remove_sink(&sink);
    SetResult out;
    out.sessions = 1;
    out.failed = r.completed ? 0 : 1;
    out.digest_text = session_digest_text(r);
    if (observe != Observe::kNone) {
      add_registry_counts(telemetry.metrics(), out.counts);
      add_session_counts(r, out.counts);
      if (observe == Observe::kTraced) sink.add_to(out.counts);
    }
    return out;
  }

  std::string inputs() const override {
    const Duration horizon = stream_video().total_duration() + seconds(180.0);
    std::string out;
    for (const LocationProfile& l : locations_) {
      out += trace_to_csv(l.wifi_trace(horizon)) +
             trace_to_csv(l.lte_trace(horizon));
    }
    return out;
  }

 private:
  const LocationProfile& location(int k) const {
    return locations_.at(static_cast<std::size_t>(k));
  }

  std::vector<LocationProfile> locations_;
};

// --- fleet256 -------------------------------------------------------------
// run_fleet: 256 tenants, FQ shared links, default mix, 20 chunks each.
class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(std::uint64_t seed) {
    config_.sessions = 256;
    config_.seed = seed;
    config_.chunk_count = 20;
    config_.discipline = QueueDiscipline::kFairQueue;
  }

  const char* name() const override { return "fleet256"; }
  int input_sets() const override { return 1; }

  void setup(int) override {
    FleetConfig cfg = config_;
    cfg.time_limit = kDurationZero;
    run_fleet(cfg);
  }

  SetResult run(int, Observe observe) override {
    Telemetry telemetry;
    CountingSink sink;
    if (observe == Observe::kTraced) telemetry.add_sink(&sink);
    const FleetResult r =
        run_fleet(config_, observe == Observe::kNone ? nullptr : &telemetry);
    if (observe == Observe::kTraced) telemetry.remove_sink(&sink);

    SetResult out;
    out.sessions = config_.sessions;
    for (const FleetSessionResult& s : r.sessions) {
      if (!s.result.completed || !s.violations.empty()) ++out.failed;
    }
    if (!r.ok()) out.failed = out.sessions;
    out.digest_text = r.fingerprint() + "\n" + fleet_sessions_csv(r);
    if (observe != Observe::kNone) {
      add_registry_counts(telemetry.metrics(), out.counts);
      for (const FleetSessionResult& s : r.sessions) {
        add_session_counts(s.result, out.counts);
        out.counts["core.deadline_misses"] += s.result.deadline_misses;
      }
      out.counts["fault.injected"] = r.faults_started;
      // Tenants instrument into private registries run_fleet does not
      // expose, so subflow timeouts and scheduler activations are not
      // observable here.
      out.counts["tcp.rto"] = -1;
      out.counts["core.sched_activations"] = -1;
      if (observe == Observe::kTraced) sink.add_to(out.counts);
    }
    return out;
  }

  std::string inputs() const override {
    std::string out;
    append(out, "links %016llx\n",
           static_cast<unsigned long long>(
               derive_stream_seed(config_.seed, "links")));
    for (int i = 0; i < config_.sessions; ++i) {
      append(out, "session/%d %016llx\n", i,
             static_cast<unsigned long long>(derive_stream_seed(
                 config_.seed, "session/" + std::to_string(i))));
    }
    return out;
  }

 private:
  FleetConfig config_;
};

// --- chaos50 --------------------------------------------------------------
// run_chaos_campaign: 50 seeds, default spec, attribution on, 2 workers.
class ChaosWorkload final : public Workload {
 public:
  explicit ChaosWorkload(std::uint64_t seed) {
    config_.seed_count = 50;
    config_.base_seed = seed;
    config_.jobs = 2;
    config_.attribution = true;
    config_.progress = nullptr;
  }

  const char* name() const override { return "chaos50"; }
  int input_sets() const override { return 1; }

  void setup(int) override {
    ChaosConfig cfg = config_;
    cfg.session.time_limit = kDurationZero;
    run_chaos_campaign(cfg);
  }

  SetResult run(int, Observe observe) override {
    if (observe == Observe::kNone) {
      const ChaosCampaignResult r = run_chaos_campaign(config_);
      SetResult out = summarize(r.runs);
      out.runner_wall_s = r.stats.wall_s;
      out.runner_sum_s = r.stats.run_wall_sum_s;
      out.runner_runs = r.stats.runs;
      return out;
    }
    return run_observed(observe == Observe::kTraced);
  }

  std::string inputs() const override {
    std::string out;
    for (int i = 0; i < config_.seed_count; ++i) {
      const std::uint64_t s =
          derive_run_seed(config_.base_seed, "chaos/" + std::to_string(i));
      append(out, "%016llx ", static_cast<unsigned long long>(s));
      out += fault_plan_to_json(random_fault_plan(s, config_.plan)) + "\n";
    }
    return out;
  }

 private:
  struct Observed {
    ChaosRunResult run;
    Counts counts;
  };

  // run_chaos_campaign's exact fan-out (same campaign name, keys, seeds,
  // plans and run body), with the run-private telemetry harvested after
  // each run and, when traced, a counting sink attached to it.
  SetResult run_observed(bool traced) const {
    const Video video = chaos_video(config_);
    Campaign<Observed> campaign("chaos", config_.base_seed);
    for (int i = 0; i < config_.seed_count; ++i) {
      campaign.add("chaos/" + std::to_string(i),
                   [this, &video, traced](RunContext& ctx) {
                     CountingSink sink;
                     if (traced) ctx.telemetry.add_sink(&sink);
                     Observed o;
                     o.run = run_chaos_single(
                         config_, video, ctx.seed,
                         random_fault_plan(ctx.seed, config_.plan),
                         ctx.telemetry);
                     if (traced) {
                       ctx.telemetry.remove_sink(&sink);
                       sink.add_to(o.counts);
                     }
                     add_registry_counts(ctx.telemetry.metrics(), o.counts);
                     return o;
                   });
    }
    CampaignOptions opts;
    opts.jobs = config_.jobs;
    opts.progress = nullptr;
    CampaignResult<Observed> res = campaign.run(opts);

    std::vector<ChaosRunResult> runs;
    Counts counts;
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      ChaosRunResult r = std::move(res.results[i].run);
      if (!res.reports[i].ok) {
        r.seed = res.reports[i].seed;
        r.outcome = RunOutcome::kCrashed;
        r.violations.push_back("run threw: " + res.reports[i].error);
      }
      for (const auto& [k, v] : res.results[i].counts) counts[k] += v;
      runs.push_back(std::move(r));
    }
    SetResult out = summarize(runs);
    for (const ChaosRunResult& r : runs) {
      counts["dash.chunks"] += r.chunks_delivered;
      counts["dash.stalls"] += r.stalls;
      counts["mptcp.reinjected"] += r.reinjected_packets;
      counts["mptcp.subflow_failures"] += r.subflow_failures;
      counts["http.retries"] += r.http_retries;
      counts["http.timeouts"] += r.http_timeouts;
      counts["fault.injected"] += r.faults_started;
    }
    out.counts = std::move(counts);
    out.runner_wall_s = res.stats.wall_s;
    out.runner_sum_s = res.stats.run_wall_sum_s;
    out.runner_runs = res.stats.runs;
    return out;
  }

  SetResult summarize(const std::vector<ChaosRunResult>& runs) const {
    SetResult out;
    out.sessions = static_cast<int>(runs.size());
    std::vector<RollupRow> rows;
    for (const ChaosRunResult& r : runs) {
      if (!r.ok()) ++out.failed;
      out.digest_text += r.fingerprint();
      out.digest_text += '\n';
      if (r.has_attribution) rows.push_back(r.attribution);
    }
    out.digest_text += rollup_to_csv(rows);
    return out;
  }

  ChaosConfig config_;
};

}  // namespace

std::vector<mpdash::TraceRecord> stream_span_records(std::uint64_t seed) {
  Telemetry telemetry;
  TraceCollector collector;
  TypeFilterSink filter(&collector, span_model_trace_mask());
  telemetry.add_sink(&filter);
  stream_session(hotel_hi(derive_stream_seed(seed, "stream/0")),
                 seconds(1800.0), &telemetry);
  telemetry.remove_sink(&filter);
  return collector.take();
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "stream") return std::make_unique<StreamWorkload>(seed);
  if (name == "fleet256") return std::make_unique<FleetWorkload>(seed);
  if (name == "chaos50") return std::make_unique<ChaosWorkload>(seed);
  return nullptr;
}

}  // namespace mpbench
