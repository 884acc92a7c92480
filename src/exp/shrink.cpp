#include "exp/shrink.h"

#include <algorithm>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "runner/campaign.h"

namespace mpdash {

std::string violation_kind(const std::string& violation) {
  // run_fleet prefixes each tenant's audit with "session <i>: "; which
  // tenant failed is run-specific detail, like the counts below.
  std::string_view v = violation;
  constexpr std::string_view kTenant = "session ";
  if (v.starts_with(kTenant)) {
    std::size_t i = kTenant.size();
    while (i < v.size() && v[i] >= '0' && v[i] <= '9') ++i;
    if (i > kTenant.size() && v.substr(i, 2) == ": ") v.remove_prefix(i + 2);
  }
  struct KindRule {
    const char* needle;
    const char* key;
  };
  // Prefix rules: the stable head of each invariant-failure message (the
  // tail carries run-specific counts the shrinker must not pin).
  static constexpr KindRule kPrefix[] = {
      {"session hung", "session hung"},
      {"manifest failed", "manifest failed"},
      {"chunk accounting", "chunk accounting"},
      {"byte accounting server->client", "byte accounting server->client"},
      {"byte accounting client->server", "byte accounting client->server"},
      {"reinjection backlog", "reinjection backlog"},
      {"fault windows still open", "fault windows still open"},
      {"counter ", "counter mismatch"},
      {"subflow-failure counters", "counter mismatch"},
      {"reinjection counters", "counter mismatch"},
      {"run threw", "run threw"},
      {"retry budget exceeded", "retry budget exceeded"},
  };
  // Substring rules: messages that lead with a run-specific value.
  static constexpr KindRule kSubstr[] = {
      {"had no attachable target", "fault target missing"},
      {"reopened after close", "span reopened"},
      {"delivered to dead span", "dead span response"},
  };
  for (const KindRule& r : kPrefix) {
    if (v.starts_with(r.needle)) return r.key;
  }
  for (const KindRule& r : kSubstr) {
    if (v.find(r.needle) != std::string_view::npos) return r.key;
  }
  return std::string(v);
}

std::string violation_signature(RunOutcome outcome,
                                const std::vector<std::string>& violations,
                                bool strict) {
  std::set<std::string> keys;
  for (const std::string& v : violations) {
    keys.insert(strict ? v : violation_kind(v));
  }
  std::string out = to_string(outcome);
  for (const std::string& k : keys) {
    out += '|';
    out += k;
  }
  return out;
}

namespace {

// The time limit the bundle's run kind has: the session's or the fleet's.
Duration& time_limit_of(ReproBundle& b) {
  if (ChaosRun* chaos = std::get_if<ChaosRun>(&b.run)) {
    return chaos->spec.time_limit;
  }
  return std::get<FleetConfig>(b.run).time_limit;
}

// The delta-debugging oracle: every candidate replays through
// run_repro_bundle; candidate batches go through the parallel campaign
// runner and acceptance is always the first interesting candidate in
// batch order (add-order result slots), so shrinking is deterministic for
// any jobs count.
struct Oracle {
  const ShrinkConfig& cfg;
  std::uint64_t seed;
  std::string target;
  int sim_runs = 0;

  bool interesting(const ReplayRun& r) const {
    return violation_signature(r.outcome, r.violations, cfg.strict) == target;
  }

  bool check(const ReproBundle& candidate) {
    ++sim_runs;
    Telemetry telemetry;
    return interesting(run_repro_bundle(candidate, telemetry));
  }

  // Index of the first interesting candidate, or -1.
  int first_interesting(const std::vector<ReproBundle>& candidates) {
    Campaign<char> campaign("shrink", seed);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const ReproBundle& candidate = candidates[i];
      campaign.add("cand/" + std::to_string(i),
                   [this, &candidate](RunContext& ctx) {
                     return interesting(
                                run_repro_bundle(candidate, ctx.telemetry))
                                ? char(1)
                                : char(0);
                   });
    }
    CampaignOptions opts;
    opts.jobs = cfg.jobs;
    opts.progress = nullptr;
    CampaignResult<char> res = campaign.run(opts);
    sim_runs += static_cast<int>(candidates.size());
    for (std::size_t i = 0; i < res.results.size(); ++i) {
      if (res.results[i] == 1) return static_cast<int>(i);
    }
    return -1;
  }
};

// `base` with its plan cut down to the events at `idx`.
ReproBundle with_events(const ReproBundle& base, const std::vector<int>& idx) {
  ReproBundle b = base;
  b.plan.events.clear();
  for (int i : idx) b.plan.events.push_back(base.plan.events[i]);
  return b;
}

std::vector<std::vector<int>> split_chunks(const std::vector<int>& v, int n) {
  std::vector<std::vector<int>> out;
  const int sz = static_cast<int>(v.size());
  for (int i = 0; i < n; ++i) {
    const int begin = i * sz / n;
    const int end = (i + 1) * sz / n;
    if (end > begin) {
      out.emplace_back(v.begin() + begin, v.begin() + end);
    }
  }
  return out;
}

// One step of a fault magnitude toward benign; false when there is no
// meaningful smaller value for this kind.
bool benign_step(FaultEvent* e) {
  switch (e->kind) {
    case FaultKind::kRttSpike:  // extra delay in ms → halve
      if (e->value <= 1.0) return false;
      e->value /= 2.0;
      return true;
    case FaultKind::kFlap:  // down-phase seconds → halve
      if (e->value <= 0.2) return false;
      e->value /= 2.0;
      return true;
    case FaultKind::kRateCollapse: {  // rate scale → toward 1.0 (no-op)
      const double next = std::min(1.0, e->value * 2.0);
      if (next == e->value) return false;
      e->value = next;
      return true;
    }
    default:  // blackout/loss-burst/server faults have no magnitude dial
      return false;
  }
}

}  // namespace

ShrinkResult shrink_repro_bundle(const ReproBundle& bundle,
                                 const ShrinkConfig& cfg) {
  ShrinkResult res;
  res.initial_events = static_cast<int>(bundle.plan.events.size());
  res.minimized = bundle;
  res.final_events = res.initial_events;

  auto logln = [&res, &cfg](const std::string& line) {
    res.log += line;
    res.log += '\n';
    if (cfg.progress != nullptr) {
      std::fprintf(cfg.progress, "%s\n", line.c_str());
    }
  };

  Oracle oracle{cfg, bundle.seed, "", 0};

  // Baseline: the stored plan must still provoke a failure, and its
  // signature becomes the oracle target.
  ReplayRun base;
  {
    ++oracle.sim_runs;
    Telemetry telemetry;
    base = run_repro_bundle(bundle, telemetry);
  }
  oracle.target = violation_signature(base.outcome, base.violations,
                                      cfg.strict);
  logln("baseline: " + std::to_string(res.initial_events) +
        " events, signature " + oracle.target);
  if (base.outcome == RunOutcome::kOk) {
    logln("baseline run is clean; nothing to shrink");
    res.sim_runs = oracle.sim_runs;
    return res;
  }
  res.reproduced = true;

  // The candidate every accepted step rewrites in place.
  ReproBundle cur = bundle;

  // --- tenant ladder (fleets) ---------------------------------------------
  // First, because every later probe gets cheaper with fewer tenants.
  while (const FleetConfig* fleet = std::get_if<FleetConfig>(&cur.run)) {
    if (fleet->sessions <= 1) break;
    ReproBundle trial = cur;
    std::get<FleetConfig>(trial.run).sessions = fleet->sessions / 2;
    if (!oracle.check(trial)) break;
    ++res.steps;
    logln("tenants: " + std::to_string(fleet->sessions) + " -> " +
          std::to_string(fleet->sessions / 2));
    cur = std::move(trial);
  }

  // --- ddmin over event indices -----------------------------------------
  // Quick exit: if the failure does not need faults at all, the minimal
  // plan is empty and ddmin has nothing to do.
  if (!cur.plan.events.empty() && oracle.check(with_events(cur, {}))) {
    cur.plan.events.clear();
    ++res.steps;
    logln("ddmin: empty plan still reproduces; dropping all events");
  }
  std::vector<int> current(cur.plan.events.size());
  for (std::size_t i = 0; i < current.size(); ++i) {
    current[i] = static_cast<int>(i);
  }
  int granularity = 2;
  while (static_cast<int>(current.size()) >= 2) {
    const std::vector<std::vector<int>> chunks =
        split_chunks(current, granularity);
    std::vector<ReproBundle> candidates;
    std::vector<std::vector<int>> cand_idx;
    // Subsets first, then (for granularity > 2) complements — classic
    // ddmin candidate order.
    for (const std::vector<int>& c : chunks) {
      candidates.push_back(with_events(cur, c));
      cand_idx.push_back(c);
    }
    const std::size_t subset_count = candidates.size();
    if (granularity > 2) {
      for (const std::vector<int>& c : chunks) {
        std::vector<int> complement;
        std::set_difference(current.begin(), current.end(), c.begin(),
                            c.end(), std::back_inserter(complement));
        candidates.push_back(with_events(cur, complement));
        cand_idx.push_back(std::move(complement));
      }
    }
    const int hit = oracle.first_interesting(candidates);
    ++res.steps;
    if (hit >= 0) {
      const bool was_subset = static_cast<std::size_t>(hit) < subset_count;
      logln("ddmin: " + std::to_string(current.size()) + " -> " +
            std::to_string(cand_idx[hit].size()) + " events (" +
            (was_subset ? "subset" : "complement") + " " +
            std::to_string(hit % subset_count + 1) + "/" +
            std::to_string(subset_count) + ")");
      current = std::move(cand_idx[hit]);
      granularity = was_subset ? 2 : std::max(granularity - 1, 2);
      continue;
    }
    if (granularity < static_cast<int>(current.size())) {
      granularity =
          std::min(static_cast<int>(current.size()), granularity * 2);
      continue;
    }
    break;
  }
  // Size-1 tail ddmin cannot reach: try dropping the last event.
  if (current.size() == 1 && oracle.check(with_events(cur, {}))) {
    current.clear();
    ++res.steps;
    logln("ddmin: last event unnecessary; dropping it");
  }
  cur = with_events(cur, current);
  logln("ddmin done: " + std::to_string(res.initial_events) + " -> " +
        std::to_string(cur.plan.events.size()) + " events");

  // --- attribute ladders (serial, order-deterministic) ------------------
  const Duration duration_floor = seconds(0.1);
  for (std::size_t i = 0; i < cur.plan.events.size(); ++i) {
    while (cur.plan.events[i].duration > duration_floor) {
      const Duration half =
          std::max(cur.plan.events[i].duration / 2, duration_floor);
      ReproBundle trial = cur;
      trial.plan.events[i].duration = half;
      if (!oracle.check(trial)) break;
      ++res.steps;
      logln("duration: event " + std::to_string(i) + " " +
            std::to_string(cur.plan.events[i].duration.count()) + "ns -> " +
            std::to_string(half.count()) + "ns");
      cur = std::move(trial);
    }
  }
  for (std::size_t i = 0; i < cur.plan.events.size(); ++i) {
    for (;;) {
      ReproBundle trial = cur;
      if (!benign_step(&trial.plan.events[i])) break;
      if (!oracle.check(trial)) break;
      ++res.steps;
      logln("value: event " + std::to_string(i) + " " +
            std::to_string(cur.plan.events[i].value) + " -> " +
            std::to_string(trial.plan.events[i].value));
      cur = std::move(trial);
    }
  }
  const Duration horizon_floor = seconds(10.0);
  while (time_limit_of(cur) > horizon_floor) {
    const Duration half = std::max(time_limit_of(cur) / 2, horizon_floor);
    ReproBundle trial = cur;
    time_limit_of(trial) = half;
    if (!oracle.check(trial)) break;
    ++res.steps;
    logln("horizon: time limit " +
          std::to_string(time_limit_of(cur).count()) + "ns -> " +
          std::to_string(half.count()) + "ns");
    cur = std::move(trial);
  }

  // Final run rewrites the bundle's expectations to the minimized run's
  // actual strings, so `mpdash_sim repro minimized.json` verifies bitwise.
  ReplayRun fin;
  {
    ++oracle.sim_runs;
    Telemetry telemetry;
    fin = run_repro_bundle(cur, telemetry);
  }
  res.minimized = std::move(cur);
  res.minimized.outcome = fin.outcome;
  res.minimized.hung_reason = fin.hung_reason;
  res.minimized.expected_violations = fin.violations;
  res.final_events = static_cast<int>(res.minimized.plan.events.size());
  res.sim_runs = oracle.sim_runs;
  logln("final: " + std::to_string(res.final_events) + " events, " +
        std::to_string(res.sim_runs) + " sim runs, " +
        std::to_string(res.steps) + " steps, signature " +
        violation_signature(fin.outcome, fin.violations, cfg.strict));
  return res;
}

}  // namespace mpdash
