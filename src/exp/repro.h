#pragma once
// Repro bundles: a self-contained JSON description of one failing run —
// a chaos session or a whole fleet — with the exact fault plan, the seed,
// and the violation strings the campaign observed. Both kinds share one
// envelope, one loader, one replay and one shrinker: `mpdash_sim repro
// <bundle>` replays either kind through the identical campaign code path
// (run_chaos_single or run_fleet) and verifies the same outcome and the
// same violation strings reproduce bitwise; the shrinker uses the same
// replay as its delta-debugging oracle.
//
// Serialization is canonical (fixed field order, integer-ns times,
// shortest-round-trip doubles), so serialize → parse → re-serialize is
// bitwise stable and minimized bundles can be compared as strings.

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "exp/chaos.h"
#include "exp/fleet.h"
#include "fault/fault.h"

namespace mpdash {

// The run a chaos bundle describes: one session resolved per seed from
// `spec`, streaming the chaos video of `chunk_count` chunks.
struct ChaosRun {
  SessionSpec spec;
  int chunk_count = 30;

  friend bool operator==(const ChaosRun&, const ChaosRun&) = default;
};

struct ReproBundle {
  std::uint64_t seed = 0;
  // What ran, selected by the JSON "kind" marker. A fleet's `seed` and
  // `faults` fields are ignored: the bundle's seed and plan govern.
  std::variant<ChaosRun, FleetConfig> run;
  FaultPlan plan;
  // What the originating run observed; replay verifies against these.
  RunOutcome outcome = RunOutcome::kViolation;
  std::string hung_reason;
  std::vector<std::string> expected_violations;
};

// Canonical serialization (see header comment). The loader accepts the
// current schema (2) only and rejects descriptions that cannot run
// (chunk_count or fleet sessions below 1).
std::string repro_bundle_to_json(const ReproBundle& b);
bool repro_bundle_from_json(const std::string& text, ReproBundle* out,
                            std::string* error);

// File I/O. write_ creates the parent directory on demand.
bool write_repro_bundle(const ReproBundle& b, const std::string& path,
                        std::string* error);
bool load_repro_bundle(const std::string& path, ReproBundle* out,
                       std::string* error);

// The per-seed bundle filename campaigns emit: <dir>/repro_<seed>.json.
std::string repro_bundle_path(const std::string& dir, std::uint64_t seed);

// Writes `b` to repro_bundle_path(dir, b.seed), reporting a failure on
// stderr — the one emission point of the chaos and fleet campaigns.
void emit_repro_bundle(const std::string& dir, const ReproBundle& b);

// What one run of a bundle observed, for either kind.
struct ReplayRun {
  RunOutcome outcome = RunOutcome::kOk;
  std::string hung_reason;
  std::vector<std::string> violations;
  std::string fingerprint;  // the run result's one-line digest
};

// Runs the bundle's description under its seed and plan on `telemetry`
// (run_chaos_single or run_fleet). An exception becomes the kCrashed
// "run threw: <what>" shape the campaigns report.
ReplayRun run_repro_bundle(const ReproBundle& b, Telemetry& telemetry);

struct ReplayResult {
  ReplayRun run;
  bool matches = false;  // outcome + violation strings bitwise identical
  std::vector<std::string> mismatches;  // human-readable diff when not
};

// Runs the bundle on a fresh Telemetry and compares against its
// expectations.
ReplayResult replay_repro_bundle(const ReproBundle& b);

}  // namespace mpdash
