#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string_view>

#include "bench.h"

namespace mpbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string fnv1a_hex(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- spans ----------------------------------------------------------------

int SpanRecorder::open(std::string name, int iteration) {
  Span s;
  s.name = std::move(name);
  s.start = now_s();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.iteration = iteration;
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

double SpanRecorder::close(int id) {
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now_s();
  const auto it = std::find(stack_.rbegin(), stack_.rend(), id);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
  return s.end - s.start;
}

std::map<std::string, SpanRecorder::Total> SpanRecorder::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Total> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Total& t = out[spans_[i].name];
    const double d = spans_[i].end - spans_[i].start;
    ++t.count;
    t.total_s += d;
    t.self_s += d - child_s[i];
  }
  return out;
}

std::string SpanRecorder::to_jsonl() const {
  std::string out;
  char buf[512];
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                  "\"end_s\":%.9f,\"parent\":%d,\"iteration\":%d}\n",
                  i, s.name.c_str(), s.start - t0, s.end - t0, s.parent,
                  s.iteration);
    out += buf;
  }
  for (const auto& [name, t] : totals()) {
    std::snprintf(buf, sizeof buf,
                  "{\"summary\":\"%s\",\"count\":%d,\"total_s\":%.9f,"
                  "\"self_s\":%.9f}\n",
                  name.c_str(), t.count, t.total_s, t.self_s);
    out += buf;
  }
  return out;
}

std::string SpanRecorder::summary() const {
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-32s %6s %10s %10s\n", "span", "count",
                "total_s", "self_s");
  std::string out = buf;
  for (const auto& [name, t] : totals()) {
    std::snprintf(buf, sizeof buf, "%-32s %6d %10.4f %10.4f\n", name.c_str(),
                  t.count, t.total_s, t.self_s);
    out += buf;
  }
  return out;
}

// --- counts ---------------------------------------------------------------

void CountingSink::on_record(const mpdash::TraceRecord& r) {
  ++by_type_[static_cast<int>(r.type)];
  if (r.type == mpdash::TraceType::kPacketSend && r.retransmit &&
      r.kind == mpdash::PacketKind::kData) {
    ++retx_sends_;
  }
}

void CountingSink::add_to(Counts& out) const {
  for (int t = 0; t < mpdash::kTraceTypeCount; ++t) {
    out[std::string("telemetry.records.") +
        mpdash::to_string(static_cast<mpdash::TraceType>(t))] +=
        static_cast<double>(by_type_[t]);
  }
  out["tcp.retx"] += static_cast<double>(retx_sends_);
}

namespace {

bool starts_with(std::string_view s, std::string_view p) {
  return s.substr(0, p.size()) == p;
}
bool ends_with(std::string_view s, std::string_view p) {
  return s.size() >= p.size() && s.substr(s.size() - p.size()) == p;
}

}  // namespace

void add_registry_counts(const mpdash::MetricsRegistry& m, Counts& out) {
  const mpdash::MetricsSnapshot snap = m.snapshot(mpdash::kTimeZero);
  for (const mpdash::MetricValue& v : snap.values) {
    const std::string_view n = v.name;
    if (n == "sim.executed_events") {
      out["sim.events"] += v.value;
    } else if (starts_with(n, "link.") && ends_with(n, ".delivered_packets")) {
      out["link.pkts"] += v.value;
    } else if (starts_with(n, "link.") && ends_with(n, ".dropped_packets")) {
      out["link.drops"] += v.value;
    } else if (starts_with(n, "mptcp.") &&
               n.find(".subflow.") != std::string_view::npos &&
               ends_with(n, ".timeouts")) {
      out["tcp.rto"] += v.value;
    } else if (n == "sched.activations") {
      out["core.sched_activations"] += v.value;
    } else if (n == "sched.deadline_misses") {
      out["core.deadline_misses"] += v.value;
    }
  }
}

}  // namespace mpbench
