// Layer drivers: each one times a single layer's public functions on a
// fixed input shape (recorded in mpbench/META.json) and reports host
// nanoseconds per unit of work, the median over kRepeats repeats.

#include <stdexcept>

#include "analysis/spans.h"
#include "bench.h"
#include "exp/scenario.h"
#include "exp/session.h"
#include "http/message.h"
#include "http/parser.h"
#include "link/link.h"
#include "sim/event_loop.h"
#include "util/rng.h"

namespace mpbench {
namespace {

using namespace mpdash;

constexpr int kRepeats = 5;

// --- sim: schedule_at / cancel / run ---------------------------------------
// `tenants` self-rescheduling tick chains, each also holding an RTO-style
// timer that every second tick cancels and re-arms: a third of all
// scheduled timers are cancelled, and about 2 × tenants stay pending.
class TimerDriver {
 public:
  TimerDriver(int tenants, std::uint64_t seed)
      : rng_(seed), rto_(static_cast<std::size_t>(tenants)),
        ticks_(static_cast<std::size_t>(tenants), 0) {
    for (int i = 0; i < tenants; ++i) {
      rto_[static_cast<std::size_t>(i)] = arm_rto();
      schedule_tick(i);
    }
  }

  // Host ns per scheduled timer (schedule + cancel-or-run).
  double measure(std::uint64_t ops) {
    const std::uint64_t start_ops = scheduled_;
    const double t0 = now_s();
    while (scheduled_ - start_ops < ops) {
      loop_.run_until(loop_.now() + milliseconds(1));
    }
    return (now_s() - t0) * 1e9 / static_cast<double>(scheduled_ - start_ops);
  }

 private:
  EventId arm_rto() {
    ++scheduled_;
    return loop_.schedule_in(milliseconds(200), [] {});
  }
  void schedule_tick(int i) {
    ++scheduled_;
    loop_.schedule_in(Duration(rng_.uniform_int(50'000, 1'000'000)),
                      [this, i] { tick(i); });
  }
  void tick(int i) {
    const auto k = static_cast<std::size_t>(i);
    if (++ticks_[k] % 2 == 0) {
      loop_.cancel(rto_[k]);
      rto_[k] = arm_rto();
    }
    schedule_tick(i);
  }

  EventLoop loop_;
  Rng rng_;
  std::vector<EventId> rto_;
  std::vector<int> ticks_;
  std::uint64_t scheduled_ = 0;
};

double sim_driver(int tenants, std::uint64_t seed) {
  std::vector<double> v;
  TimerDriver d(tenants, seed);
  d.measure(50'000);  // warm the heap and callback table
  for (int r = 0; r < kRepeats; ++r) v.push_back(d.measure(200'000));
  return median(v);
}

// --- link: closed-loop packet sources on one Link ---------------------------
// `flows` sources keep `window` 1500-byte data packets each in flight on a
// 100 Mbit/s, 5 ms link; every delivery sends the flow's next packet.
struct LinkRun {
  double ns_per_pkt = 0.0;
  double events_per_pkt = 0.0;
};

LinkRun link_once(QueueDiscipline discipline, int flows, int window,
                  std::uint64_t packets, std::uint64_t seed) {
  EventLoop loop;
  LinkConfig lc;
  lc.name = "driver";
  lc.rate = BandwidthTrace::constant(DataRate::mbps(100.0));
  lc.propagation_delay = milliseconds(5);
  lc.queue_capacity = static_cast<Bytes>(flows) * window * 1500 * 2;
  lc.loss_seed = seed;
  lc.discipline = discipline;
  Link link(loop, lc);

  std::uint64_t sent = 0, delivered = 0;
  auto send = [&](int flow) {
    Packet p;
    p.id = loop.allocate_id();
    p.flow = flow;
    p.wire_size = 1500;
    p.payload_len = 1448;
    p.data_seq = sent * 1448;
    p.segments.push_back(SegmentRef{nullptr, 0, 1448, 0});
    ++sent;
    link.send(std::move(p));
  };
  link.set_deliver_handler([&](Packet p) {
    ++delivered;
    if (sent < packets) send(p.flow);
  });
  const double t0 = now_s();
  for (int w = 0; w < window; ++w) {
    for (int f = 0; f < flows; ++f) send(f);
  }
  loop.run();
  const double dt = now_s() - t0;
  if (delivered != packets || link.dropped_packets() != 0) {
    throw std::runtime_error("link driver lost packets");
  }
  return {dt * 1e9 / static_cast<double>(delivered),
          static_cast<double>(loop.executed_events()) /
              static_cast<double>(delivered)};
}

LinkRun link_driver(QueueDiscipline discipline, int flows, int window,
                    std::uint64_t seed) {
  std::vector<double> ns, ev;
  for (int r = 0; r < kRepeats; ++r) {
    const LinkRun run = link_once(discipline, flows, window, 100'000, seed);
    ns.push_back(run.ns_per_pkt);
    ev.push_back(run.events_per_pkt);
  }
  return {median(ns), median(ev)};
}

// --- transport: tcp + mptcp + core on owned links ----------------------------
// run_download_session of 5 MB (MP-DASH deadline 10 s) on a constant
// 3.8 / 3.0 Mbit/s WiFi / LTE scenario: no HTTP player, no DASH.
double transport_driver(std::uint64_t seed) {
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) {
    ScenarioConfig sc =
        constant_scenario(DataRate::mbps(3.8), DataRate::mbps(3.0));
    sc.seed = seed;
    Scenario scenario(std::move(sc));
    DownloadConfig cfg;
    const double t0 = now_s();
    const DownloadResult res = run_download_session(scenario, cfg);
    const double dt = now_s() - t0;
    if (!res.completed) throw std::runtime_error("download did not complete");
    std::size_t pkts = 0;
    for (NetPath* p : scenario.paths()) {
      pkts += p->downlink().delivered_packets() +
              p->uplink().delivered_packets();
    }
    v.push_back(dt * 1e9 / static_cast<double>(pkts));
  }
  return median(v);
}

// --- http: response-head parsing ---------------------------------------------
// A DASH segment response head (Content-Type + Content-Length: 0, so every
// consume completes one message) fed to one long-lived parser.
double http_driver() {
  HttpResponse resp;
  resp.headers.push_back({"Content-Type", "video/iso.segment"});
  const WireData wire = resp.to_wire();
  std::size_t heads = 0;
  HttpStreamParser::Callbacks cb;
  cb.on_response_head = [&heads](const HttpResponse&) { ++heads; };
  HttpStreamParser parser(HttpStreamParser::Mode::kResponses, cb);
  constexpr int kMessages = 100'000;
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < kMessages; ++i) parser.consume(wire);
    v.push_back((now_s() - t0) * 1e9 / kMessages);
  }
  if (!parser.ok() || parser.messages_completed() != heads ||
      heads != static_cast<std::size_t>(kMessages) * kRepeats) {
    throw std::runtime_error("http driver: parser lost messages");
  }
  return median(v);
}

// --- telemetry: emit into a collector sink ---------------------------------
// Packet-delivery records (one payload segment each) emitted through a
// Telemetry context with one TraceCollector attached, cleared every 4096.
double telemetry_driver() {
  Telemetry telemetry;
  TraceCollector collector;
  telemetry.add_sink(&collector);
  TraceRecord rec;
  rec.type = TraceType::kPacketDeliver;
  rec.path_id = 0;
  rec.link_id = 0;
  rec.wire_size = 1500;
  rec.payload_len = 1448;
  rec.segments.push_back(SegmentRef{nullptr, 0, 1448, 0});
  constexpr int kRecords = 200'000;
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now_s();
    for (int i = 0; i < kRecords; ++i) {
      rec.at = TimePoint(i);
      telemetry.emit(rec);
      if (collector.records().size() >= 4096) collector.clear();
    }
    v.push_back((now_s() - t0) * 1e9 / kRecords);
  }
  telemetry.remove_sink(&collector);
  return median(v);
}

// --- analysis: span model + attribution over one stream session ------------
double analysis_driver(const std::vector<TraceRecord>& records) {
  if (records.empty()) throw std::runtime_error("analysis driver: no records");
  std::vector<double> v;
  for (int r = 0; r < kRepeats; ++r) {
    const double t0 = now_s();
    SpanModel model = build_span_model(records);
    attribute_misses(&model, kWifiPathId);
    v.push_back((now_s() - t0) * 1e9 / static_cast<double>(records.size()));
    if (model.records != records.size()) {
      throw std::runtime_error("analysis driver: record count mismatch");
    }
  }
  return median(v);
}

}  // namespace

DriverResults run_drivers(SpanRecorder& spans, std::uint64_t seed) {
  DriverResults d;
  {
    ScopedSpan s(spans, "driver.sim.shallow");
    d.sim_ns_per_op_shallow = sim_driver(4, seed);
  }
  {
    ScopedSpan s(spans, "driver.sim.deep");
    d.sim_ns_per_op_deep = sim_driver(256, seed);
  }
  {
    ScopedSpan s(spans, "driver.link.fifo");
    const LinkRun r = link_driver(QueueDiscipline::kFifo, 2, 32, seed);
    d.link_fifo_ns_per_pkt = r.ns_per_pkt;
    d.link_events_per_pkt = r.events_per_pkt;
  }
  {
    ScopedSpan s(spans, "driver.link.fq");
    d.link_fq_ns_per_pkt =
        link_driver(QueueDiscipline::kFairQueue, 256, 4, seed).ns_per_pkt;
  }
  {
    ScopedSpan s(spans, "driver.transport");
    d.transport_ns_per_pkt = transport_driver(seed);
  }
  {
    ScopedSpan s(spans, "driver.http");
    d.http_parse_ns_per_msg = http_driver();
  }
  {
    ScopedSpan s(spans, "driver.telemetry");
    d.telemetry_emit_ns = telemetry_driver();
  }
  {
    ScopedSpan s(spans, "driver.analysis");
    std::vector<TraceRecord> records;
    {
      ScopedSpan capture(spans, "driver.analysis.capture");
      records = stream_span_records(seed);
    }
    d.analysis_ns_per_record = analysis_driver(records);
  }
  return d;
}

}  // namespace mpbench
