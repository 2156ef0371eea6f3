// pcbench: the end-to-end serving benchmark.
//
// One run builds a workload's store from --seed, serves it through the real
// NetServer on loopback, and drives it from client threads in this process
// (at most 2 connections, one thread each).  Every load is closed loop:
//
//   1. setup, repeated five times (setup_s is the median);
//   2. an unmeasured warm phase, 2 connections x 32 pipelined requests;
//   3. nine latency windows (1 connection, one request outstanding)
//      alternating with nine capacity windows (2 connections x 32
//      pipelined requests).
//
// Each metric is the median over its nine windows.  Every response is
// checked against a brute-force answer.
// `--trace 1` runs the separate traced replay instead and reports the
// per-layer metrics.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// README.md defines the workloads and every metric.

#include <dirent.h>
#include <pthread.h>
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ext_interval_tree.h"
#include "core/ext_segment_tree.h"
#include "core/persist.h"
#include "core/pst_external.h"
#include "core/three_sided.h"
#include "dynamic/dynamic_store.h"
#include "io/file_page_device.h"
#include "io/mem_page_device.h"
#include "io/shared_buffer_pool.h"
#include "json_value.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "serve/query_engine.h"
#include "shard/shard_router.h"
#include "shard/sharded_store.h"
#include "timed_page_device.h"
#include "util/random.h"
#include "workload/generators.h"

namespace pathcache {
namespace pcbench {
namespace {

using net::MsgType;
using net::NetClient;
using net::NetServer;
using net::Request;
using net::Response;

constexpr int64_t kCoordMax = 1'000'000'000;
// update-mix mutates only points below this y; every query candidate's
// y_min lies above it, so query answers stay fixed while updates run.
constexpr int64_t kBandTop = kCoordMax / 2;
constexpr uint32_t kCandidates = 256;  // per query kind
constexpr uint32_t kConnections = 2;
constexpr uint32_t kDepth = 32;  // pipelined requests per connection
constexpr int kWindows = 9;  // per kind, alternating; odd for a median
constexpr int kSetupReps = 5;
constexpr uint32_t kEngineWorkers = 2;
constexpr uint32_t kShards = 4;
constexpr size_t kQueueCapacity = 256;
constexpr uint64_t kRebuildThreshold = 1024;
constexpr uint32_t kInsertsPerGroup = 4;  // plus as many deletes
constexpr size_t kScriptLength = 1024;
constexpr uint32_t kQuiescenceQueries = 64;

enum Kind { kTwoSided, kThreeSided, kStab, kUpdate, kNumKinds };
constexpr int kQueryKinds = 3;
const char* const kKindName[kNumKinds] = {"two_sided", "three_sided", "stab",
                                          "update"};

enum class Backend { kStatic, kDynamic, kSharded };

struct Spec {
  const char* name;
  Backend backend;
  uint64_t points;        // ExternalPst (update-mix: DynamicStore; sharded)
  uint64_t three_points;  // ThreeSidedPst, 0 = none
  uint64_t intervals;     // stabbing: ExtIntervalTree (sharded: segment tree)
  double target;          // wanted mean records per answer
  uint64_t pool_pages;
  int mix[kNumKinds];     // percent of requests per kind
};

// Why each workload exists (README.md has the long form):
//  hot-small    pool larger than the store: fixed per-request costs (codec,
//               epoll, queue, pool hit path, in-page kernels) dominate.
//  cold-scan    pool ~0.7% of the store, ~2k-record answers: misses,
//               FilePageDevice reads and block-chain scans dominate.
//  update-mix   90% queries beside 10% durable 8-mutation groups: WAL
//               group commit, overlay merge, background rebuild + publish.
//  shard-fanout hot-small's 2-sided and stab data on 4 shards: the only
//               workload that crosses scatter-gather and merge.
constexpr Spec kSpecs[] = {
    {"hot-small", Backend::kStatic, 200'000, 50'000, 100'000, 100, 1 << 16,
     {40, 30, 30, 0}},
    {"cold-scan", Backend::kStatic, 250'000, 60'000, 0, 2000, 256,
     {50, 50, 0, 0}},
    {"update-mix", Backend::kDynamic, 100'000, 0, 0, 100, 1 << 16,
     {90, 0, 0, 10}},
    {"shard-fanout", Backend::kSharded, 200'000, 0, 100'000, 100, 1 << 16,
     {50, 0, 50, 0}},
};
constexpr uint64_t kSmokeDivisor = 20;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},  {"p50_us", "us"},  {"p99_us", "us"},
      {"qps", "req/s"},  {"rss_mb", "MiB"}, {"space_amp", "ratio"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"net.tcp_p50_us", "us"},
        {"net.self_us", "us"},
        {"net.client_codec_us", "us"},
        {"net.bytes_out_per_req", "B"},
        {"net.read_pauses", "count"},
        {"serve.submit_to_done_p50_us", "us"},
        {"serve.submit_to_done_p99_us", "us"},
        {"serve.self_us", "us"},
        {"serve.max_queue_depth", "count"},
        {"core.direct_p50_us", "us"},
    };
    for (int k = 0; k < kQueryKinds; ++k) {
      const std::string p = std::string("core.") + kKindName[k] + ".";
      d.push_back({p + "query_us", "us"});
      d.push_back({p + "reads_per_query", "count"});
      d.push_back({p + "nav_reads", "count"});
      d.push_back({p + "cache_reads", "count"});
      d.push_back({p + "list_reads", "count"});
      d.push_back({p + "useful_ratio", "ratio"});
      d.push_back({p + "records_per_query", "count"});
    }
    const std::vector<MetricDef> rest = {
        {"io.pool.hit_ratio", "ratio"},
        {"io.pool.us_per_query", "us"},
        {"io.pool.evictions_per_query", "count"},
        {"io.pool.async_submits_per_query", "count"},
        {"io.dev.reads_per_query", "count"},
        {"io.dev.syscalls_per_query", "count"},
        {"io.dev.us_per_query", "us"},
        {"io.dev.uring_batches_per_query", "count"},
        {"dynamic.update_p50_us", "us"},
        {"dynamic.update_p99_us", "us"},
        {"dynamic.sync_p50_us", "us"},
        {"dynamic.sync_p99_us", "us"},
        {"dynamic.syncs_per_group", "count"},
        {"dynamic.write_amp", "ratio"},
        {"dynamic.rebuilds_per_1k_groups", "count"},
        {"dynamic.rebuild_ms", "ms"},
        {"dynamic.read_repins_per_1k_queries", "count"},
        {"shard.fanout", "count"},
        {"shard.slowest_slice_us", "us"},
        {"shard.gather_us", "us"},
        {"trace.overhead_pct", "%"},
    };
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return defs;
}

// --- failures ----------------------------------------------------------------

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "pcbench: FATAL %s\n", what.c_str());
  std::exit(1);
}

void Check(const Status& s, const char* what) {
  if (!s.ok()) Fatal(std::string(what) + ": " + s.ToString());
}

template <typename T>
T Value(Result<T> r, const char* what) {
  if (!r.ok()) Fatal(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// --- answers -----------------------------------------------------------------

uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Order-independent fingerprint of an answer: record count plus the
/// wrapping sum of a per-record hash.  The server may return records in any
/// order, so responses are compared through this.
struct Answer {
  uint64_t count = 0;
  uint64_t hash = 0;

  void Add(int64_t a, int64_t b, uint64_t id) {
    ++count;
    hash += Mix64(static_cast<uint64_t>(a) ^
                  Mix64(static_cast<uint64_t>(b) ^ Mix64(id)));
  }
  friend bool operator==(const Answer&, const Answer&) = default;
};

Answer Of(const std::vector<Point>& pts) {
  Answer a;
  for (const Point& p : pts) a.Add(p.x, p.y, p.id);
  return a;
}

Answer Of(const std::vector<Interval>& ivs) {
  Answer a;
  for (const Interval& iv : ivs) a.Add(iv.lo, iv.hi, iv.id);
  return a;
}

// --- inputs ------------------------------------------------------------------

struct Candidate {
  Request req;
  Answer expect;
};

struct Inputs {
  Spec spec;
  uint64_t seed = 0;
  std::vector<Point> points;
  std::vector<Point> three_points;
  std::vector<Interval> intervals;
  std::vector<Candidate> cand[kQueryKinds];
  uint32_t structure_id[kQueryKinds] = {0, 0, 0};

  uint64_t records() const {
    return points.size() + three_points.size() + intervals.size();
  }
};

uint64_t Derive(uint64_t seed, uint64_t stream) {
  return Mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

uint64_t StructureSize(const Spec& s, int kind) {
  switch (kind) {
    case kTwoSided: return s.points;
    case kThreeSided: return s.three_points;
    case kStab: return s.intervals;
    default: return 0;
  }
}

/// Mean answer size a kind's candidates aim at: the workload's target,
/// capped at 5% of the structure so scaled-down smoke inputs stay sane.
double TargetFor(const Spec& s, int kind) {
  return std::min(s.target, static_cast<double>(StructureSize(s, kind)) / 20);
}

// The candidate shapes assume uniform points over [0, kCoordMax]^2, so the
// expected answer of each is n * (area share) = the target.
Request MakeQuery(const Inputs& in, int kind, Rng* rng) {
  const double n = static_cast<double>(StructureSize(in.spec, kind));
  const double t = TargetFor(in.spec, kind);
  const double L = static_cast<double>(kCoordMax);
  Request r;
  r.structure_id = in.structure_id[kind];
  if (kind == kTwoSided) {
    // x_min in the lower three quarters: on shard-fanout's four equal-count
    // shards a query covers 2 to 4 of them.
    const double u = 0.25 + 0.75 * rng->NextDouble();
    const double v = std::min(1.0, t / (n * u));
    r.type = MsgType::kQueryTwoSided;
    r.two_sided = TwoSidedQuery{static_cast<int64_t>(L * (1 - u)),
                                static_cast<int64_t>(L * (1 - v))};
  } else if (kind == kThreeSided) {
    const double w_lo = std::max(0.05, 2 * t / n);
    const double w = w_lo + (0.5 - w_lo) * rng->NextDouble();
    const double v = std::min(1.0, t / (n * w));
    const int64_t width = static_cast<int64_t>(L * w);
    const int64_t x1 = rng->UniformRange(0, kCoordMax - width);
    r.type = MsgType::kQueryThreeSided;
    r.three_sided =
        ThreeSidedQuery{x1, x1 + width, static_cast<int64_t>(L * (1 - v))};
  } else {
    // MakeEndpointsDistinct re-spaces endpoints into [0, 4n): stab keys are
    // drawn there, away from the thin edges.
    const int64_t domain = static_cast<int64_t>(4 * in.intervals.size());
    r.type = MsgType::kQueryStab;
    r.stab = rng->UniformRange(domain / 20, domain - domain / 20);
  }
  return r;
}

Answer BruteForce(const Inputs& in, int kind, const Request& r) {
  Answer a;
  if (kind == kTwoSided) {
    for (const Point& p : in.points) {
      if (r.two_sided.Contains(p)) a.Add(p.x, p.y, p.id);
    }
  } else if (kind == kThreeSided) {
    for (const Point& p : in.three_points) {
      if (r.three_sided.Contains(p)) a.Add(p.x, p.y, p.id);
    }
  } else {
    for (const Interval& iv : in.intervals) {
      if (iv.Contains(r.stab)) a.Add(iv.lo, iv.hi, iv.id);
    }
  }
  return a;
}

Inputs MakeInputs(const Spec& spec, uint64_t seed) {
  Inputs in;
  in.spec = spec;
  in.seed = seed;
  if (spec.points > 0) {
    PointGenOptions o;
    o.n = spec.points;
    o.seed = Derive(seed, 1);
    in.points = GenPointsUniform(o);
  }
  if (spec.three_points > 0) {
    PointGenOptions o;
    o.n = spec.three_points;
    o.seed = Derive(seed, 2);
    in.three_points = GenPointsUniform(o);
  }
  if (spec.intervals > 0) {
    IntervalGenOptions o;
    o.n = spec.intervals;
    o.seed = Derive(seed, 3);
    o.mean_len_frac = TargetFor(spec, kStab) / static_cast<double>(o.n);
    in.intervals = GenIntervalsUniform(o);
    MakeEndpointsDistinct(&in.intervals);
  }
  uint32_t next_id = 0;
  Rng rng(Derive(seed, 4));
  for (int k = 0; k < kQueryKinds; ++k) {
    if (StructureSize(spec, k) == 0) continue;
    in.structure_id[k] = next_id++;
    double total = 0;
    for (uint32_t i = 0; i < kCandidates; ++i) {
      Candidate c;
      c.req = MakeQuery(in, k, &rng);
      c.expect = BruteForce(in, k, c.req);
      total += static_cast<double>(c.expect.count);
      if (spec.backend == Backend::kDynamic && c.req.two_sided.y_min < kBandTop) {
        Fatal("update-mix candidate reaches into the update band");
      }
      in.cand[k].push_back(std::move(c));
    }
    // The answer-size band each kind must land in; a generator that drifts
    // out of it (as out-of-domain stab keys once did) stops the run.
    const double mean = total / kCandidates;
    const double t = TargetFor(spec, k);
    std::printf("inputs: %-11s n=%" PRIu64 " candidates=%u mean answer %.1f "
                "(target %.0f)\n",
                kKindName[k], StructureSize(spec, k), kCandidates, mean, t);
    if (mean < t / 2 || mean > t * 2) {
      Fatal(std::string(kKindName[k]) + " mean answer size out of band");
    }
  }
  return in;
}

// --- request streams ---------------------------------------------------------

struct Pending {
  int kind = kTwoSided;
  const Candidate* cand = nullptr;  // queries
  Request update;                   // update groups
  uint64_t id = 0;                  // wire request id
  uint64_t sent_ns = 0;

  const Request& request() const { return cand != nullptr ? cand->req : update; }
};

struct Slot {
  int kind = kTwoSided;
  uint32_t cand = 0;
};

/// A request kind drawn by the workload's mix, and a candidate.
Slot DrawSlot(const Spec& spec, Rng* rng) {
  Slot s;
  int r = static_cast<int>(rng->Uniform(100));
  for (int k = 0; k < kNumKinds; ++k) {
    if (r < spec.mix[k]) {
      s.kind = k;
      break;
    }
    r -= spec.mix[k];
  }
  s.cand = static_cast<uint32_t>(rng->Uniform(kCandidates));
  return s;
}

/// The fixed request sequence the traced stages replay.
std::vector<Slot> MakeScript(const Inputs& in) {
  Rng rng(Derive(in.seed, 5));
  std::vector<Slot> script(kScriptLength);
  for (Slot& s : script) s = DrawSlot(in.spec, &rng);
  return script;
}

/// One client's request stream.  On update-mix a lane also owns a share of
/// the update band: it inserts fresh points there and deletes only points
/// whose presence was acknowledged, so concurrent lanes never race on one
/// record and the expected store content is always known.  A lane is
/// driven by one thread at a time.
class Lane {
 public:
  Lane(const Inputs* in, uint32_t index)
      : in_(in),
        rng_(Derive(in->seed, 16 + index)),
        next_item_id_((uint64_t{1} << 40) + index) {
    if (in->spec.backend != Backend::kDynamic) return;
    for (const Point& p : in->points) {
      if (p.y < kBandTop && p.id % kConnections == index) {
        live_.push_back(DynamicItem::From(p));
      }
    }
  }

  /// Replays `script` cyclically instead of drawing at random (nullptr
  /// returns to random draws).  The script must outlive its use.
  void SetScript(const std::vector<Slot>* script) {
    script_ = script;
    script_pos_ = 0;
  }

  Pending Next() {
    return Make(script_ != nullptr ? (*script_)[script_pos_++ % script_->size()]
                                   : DrawSlot(in_->spec, &rng_));
  }

  Pending Make(Slot s) {
    Pending p;
    p.kind = s.kind;
    if (s.kind != kUpdate) {
      p.cand = &in_->cand[s.kind][s.cand];
      return p;
    }
    Request& r = p.update;
    r.type = MsgType::kUpdateGroup;
    r.structure_id = in_->structure_id[kTwoSided];
    for (uint32_t i = 0; i < kInsertsPerGroup; ++i) {
      const DynamicItem item{rng_.UniformRange(0, kCoordMax),
                             rng_.UniformRange(0, kBandTop - 1),
                             next_item_id_};
      next_item_id_ += kConnections;
      r.updates.push_back({UpdateOp::kInsert, item});
    }
    for (uint32_t i = 0; i < kInsertsPerGroup && !live_.empty(); ++i) {
      const size_t k = rng_.Uniform(live_.size());
      r.updates.push_back({UpdateOp::kDelete, live_[k]});
      live_[k] = live_.back();
      live_.pop_back();
    }
    return p;
  }

  /// Checks a wire response against what `p` must return.
  bool Complete(const Pending& p, const Response& r) {
    if (p.kind == kUpdate) {
      return Acked(p, r.type == MsgType::kUpdateAck &&
                          r.applied == p.update.updates.size());
    }
    if (p.kind == kStab) {
      return r.type == MsgType::kIntervals && Of(r.intervals) == p.cand->expect;
    }
    return r.type == MsgType::kPoints && Of(r.points) == p.cand->expect;
  }

  /// Same check for an in-process or direct result.
  bool Complete(const Pending& p, const QueryResult& r) {
    if (p.kind == kUpdate) return Acked(p, r.status.ok());
    if (!r.status.ok()) return false;
    return (p.kind == kStab ? Of(r.intervals) : Of(r.points)) == p.cand->expect;
  }

  const std::vector<DynamicItem>& live() const { return live_; }
  uint64_t acked_groups() const { return acked_groups_; }

 private:
  bool Acked(const Pending& p, bool ok) {
    if (!ok) return false;
    for (const DynamicUpdate& u : p.update.updates) {
      if (u.op == UpdateOp::kInsert) live_.push_back(u.item);
    }
    ++acked_groups_;
    return true;
  }

  const Inputs* in_;
  Rng rng_;
  uint64_t next_item_id_;
  std::vector<DynamicItem> live_;
  uint64_t acked_groups_ = 0;
  const std::vector<Slot>* script_ = nullptr;
  size_t script_pos_ = 0;
};

// --- closed-loop windows -----------------------------------------------------

/// One timed stretch of closed-loop load.
struct Window {
  std::vector<uint64_t> latency_ns;  // every request, queries and updates
  std::vector<uint64_t> update_ns;   // update groups alone
  uint64_t completed = 0;            // responses that arrived in the window
  double seconds = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Merge(const Window& o) {
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    update_ns.insert(update_ns.end(), o.update_ns.begin(), o.update_ns.end());
    completed += o.completed;
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Drives one connection with `depth` requests outstanding until `end_ns`,
/// then drains; only responses arriving before `end_ns` count toward the
/// window.  Failures: error / RETRY_AFTER / protocol responses, wrong
/// answers, and every request lost with the connection.
void DriveConnection(uint16_t port, Lane* lane, uint32_t depth,
                     uint64_t end_ns, bool record, Window* out) {
  NetClient client;
  if (!client.Connect("127.0.0.1", port).ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  std::deque<Pending> inflight;
  uint64_t next_id = 1;  // NetClient numbers unstamped requests from 1
  bool open = true;
  auto send = [&] {
    Pending p = lane->Next();
    p.id = next_id++;
    ++out->attempted;
    p.sent_ns = NowNs();
    if (!client.Send(p.request()).ok()) {
      ++out->failed;
      return false;
    }
    inflight.push_back(std::move(p));
    return true;
  };
  while (open && inflight.size() < depth && NowNs() < end_ns) open = send();
  while (!inflight.empty()) {
    Response resp;
    if (!client.Receive(&resp).ok()) {
      out->failed += inflight.size();
      return;
    }
    const uint64_t now = NowNs();
    const Pending p = std::move(inflight.front());
    inflight.pop_front();
    const bool ok = resp.request_id == p.id && lane->Complete(p, resp);
    if (!ok) ++out->failed;
    if (now < end_ns) {
      ++out->completed;
      if (record && ok) {
        out->latency_ns.push_back(now - p.sent_ns);
        if (p.kind == kUpdate) out->update_ns.push_back(now - p.sent_ns);
      }
    }
    if (open && now < end_ns) open = send();
  }
}

/// One connection per lane, each on its own thread when there are several.
Window RunWindow(uint16_t port, const std::vector<Lane*>& lanes,
                 uint32_t depth, double seconds, bool record) {
  const uint64_t start = NowNs();
  const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<Window> per(lanes.size());
  if (lanes.size() == 1) {
    DriveConnection(port, lanes[0], depth, end, record, &per[0]);
  } else {
    std::vector<std::thread> threads;
    for (size_t i = 0; i < lanes.size(); ++i) {
      threads.emplace_back(DriveConnection, port, lanes[i], depth, end, record,
                           &per[i]);
    }
    for (std::thread& t : threads) t.join();
  }
  Window total;
  total.seconds = static_cast<double>(end - start) / 1e9;
  for (const Window& w : per) total.Merge(w);
  return total;
}

// --- statistics --------------------------------------------------------------

/// Exact nearest-rank percentile: the smallest sample with at least p*n of
/// the samples at or below it.  0 for no samples.
uint64_t NearestRank(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return v[rank - 1];
}

double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

/// Median of an odd-sized list of window values.
double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Prints p50/p99 of `samples` with the sample count, plus (information
/// only) the highest percentile that keeps at least ten samples beyond it.
void PrintLatency(const char* label, const std::vector<uint64_t>& samples) {
  std::printf("%s: p50 %.3f us  p99 %.3f us  (n=%zu)", label,
              Us(NearestRank(samples, 0.50)), Us(NearestRank(samples, 0.99)),
              samples.size());
  if (samples.size() > 10) {
    const double p = static_cast<double>(samples.size() - 10) /
                     static_cast<double>(samples.size());
    std::printf("  p%.4f %.3f us (10 beyond)", 100 * p,
                Us(NearestRank(samples, p)));
  }
  std::printf("\n");
}

// --- CPU placement -----------------------------------------------------------

// Left to the scheduler, a request's thread hand-offs (client -> event loop
// -> worker -> event loop -> client) share one vCPU in some stretches and
// cross vCPUs in others; on a VM a cross-vCPU wakeup exits to the
// hypervisor, and the two placements differ by ~20 us per request.  With at
// least four CPUs the client, the event loop and the engine workers
// (with everything they spawn) get disjoint CPUs, so every run pays the
// same hand-offs.
enum class Role { kClient, kLoop, kWorkers };

/// The first four CPUs this process may run on; fewer means no pinning.
const std::vector<int>& BenchCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return v;
    for (int c = 0; c < CPU_SETSIZE && v.size() < 4; ++c) {
      if (CPU_ISSET(c, &set)) v.push_back(c);
    }
    return v;
  }();
  return cpus;
}

void PinTo(Role role) {
  const std::vector<int>& cpus = BenchCpus();
  if (cpus.size() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  switch (role) {
    case Role::kClient: CPU_SET(cpus[0], &set); break;
    case Role::kLoop: CPU_SET(cpus[1], &set); break;
    case Role::kWorkers:
      CPU_SET(cpus[2], &set);
      CPU_SET(cpus[3], &set);
      break;
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// This process's thread ids.
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  DIR* d = ::opendir("/proc/self/task");
  if (d == nullptr) return ids;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] != '.') ids.push_back(std::atoi(e->d_name));
  }
  ::closedir(d);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Gives every thread started since `before` was taken one of the two
/// worker CPUs of its own, alternating.  Given both to choose from, the
/// scheduler stacked the two engine workers on one CPU in some runs and
/// spread them in others, and capacity moved by ~1.5x between runs.  A
/// background rebuild thread inherits its starting worker's CPU.
void PinNewThreadsToWorkerCpus(const std::vector<pid_t>& before) {
  const std::vector<int>& cpus = BenchCpus();
  if (cpus.size() < 4) return;
  int next = 0;
  for (pid_t tid : ThreadIds()) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[2 + next], &set);
    next ^= 1;
    ::sched_setaffinity(tid, sizeof(set), &set);
  }
}

// --- the served stack --------------------------------------------------------

/// Everything below the network front end.  Static and update-mix stores
/// live in one file behind one SharedBufferPool; shard-fanout's ShardedStore
/// owns one in-memory device and pool per shard.  The timers exist only in
/// the traced run.
struct Store {
  std::string path;
  std::unique_ptr<FilePageDevice> file;
  std::unique_ptr<TimedPageDevice> file_timer;  // pool -> file
  std::unique_ptr<SharedBufferPool> pool;
  std::unique_ptr<TimedPageDevice> pool_timer;  // engine -> pool
  std::vector<PageId> manifests;                // static, by structure id
  std::unique_ptr<DynamicStore> dynamic;
  std::vector<std::unique_ptr<MemPageDevice>> shard_mem;
  std::vector<std::unique_ptr<TimedPageDevice>> shard_timers;  // pool -> dev
  std::unique_ptr<ShardedStore> sharded;

  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;
  ~Store() {
    sharded.reset();
    dynamic.reset();
    pool_timer.reset();
    pool.reset();
    file_timer.reset();
    file.reset();
    if (!path.empty()) ::unlink(path.c_str());
  }
};

std::unique_ptr<Store> BuildStore(const Inputs& in, const std::string& path,
                                  bool timed) {
  PinTo(Role::kWorkers);  // threads the store starts inherit the placement
  auto s = std::make_unique<Store>();
  const Spec& spec = in.spec;
  if (spec.backend == Backend::kSharded) {
    ShardedStoreOptions o;
    o.shards = kShards;
    o.pool_pages_total = spec.pool_pages;
    o.engine_workers = 1;
    o.queue_capacity = kQueueCapacity;
    if (timed) {
      for (uint32_t k = 0; k < kShards; ++k) {
        s->shard_mem.push_back(
            std::make_unique<MemPageDevice>(kDefaultPageSize));
        s->shard_timers.push_back(
            std::make_unique<TimedPageDevice>(s->shard_mem.back().get()));
        o.devices.push_back(s->shard_timers.back().get());
      }
    }
    s->sharded = std::make_unique<ShardedStore>(o);
    Check(s->sharded->AddTwoSided(in.points).ToStatus(), "shard 2-sided");
    Check(s->sharded->AddStabbing(in.intervals).ToStatus(), "shard stab");
    const std::vector<pid_t> before = ThreadIds();
    Check(s->sharded->Start(), "start shards");
    PinNewThreadsToWorkerCpus(before);
    return s;
  }
  s->path = path;
  s->file = Value(FilePageDevice::Create(path), "create store file");
  PageDevice* below = s->file.get();
  if (timed) {
    s->file_timer = std::make_unique<TimedPageDevice>(s->file.get());
    below = s->file_timer.get();
  }
  s->pool = std::make_unique<SharedBufferPool>(below, spec.pool_pages);
  if (timed) s->pool_timer = std::make_unique<TimedPageDevice>(s->pool.get());
  if (spec.backend == Backend::kDynamic) {
    std::vector<DynamicItem> items;
    items.reserve(in.points.size());
    for (const Point& p : in.points) items.push_back(DynamicItem::From(p));
    DynamicStoreOptions d;
    d.rebuild_threshold = kRebuildThreshold;
    d.background_rebuild = true;
    s->dynamic = Value(DynamicStore::Create(s->pool.get(),
                                            DynamicStructure::kExternalPst,
                                            items, d),
                       "create dynamic store");
    return s;
  }
  // Static structures in structure-id order, each clustered, saved and
  // synced the way a deployment would write them.
  SharedBufferPool* pool = s->pool.get();
  if (!in.points.empty()) {
    ExternalPst t(pool);
    Check(t.Build(in.points), "build 2-sided");
    s->manifests.push_back(Value(SaveClusteredDurable(&t, pool), "save 2-sided"));
  }
  if (!in.three_points.empty()) {
    ThreeSidedPst t(pool);
    Check(t.Build(in.three_points), "build 3-sided");
    s->manifests.push_back(Value(SaveClusteredDurable(&t, pool), "save 3-sided"));
  }
  if (!in.intervals.empty()) {
    ExtIntervalTree t(pool);
    Check(t.Build(in.intervals), "build interval tree");
    s->manifests.push_back(
        Value(SaveClusteredDurable(&t, pool), "save interval tree"));
  }
  return s;
}

/// A serving front end over a Store: engine (or router) plus NetServer.
struct Frontend {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<ShardRouter> router;
  std::unique_ptr<NetServer> server;  // destroyed first
  QueryService* service = nullptr;

  uint16_t port() const { return server->port(); }
};

/// `timed` puts the engine on the engine -> pool timer instead of the pool.
std::unique_ptr<Frontend> StartFrontend(Store* s, bool timed) {
  auto f = std::make_unique<Frontend>();
  PinTo(Role::kWorkers);
  if (s->sharded) {
    f->router = std::make_unique<ShardRouter>(s->sharded.get());
    f->service = f->router.get();
  } else {
    QueryEngineOptions o;
    o.num_workers = kEngineWorkers;
    o.queue_capacity = kQueueCapacity;
    PageDevice* dev = timed ? static_cast<PageDevice*>(s->pool_timer.get())
                            : s->pool.get();
    f->engine = std::make_unique<QueryEngine>(dev, o);
    if (s->dynamic) {
      Value(f->engine->AddDynamicStore(s->dynamic.get()), "register dynamic");
    }
    for (PageId m : s->manifests) {
      Value(f->engine->AddStructure(m), "register structure");
    }
    const std::vector<pid_t> before = ThreadIds();
    Check(f->engine->Start(), "start engine");
    PinNewThreadsToWorkerCpus(before);
    f->service = f->engine.get();
  }
  PinTo(Role::kLoop);
  f->server = std::make_unique<NetServer>(f->service);
  Check(f->server->Start(), "start server");
  PinTo(Role::kClient);  // the calling thread drives the load
  return f;
}

void Ping(uint16_t port) {
  NetClient c;
  Check(c.Connect("127.0.0.1", port), "connect");
  Check(c.Ping(), "ping");
}

struct Served {
  std::unique_ptr<Store> store;
  std::unique_ptr<Frontend> fe;  // reset before the store

  void Reset() {
    fe.reset();
    store.reset();
  }
};

/// Build + cluster + save + sync + register + start, until the first PING
/// answers.  Input generation happened before and is not part of it.
double SetUp(const Inputs& in, const std::string& path, Served* out) {
  const uint64_t t0 = NowNs();
  out->store = BuildStore(in, path, /*timed=*/false);
  out->fe = StartFrontend(out->store.get(), /*timed=*/false);
  Ping(out->fe->port());
  return static_cast<double>(NowNs() - t0) / 1e9;
}

double SpaceAmp(const Store& s, const Inputs& in) {
  uint64_t pages = 0;
  if (s.sharded) {
    for (uint32_t k = 0; k < s.sharded->shards(); ++k) {
      pages += s.sharded->device(k)->live_pages();
    }
  } else {
    pages = s.file->live_pages();
  }
  return static_cast<double>(pages) * kDefaultPageSize /
         (static_cast<double>(in.records()) * sizeof(Point));
}

/// Seconds the hypervisor kept this machine's CPUs from running, summed
/// over CPUs (the steal column of /proc/stat); 0 where it is not reported.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  return n == 8 ? static_cast<double>(v[7]) /
                      static_cast<double>(::sysconf(_SC_CLK_TCK))
                : 0;
}

double RssMiB() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fatal("cannot read /proc/self/status");
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Mean number of shards the 2-sided candidates reach.
double MeanFanout(const Store& s, const Inputs& in) {
  double total = 0;
  for (const Candidate& c : in.cand[kTwoSided]) {
    auto [first, last] = s.sharded->map().Overlapping(
        c.req.two_sided.x_min, std::numeric_limits<int64_t>::max());
    total += last - first + 1;
  }
  return total / static_cast<double>(in.cand[kTwoSided].size());
}

/// update-mix at quiescence: every acknowledged group was committed, and
/// queries over the update band return exactly initial + acked inserts -
/// acked deletes.
bool CheckQuiescence(const Inputs& in, Store* s, uint16_t port,
                     const std::vector<Lane*>& lanes, uint64_t groups_before) {
  Check(s->dynamic->WaitForRebuild(), "background rebuild");
  uint64_t acked = 0;
  std::vector<DynamicItem> model;
  for (const Point& p : in.points) {
    if (p.y >= kBandTop) model.push_back(DynamicItem::From(p));
  }
  for (const Lane* l : lanes) {
    acked += l->acked_groups();
    model.insert(model.end(), l->live().begin(), l->live().end());
  }
  const uint64_t committed = s->dynamic->stats().groups_committed - groups_before;
  NetClient c;
  Check(c.Connect("127.0.0.1", port), "connect");
  Rng rng(Derive(in.seed, 6));
  uint32_t mismatches = 0;
  for (uint32_t i = 0; i < kQuiescenceQueries; ++i) {
    const double u = 0.002 + 0.008 * rng.NextDouble();
    const TwoSidedQuery q{static_cast<int64_t>(kCoordMax * (1 - u)),
                          rng.UniformRange(0, kBandTop * 9 / 10)};
    Answer want;
    for (const DynamicItem& it : model) {
      if (q.Contains(it.ToPoint())) want.Add(it.a, it.b, it.id);
    }
    std::vector<Point> got;
    if (!c.QueryTwoSided(in.structure_id[kTwoSided], q, &got).ok() ||
        !(Of(got) == want)) {
      ++mismatches;
    }
  }
  std::printf("quiescence: %" PRIu64 " groups acked, %" PRIu64
              " committed, %u/%u band queries wrong\n",
              acked, committed, mismatches, kQuiescenceQueries);
  return committed == acked && mismatches == 0;
}

// --- results -----------------------------------------------------------------

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;

  void Count(const Window& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 25;
  bool traced = false;
  bool smoke = false;
  std::string out_path;
  std::string benchmark_path;
  std::string data_dir;
};

std::string StorePath(const Options& opt) { return opt.data_dir + "/store.bin"; }

double WarmSeconds(const Options& opt) {
  return std::min(2.0, 0.1 * opt.seconds);
}

RunResult RunUntraced(const Inputs& in, const Options& opt) {
  RunResult res;
  Served sv;
  std::array<double, kSetupReps> setup{};
  for (int r = 0; r < kSetupReps; ++r) {
    sv.Reset();
    setup[r] = SetUp(in, StorePath(opt), &sv);
  }
  std::sort(setup.begin(), setup.end());
  std::printf("setup:");
  for (double s : setup) std::printf(" %.4f", s);
  std::printf(" s (sorted)\n");
  res.values["setup_s"] = setup[kSetupReps / 2];
  res.values["space_amp"] = SpaceAmp(*sv.store, in);
  if (sv.store->sharded) {
    const double fanout = MeanFanout(*sv.store, in);
    std::printf("shard fanout of 2-sided candidates: %.3f\n", fanout);
    if (fanout < 2) res.correct = false;
  }
  const uint16_t port = sv.fe->port();
  const uint64_t groups_before =
      sv.store->dynamic ? sv.store->dynamic->stats().groups_committed : 0;

  Lane l0(&in, 0), l1(&in, 1);
  const std::vector<Lane*> both = {&l0, &l1};
  res.Count(RunWindow(port, both, kDepth, WarmSeconds(opt), false));
  res.values["rss_mb"] = RssMiB();
  const uint64_t misses_before = sv.store->pool ? sv.store->pool->misses() : 0;

  // Latency and capacity windows alternate, so a stretch of interference
  // from the rest of the machine lands in a minority of either kind's
  // windows and the medians pass over it.
  const double window_s = opt.seconds / (2 * kWindows);
  std::vector<double> p50, p99, qps, upd50, upd99;
  std::vector<uint64_t> all_latency;
  const double cpu_s =
      window_s * static_cast<double>(::sysconf(_SC_NPROCESSORS_ONLN));
  for (int w = 0; w < kWindows; ++w) {
    const double steal0 = StealSeconds();
    const Window lat = RunWindow(port, {&l0}, 1, window_s, true);
    const double steal1 = StealSeconds();
    res.Count(lat);
    p50.push_back(Us(NearestRank(lat.latency_ns, 0.50)));
    p99.push_back(Us(NearestRank(lat.latency_ns, 0.99)));
    upd50.push_back(Us(NearestRank(lat.update_ns, 0.50)));
    upd99.push_back(Us(NearestRank(lat.update_ns, 0.99)));
    all_latency.insert(all_latency.end(), lat.latency_ns.begin(),
                       lat.latency_ns.end());
    const Window cap = RunWindow(port, both, kDepth, window_s, false);
    res.Count(cap);
    qps.push_back(static_cast<double>(cap.completed) / cap.seconds);
    std::printf("window %d: p50 %.3f us  p99 %.3f us  (n=%zu)  qps %.0f  "
                "steal %.1f%% %.1f%%\n",
                w, p50.back(), p99.back(), lat.latency_ns.size(), qps.back(),
                100 * (steal1 - steal0) / cpu_s,
                100 * (StealSeconds() - steal1) / cpu_s);
  }
  PrintLatency("latency, all windows", all_latency);
  res.values["p50_us"] = Median(p50);
  res.values["p99_us"] = Median(p99);
  res.values["qps"] = Median(qps);
  if (in.spec.mix[kUpdate] > 0) {
    std::printf("update latency: p50 %.3f us  p99 %.3f us (window medians)\n",
                Median(upd50), Median(upd99));
  }
  if (sv.store->pool) {
    std::printf("pool misses while measured: %" PRIu64 "\n",
                sv.store->pool->misses() - misses_before);
  }
  if (sv.store->dynamic) {
    const DynamicStoreStats ds = sv.store->dynamic->stats();
    std::printf("dynamic: rebuilds %" PRIu64 " groups %" PRIu64 "\n",
                ds.rebuilds, ds.groups_committed - groups_before);
    if (!CheckQuiescence(in, sv.store.get(), port, both, groups_before)) {
      res.correct = false;
    }
  }
  std::printf("error_rate: %" PRIu64 "/%" PRIu64 "\n", res.failed,
              res.attempted);
  return res;
}

// --- traced run --------------------------------------------------------------

ServeQuery ToServe(const Pending& p) {
  const Request& r = p.request();
  switch (p.kind) {
    case kTwoSided: return ServeQuery::TwoSided(r.two_sided);
    case kThreeSided: return ServeQuery::ThreeSided(r.three_sided);
    default: return ServeQuery::Stab(r.stab);
  }
}

/// One request through QueryService::Submit -> callback, waited for.
/// Returns false when the submit bounced.
bool InProcess(QueryService* svc, const Pending& p, QueryResult* out,
               uint64_t* done_ns) {
  struct Call {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    QueryResult res;
    uint64_t done_ns = 0;
  } call;
  auto cb = [&call](QueryResult r) {
    const uint64_t t = NowNs();
    std::lock_guard<std::mutex> lk(call.mu);
    call.res = std::move(r);
    call.done_ns = t;
    call.done = true;
    call.cv.notify_one();
  };
  const uint32_t sid = p.request().structure_id;
  const Status s = p.kind == kUpdate
                       ? svc->SubmitUpdate(sid, p.update.updates, cb)
                       : svc->Submit(sid, ToServe(p), cb);
  if (!s.ok()) return false;
  std::unique_lock<std::mutex> lk(call.mu);
  call.cv.wait(lk, [&] { return call.done; });
  *out = std::move(call.res);
  *done_ns = call.done_ns;
  return true;
}

/// Bench-owned handles for the direct stage.  Static workloads open their
/// saved structures over the engine -> pool timer; update-mix calls the
/// DynamicStore itself; shard-fanout queries an unsharded twin of its data.
struct Direct {
  std::unique_ptr<MemPageDevice> twin_dev;
  std::unique_ptr<SharedBufferPool> twin_pool;
  std::unique_ptr<ExternalPst> two;
  std::unique_ptr<ThreeSidedPst> three;
  std::unique_ptr<ExtIntervalTree> ivt;
  std::unique_ptr<ExtSegmentTree> seg;
  DynamicStore* dynamic = nullptr;

  Status Run(const Pending& p, QueryResult* out) {
    const Request& r = p.request();
    switch (p.kind) {
      case kTwoSided:
        return dynamic != nullptr
                   ? dynamic->QueryTwoSided(r.two_sided, &out->points, &out->stats)
                   : two->QueryTwoSided(r.two_sided, &out->points, &out->stats);
      case kThreeSided:
        return three->QueryThreeSided(r.three_sided, &out->points, &out->stats);
      case kStab:
        return ivt != nullptr ? ivt->Stab(r.stab, &out->intervals, &out->stats)
                              : seg->Stab(r.stab, &out->intervals, &out->stats);
      default:
        return dynamic->Apply(r.updates);
    }
  }
};

std::unique_ptr<Direct> OpenDirect(const Inputs& in, Store* s) {
  auto d = std::make_unique<Direct>();
  if (s->dynamic) {
    d->dynamic = s->dynamic.get();
  } else if (s->sharded) {
    d->twin_dev = std::make_unique<MemPageDevice>(kDefaultPageSize);
    d->twin_pool = std::make_unique<SharedBufferPool>(d->twin_dev.get(),
                                                      in.spec.pool_pages);
    d->two = std::make_unique<ExternalPst>(d->twin_pool.get());
    Check(d->two->Build(in.points), "twin 2-sided");
    d->seg = std::make_unique<ExtSegmentTree>(d->twin_pool.get());
    Check(d->seg->Build(in.intervals), "twin segment tree");
  } else {
    size_t m = 0;
    if (!in.points.empty()) {
      d->two = std::make_unique<ExternalPst>(s->pool_timer.get());
      Check(d->two->Open(s->manifests[m++]), "open 2-sided");
    }
    if (!in.three_points.empty()) {
      d->three = std::make_unique<ThreeSidedPst>(s->pool_timer.get());
      Check(d->three->Open(s->manifests[m++]), "open 3-sided");
    }
    if (!in.intervals.empty()) {
      d->ivt = std::make_unique<ExtIntervalTree>(s->pool_timer.get());
      Check(d->ivt->Open(s->manifests[m++]), "open interval tree");
    }
  }
  return d;
}

/// Counters read before and after a stage.
struct Counters {
  TimedPageDevice::Totals pool_t;
  TimedPageDevice::Totals dev_t;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t read_syscalls = 0;
  uint64_t uring_batches = 0;
  uint64_t rebuilds = 0;
  uint64_t read_repins = 0;
  uint64_t max_queue_depth = 0;
  net::NetServerStats net;
};

void AddTotals(TimedPageDevice::Totals* a, const TimedPageDevice::Totals& b) {
  for (int i = 0; i < TimedPageDevice::kNumOps; ++i) {
    a->op[i].calls += b.op[i].calls;
    a->op[i].pages += b.op[i].pages;
    a->op[i].ns += b.op[i].ns;
  }
}

void AddServe(Counters* c, const ServeStats& st) {
  c->read_repins += st.read_repins;
  c->max_queue_depth = std::max(c->max_queue_depth, st.max_queue_depth);
}

Counters Snapshot(Store* s, Frontend* fe) {
  Counters c;
  c.net = fe->server->stats();
  if (s->sharded) {
    for (uint32_t k = 0; k < s->sharded->shards(); ++k) {
      SharedBufferPool* p = s->sharded->pool(k);
      c.hits += p->hits();
      c.misses += p->misses();
      c.evictions += p->evictions();
      AddTotals(&c.dev_t, s->shard_timers[k]->totals());
      AddServe(&c, s->sharded->engine(k)->stats());
    }
    return c;
  }
  c.pool_t = s->pool_timer->totals();
  c.dev_t = s->file_timer->totals();
  c.hits = s->pool->hits();
  c.misses = s->pool->misses();
  c.evictions = s->pool->evictions();
  c.read_syscalls = s->file->read_syscalls();
  c.uring_batches = s->file->uring_batches();
  if (s->dynamic) c.rebuilds = s->dynamic->stats().rebuilds;
  AddServe(&c, fe->engine->stats());
  return c;
}

/// Time in the read path of a device: reads, batches, pins and unpins.
double ReadNs(const TimedPageDevice::Totals& t) {
  using T = TimedPageDevice;
  double ns = 0;
  for (int op : {T::kRead, T::kReadBatch, T::kSubmitBatch, T::kAwaitBatch,
                 T::kPin, T::kUnpin}) {
    ns += static_cast<double>(t.op[op].ns);
  }
  return ns;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-kind accumulation of a stage's requests.
struct KindTally {
  std::vector<uint64_t> ns;
  QueryStats stats;
  uint64_t n = 0;
};

struct StageTally {
  std::vector<uint64_t> ns;  // every request
  KindTally kind[kNumKinds];
  uint64_t queries = 0;
  uint64_t groups = 0;
  uint64_t mutations = 0;
  // shard-fanout scatter-gather, queries only
  double slices = 0;
  double slowest_us = 0;
  double gather_us = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const Pending& p, uint64_t ns_taken, const QueryResult& r) {
    ns.push_back(ns_taken);
    KindTally& k = kind[p.kind];
    k.ns.push_back(ns_taken);
    k.stats += r.stats;
    ++k.n;
    if (p.kind == kUpdate) {
      ++groups;
      mutations += p.update.updates.size();
      return;
    }
    ++queries;
    if (!r.shards.empty()) {
      uint64_t slowest = 0;
      for (const ShardSlice& s : r.shards) {
        slowest = std::max(slowest, s.latency_micros);
      }
      slices += static_cast<double>(r.shards.size());
      slowest_us += static_cast<double>(slowest);
      gather_us += static_cast<double>(r.latency_micros - slowest);
    }
  }
};

/// Replays the lane's script at one request in flight, in process or by
/// direct calls, until `seconds` have passed.
StageTally RunInProcessStage(QueryService* svc, Lane* lane, double seconds) {
  StageTally t;
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const Pending p = lane->Next();
    QueryResult r;
    uint64_t done = 0;
    const uint64_t t0 = NowNs();
    ++t.attempted;
    if (!InProcess(svc, p, &r, &done) || !lane->Complete(p, r)) {
      ++t.failed;
      continue;
    }
    t.Add(p, done - t0, r);
  }
  return t;
}

StageTally RunDirectStage(Direct* d, Lane* lane, double seconds) {
  StageTally t;
  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const Pending p = lane->Next();
    QueryResult r;
    const uint64_t t0 = NowNs();
    r.status = d->Run(p, &r);
    const uint64_t t1 = NowNs();
    ++t.attempted;
    if (!lane->Complete(p, r)) {
      ++t.failed;
      continue;
    }
    t.Add(p, t1 - t0, r);
  }
  return t;
}

/// Replays every candidate in process on the untraced and on the traced
/// front end; counted reads and answers must be identical, since a timer
/// may cost time but never I/O.  A first pass is not compared: it lets
/// every worker reopen its handles on update-mix's current generation,
/// reads that land on whichever request a worker serves first.  Returns the
/// traced answers' wire encodings (by kind and candidate) for the codec
/// stage.
bool CheckTransparency(const Inputs& in, Lane* lane, QueryService* plain,
                       QueryService* timed,
                       std::vector<std::vector<uint8_t>> encoded[kQueryKinds],
                       StageTally* tally) {
  uint32_t mismatches = 0;
  const uint64_t failed_before = tally->failed;
  for (int pass = 0; pass < 2; ++pass) {
    for (int k = 0; k < kQueryKinds; ++k) {
      for (uint32_t i = 0; i < in.cand[k].size(); ++i) {
        const Pending p = lane->Make(Slot{k, i});
        QueryResult a, b;
        uint64_t done = 0;
        tally->attempted += 2;
        const bool ok = InProcess(plain, p, &a, &done) &&
                        InProcess(timed, p, &b, &done) &&
                        lane->Complete(p, a) && lane->Complete(p, b);
        if (!ok) {
          tally->failed += 2;
          continue;
        }
        if (pass == 0) continue;
        if (a.io.reads != b.io.reads ||
            a.stats.total_reads() != b.stats.total_reads()) {
          ++mismatches;
        }
        Response resp;
        resp.type = k == kStab ? MsgType::kIntervals : MsgType::kPoints;
        resp.points = std::move(b.points);
        resp.intervals = std::move(b.intervals);
        std::vector<uint8_t> bytes;
        Check(net::EncodeResponse(resp, &bytes), "encode response");
        encoded[k].push_back(std::move(bytes));
      }
    }
  }
  std::printf("transparency: %u candidates differ in counted reads with the "
              "timers in place\n", mismatches);
  return mismatches == 0 && tally->failed == failed_before;
}

/// Mean client-side codec cost per request over the script: encode the
/// request, then decode and parse its response frame.
double ClientCodecUs(const Inputs& in, const std::vector<Slot>& script,
                     const std::vector<std::vector<uint8_t>> (&encoded)[kQueryKinds],
                     double seconds) {
  Request update;
  update.type = MsgType::kUpdateGroup;
  for (uint32_t i = 0; i < 2 * kInsertsPerGroup; ++i) {
    update.updates.push_back({UpdateOp::kInsert, DynamicItem{1, 2, i}});
  }
  std::vector<uint8_t> ack;
  Response ack_resp;
  ack_resp.type = MsgType::kUpdateAck;
  ack_resp.applied = 2 * kInsertsPerGroup;
  Check(net::EncodeResponse(ack_resp, &ack), "encode ack");

  const uint64_t end = NowNs() + static_cast<uint64_t>(seconds * 1e9);
  uint64_t total_ns = 0;
  uint64_t n = 0;
  std::vector<uint8_t> buf;
  while (NowNs() < end) {
    for (const Slot& s : script) {
      const bool is_update = s.kind == kUpdate;
      const Request& req = is_update ? update : in.cand[s.kind][s.cand].req;
      const std::vector<uint8_t>& resp =
          is_update ? ack : encoded[s.kind][s.cand];
      const uint64_t t0 = NowNs();
      buf.clear();
      Check(net::EncodeRequest(req, &buf), "encode request");
      const net::DecodeResult d = net::DecodeFrame(resp.data(), resp.size());
      Response out;
      if (d.verdict != net::DecodeVerdict::kFrame ||
          !net::ParseResponse(d.frame, {d.payload, d.frame.payload_len}, &out)
               .ok()) {
        Fatal("response frame does not decode");
      }
      total_ns += NowNs() - t0;
      ++n;
    }
  }
  return Us(total_ns) / static_cast<double>(std::max<uint64_t>(n, 1));
}

void SetCore(const StageTally& direct, RunResult* res) {
  for (int k = 0; k < kQueryKinds; ++k) {
    const KindTally& t = direct.kind[k];
    const std::string p = std::string("core.") + kKindName[k] + ".";
    const double n = static_cast<double>(t.n);
    const QueryStats& s = t.stats;
    res->values[p + "query_us"] = Us(NearestRank(t.ns, 0.5));
    res->values[p + "reads_per_query"] = Ratio(s.total_reads(), n);
    res->values[p + "nav_reads"] = Ratio(s.navigation, n);
    res->values[p + "cache_reads"] = Ratio(s.cache, n);
    res->values[p + "list_reads"] = Ratio(
        s.corner + s.ancestor + s.sibling + s.descendant + s.buffer, n);
    res->values[p + "useful_ratio"] = Ratio(s.useful, s.useful + s.wasteful);
    res->values[p + "records_per_query"] = Ratio(s.records_reported, n);
  }
}

RunResult RunTraced(const Inputs& in, const Options& opt) {
  RunResult res;
  // Timers above and below the pool.  Static and update-mix serve the same
  // store through two engines, one on the pool and one on its timer;
  // shard-fanout's timers sit under its pools, so its untraced side is a
  // second, timer-free store.
  std::unique_ptr<Store> store = BuildStore(in, StorePath(opt), /*timed=*/true);
  std::unique_ptr<Store> plain_store;
  if (store->sharded) plain_store = BuildStore(in, "", /*timed=*/false);
  std::unique_ptr<Frontend> timed = StartFrontend(store.get(), true);
  std::unique_ptr<Frontend> plain =
      StartFrontend(plain_store ? plain_store.get() : store.get(), false);
  std::unique_ptr<Direct> direct = OpenDirect(in, store.get());
  const uint64_t groups_before =
      store->dynamic ? store->dynamic->stats().groups_committed : 0;
  const double stage_s = 0.15 * opt.seconds;

  Lane l0(&in, 0), l1(&in, 1);
  const std::vector<Lane*> both = {&l0, &l1};
  res.Count(RunWindow(plain->port(), both, kDepth, WarmSeconds(opt) / 2, false));
  res.Count(RunWindow(timed->port(), both, kDepth, WarmSeconds(opt) / 2, false));

  // Transparency, at quiescence so both passes read one generation.
  if (store->dynamic) Check(store->dynamic->WaitForRebuild(), "rebuild");
  std::vector<std::vector<uint8_t>> encoded[kQueryKinds];
  StageTally tp;
  if (!CheckTransparency(in, &l0, plain->service, timed->service, encoded,
                         &tp)) {
    res.correct = false;
  }
  res.attempted += tp.attempted;
  res.failed += tp.failed;

  const std::vector<Slot> script = MakeScript(in);
  l0.SetScript(&script);
  // A: TCP without timers.  B: TCP with them.
  const Window tcp_plain = RunWindow(plain->port(), {&l0}, 1, stage_s, true);
  const Counters before_b = Snapshot(store.get(), timed.get());
  const Window tcp_timed = RunWindow(timed->port(), {&l0}, 1, stage_s, true);
  const Counters after_b = Snapshot(store.get(), timed.get());
  res.Count(tcp_plain);
  res.Count(tcp_timed);
  PrintLatency("tcp untraced", tcp_plain.latency_ns);
  PrintLatency("tcp traced", tcp_timed.latency_ns);

  // C: in process, Submit -> callback, through the timers.
  if (store->file_timer) store->file_timer->TakeSyncSamples();
  const Counters c0 = Snapshot(store.get(), timed.get());
  const StageTally inproc = RunInProcessStage(timed->service, &l0, stage_s);
  const Counters c1 = Snapshot(store.get(), timed.get());
  const std::vector<uint64_t> syncs =
      store->file_timer ? store->file_timer->TakeSyncSamples()
                        : std::vector<uint64_t>{};
  // D: direct structure calls.
  const StageTally dir = RunDirectStage(direct.get(), &l0, stage_s);
  l0.SetScript(nullptr);
  for (const StageTally* t : {&inproc, &dir}) {
    res.attempted += t->attempted;
    res.failed += t->failed;
  }

  // E: pipelined through the timers, for backpressure and queue depth.
  const Counters e0 = Snapshot(store.get(), timed.get());
  res.Count(RunWindow(timed->port(), both, kDepth, 0.1 * opt.seconds, false));
  const Counters e1 = Snapshot(store.get(), timed.get());

  const double tcp_plain_p50 =
      Us(NearestRank(tcp_plain.latency_ns, 0.5));
  const double tcp_p50 = Us(NearestRank(tcp_timed.latency_ns, 0.5));
  const double inproc_p50 = Us(NearestRank(inproc.ns, 0.5));
  const double direct_p50 = Us(NearestRank(dir.ns, 0.5));
  auto& v = res.values;
  v["trace.overhead_pct"] = Ratio(100 * (tcp_p50 - tcp_plain_p50), tcp_plain_p50);
  v["net.tcp_p50_us"] = tcp_p50;
  v["net.self_us"] = tcp_p50 - inproc_p50;
  v["net.client_codec_us"] = ClientCodecUs(in, script, encoded, 0.05 * opt.seconds);
  v["net.bytes_out_per_req"] =
      Ratio(after_b.net.bytes_out - before_b.net.bytes_out,
            after_b.net.frames_out - before_b.net.frames_out);
  v["net.read_pauses"] = e1.net.read_pauses - e0.net.read_pauses;
  v["serve.submit_to_done_p50_us"] = inproc_p50;
  v["serve.submit_to_done_p99_us"] = Us(NearestRank(inproc.ns, 0.99));
  v["serve.self_us"] = inproc_p50 - direct_p50;
  v["serve.max_queue_depth"] = e1.max_queue_depth;
  v["core.direct_p50_us"] = direct_p50;
  SetCore(dir, &res);

  const double q = static_cast<double>(inproc.queries);
  const TimedPageDevice::Totals pool_d = c1.pool_t - c0.pool_t;
  const TimedPageDevice::Totals dev_d = c1.dev_t - c0.dev_t;
  v["io.pool.hit_ratio"] =
      Ratio(c1.hits - c0.hits, (c1.hits - c0.hits) + (c1.misses - c0.misses));
  v["io.pool.us_per_query"] = Ratio(ReadNs(pool_d) / 1e3, q);
  v["io.pool.evictions_per_query"] = Ratio(c1.evictions - c0.evictions, q);
  v["io.pool.async_submits_per_query"] =
      Ratio(pool_d.op[TimedPageDevice::kSubmitBatch].calls, q);
  v["io.dev.reads_per_query"] = Ratio(dev_d.pages_read(), q);
  v["io.dev.syscalls_per_query"] = Ratio(c1.read_syscalls - c0.read_syscalls, q);
  v["io.dev.us_per_query"] = Ratio(ReadNs(dev_d) / 1e3, q);
  v["io.dev.uring_batches_per_query"] =
      Ratio(c1.uring_batches - c0.uring_batches, q);

  if (store->dynamic) {
    const double groups = static_cast<double>(inproc.groups);
    v["dynamic.update_p50_us"] =
        Us(NearestRank(tcp_plain.update_ns, 0.5));
    v["dynamic.update_p99_us"] =
        Us(NearestRank(tcp_plain.update_ns, 0.99));
    v["dynamic.sync_p50_us"] = Us(NearestRank(syncs, 0.5));
    v["dynamic.sync_p99_us"] = Us(NearestRank(syncs, 0.99));
    v["dynamic.syncs_per_group"] =
        Ratio(dev_d.op[TimedPageDevice::kSync].calls, groups);
    v["dynamic.write_amp"] =
        Ratio(static_cast<double>(dev_d.op[TimedPageDevice::kWrite].pages) *
                  kDefaultPageSize,
              static_cast<double>(inproc.mutations) * sizeof(DynamicItem));
    v["dynamic.rebuilds_per_1k_groups"] =
        Ratio(1000.0 * static_cast<double>(c1.rebuilds - c0.rebuilds), groups);
    v["dynamic.read_repins_per_1k_queries"] =
        Ratio(1000.0 * static_cast<double>(c1.read_repins - c0.read_repins), q);
    // An explicit rebuild, timed alone: drain the overlay first, then add
    // one group (below the threshold, so nothing starts in the background)
    // for the timed rebuild to fold in.
    Check(store->dynamic->WaitForRebuild(), "rebuild");
    Check(store->dynamic->Rebuild(), "rebuild");
    const Pending p = l0.Make(Slot{kUpdate, 0});
    QueryResult r;
    r.status = direct->Run(p, &r);
    if (!l0.Complete(p, r)) res.correct = false;
    const uint64_t t0 = NowNs();
    Check(store->dynamic->Rebuild(), "explicit rebuild");
    v["dynamic.rebuild_ms"] = static_cast<double>(NowNs() - t0) / 1e6;
    if (!CheckQuiescence(in, store.get(), plain->port(), both, groups_before)) {
      res.correct = false;
    }
  }
  if (store->sharded) {
    v["shard.fanout"] = Ratio(inproc.slices, q);
    v["shard.slowest_slice_us"] = Ratio(inproc.slowest_us, q);
    v["shard.gather_us"] = Ratio(inproc.gather_us, q);
  }
  std::printf("traced stages: tcp %.3f us  in-process %.3f us  direct %.3f us "
              "(p50, %zu/%zu/%zu requests)\n",
              tcp_p50, inproc_p50, direct_p50, tcp_timed.latency_ns.size(),
              inproc.ns.size(), dir.ns.size());
  return res;
}

// --- main --------------------------------------------------------------------

const Spec* FindSpec(const std::string& name) {
  for (const Spec& s : kSpecs) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

Spec Scaled(const Spec& s, bool smoke) {
  if (!smoke) return s;
  Spec t = s;
  t.points /= kSmokeDivisor;
  t.three_points /= kSmokeDivisor;
  t.intervals /= kSmokeDivisor;
  return t;
}

/// Prints every metric by name and unit, then the result object as the
/// last line; writes the object (plus workload, seed, trace) to `out_path`
/// when given.  Returns false if the values do not match the definitions.
bool Emit(const RunResult& res, const Options& opt) {
  const std::vector<MetricDef>& defs =
      opt.traced ? PerLayerDefs() : EndToEndDefs();
  bool known = true;
  for (const auto& [name, value] : res.values) {
    const bool found = std::any_of(defs.begin(), defs.end(),
                                   [&](const MetricDef& d) { return d.name == name; });
    if (!found) {
      std::fprintf(stderr, "pcbench: undefined metric %s\n", name.c_str());
      known = false;
    }
  }
  std::string metrics;
  for (const MetricDef& d : defs) {
    auto it = res.values.find(d.name);
    double value = it == res.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::printf("metric %-40s %.6f %s\n", d.name.c_str(), value, d.unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name.c_str(), value,
                  d.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                res.correct && res.failed == 0 ? "true" : "false", res.attempted,
                res.failed);
  const std::string body =
      std::string(head) + ", \"metrics\": {" + metrics + "}}";
  std::printf("{%s\n", body.c_str());
  std::fflush(stdout);
  if (!opt.out_path.empty()) {
    std::FILE* f = std::fopen(opt.out_path.c_str(), "w");
    if (f == nullptr) Fatal("cannot write " + opt.out_path);
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"trace\": %d, %s\n",
                 opt.workload.c_str(), opt.seed, opt.traced ? 1 : 0, body.c_str());
    std::fclose(f);
  }
  return known;
}

bool RunOne(const Options& opt) {
  const Spec* spec = FindSpec(opt.workload);
  if (spec == nullptr) Fatal("unknown workload " + opt.workload);
  std::printf("pcbench %s seed=%" PRIu64 " seconds=%.3f trace=%d%s\n",
              opt.workload.c_str(), opt.seed, opt.seconds, opt.traced ? 1 : 0,
              opt.smoke ? " (smoke sizes)" : "");
  const Inputs in = MakeInputs(Scaled(*spec, opt.smoke), opt.seed);
  const RunResult res = opt.traced ? RunTraced(in, opt) : RunUntraced(in, opt);
  const bool known = Emit(res, opt);
  return known && res.correct && res.failed == 0;
}

/// The smoke test: every workload, traced and untraced, at smoke sizes and
/// 0.5 s phases.  It checks answers and the metric lists against
/// BENCHMARK.json, never timings.
bool RunSmoke(Options opt) {
  bool ok = true;
  if (!opt.benchmark_path.empty()) {
    BenchmarkSpec bench;
    if (!LoadBenchmarkSpec(opt.benchmark_path, &bench)) return false;
    auto same = [](const std::vector<MetricSpec>& a,
                   const std::vector<MetricDef>& b) {
      if (a.size() != b.size()) return false;
      for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].name != b[i].name || a[i].unit != b[i].unit) return false;
      }
      return true;
    };
    if (!same(bench.end_to_end, EndToEndDefs()) ||
        !same(bench.per_layer, PerLayerDefs())) {
      std::fprintf(stderr, "smoke: BENCHMARK.json metrics differ from pcbench's\n");
      ok = false;
    }
    std::vector<std::string> names;
    for (const Spec& s : kSpecs) names.push_back(s.name);
    if (bench.workloads != names) {
      std::fprintf(stderr, "smoke: BENCHMARK.json workloads differ\n");
      ok = false;
    }
  }
  opt.smoke = true;
  opt.seconds = 1.0;
  for (const Spec& s : kSpecs) {
    for (bool traced : {false, true}) {
      opt.workload = s.name;
      opt.traced = traced;
      if (!RunOne(opt)) {
        std::fprintf(stderr, "smoke: %s trace=%d failed\n", s.name, traced);
        ok = false;
      }
    }
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE]\n"
               "       %s --smoke [--benchmark BENCHMARK.json]\n"
               "workloads: hot-small cold-scan update-mix shard-fanout\n",
               argv0, argv0);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0]);
      return argv[++i];
    };
    if (a == "--workload") {
      o.workload = next();
    } else if (a == "--seed") {
      o.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      o.traced = next() == "1";
    } else if (a == "--out") {
      o.out_path = next();
    } else if (a == "--benchmark") {
      o.benchmark_path = next();
    } else if (a == "--smoke") {
      o.smoke = true;
    } else {
      Usage(argv[0]);
    }
  }
  if (!o.smoke && (o.workload.empty() || !(o.seconds > 0) || o.seconds > 600)) {
    Usage(argv[0]);
  }
  return o;
}

/// Store files go next to the binary, in a directory private to this
/// process, removed at exit.
std::string MakeDataDir() {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) Fatal("cannot locate the pcbench binary");
  std::string dir(exe, static_cast<size_t>(n));
  dir = dir.substr(0, dir.rfind('/')) + "/pcbench-data." +
        std::to_string(::getpid());
  if (::mkdir(dir.c_str(), 0755) != 0) Fatal("cannot create " + dir);
  return dir;
}

int Main(int argc, char** argv) {
  Options opt = ParseArgs(argc, argv);
  opt.data_dir = MakeDataDir();
  const bool ok = opt.smoke ? RunSmoke(opt) : RunOne(opt);
  ::rmdir(opt.data_dir.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pcbench
}  // namespace pathcache

int main(int argc, char** argv) { return pathcache::pcbench::Main(argc, argv); }
