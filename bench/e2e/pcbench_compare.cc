// pcbench_compare: compares two sets of pcbench result files.
//
//   pcbench_compare [--self-check] BENCHMARK.json
//       --base r1.json r2.json ... --change r1.json r2.json ...
//
// Each file is what `pcbench --out FILE` writes.  Files pair up in the order
// given, per workload: run the two commits alternately and list the files
// in run order.  For every workload and metric it prints each side's
// median and quartiles, the share of pairs the change wins, and a verdict
// for the end-to-end metrics:
//
//   unresolved  the base runs' quartile spread exceeds the metric's bound
//               (unless every change run beats every base run: improved)
//   improved    the change wins >= 9/10 of the pairs (ties count for
//               neither) and the medians differ by more than the base
//               runs' quartile spread
//   regressed   the change's median is worse than the base's by more than
//               the bound
//   no-worse    otherwise
//
// Per-layer metrics carry no bound and get no verdict.  --self-check is for
// two sets from the same commit: it exits 1 when any end-to-end metric
// reads improved or regressed.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "json_value.h"

namespace pathcache {
namespace pcbench {
namespace {

struct Run {
  std::string workload;
  bool traced = false;
  bool correct = false;
  std::map<std::string, double> metrics;
};

bool LoadRun(const std::string& path, Run* out) {
  JsonValue v;
  if (!LoadJson(path, &v)) return false;
  const JsonValue* workload = v.Find("workload");
  const JsonValue* trace = v.Find("trace");
  const JsonValue* correct = v.Find("correct");
  const JsonValue* metrics = v.Find("metrics");
  if (workload == nullptr || trace == nullptr || correct == nullptr ||
      metrics == nullptr) {
    std::fprintf(stderr, "%s: not a pcbench result file\n", path.c_str());
    return false;
  }
  out->workload = workload->str;
  out->traced = trace->number != 0;
  out->correct = correct->boolean;
  for (const auto& [name, m] : metrics->members) {
    if (const JsonValue* value = m.Find("value")) {
      out->metrics[name] = value->number;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// First and third quartile by the "exclusive" method (Python's
/// statistics.quantiles default), so the numbers match a script's.
std::pair<double, double> Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long n = static_cast<long>(v.size());
  if (n < 2) return {v.front(), v.front()};
  auto q = [&](long i) {
    const long m = n + 1;
    const long j = std::clamp<long>(i * m / 4, 1, n - 1);
    const long delta = i * m - j * 4;
    return (v[j - 1] * static_cast<double>(4 - delta) +
            v[j] * static_cast<double>(delta)) /
           4;
  };
  return {q(1), q(3)};
}

struct Side {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
};

Side Describe(const std::vector<double>& v) {
  Side s;
  s.median = Median(v);
  std::tie(s.q1, s.q3) = Quartiles(v);
  return s;
}

/// Verdict for one end-to-end metric; see the file comment.
std::string Verdict(const MetricSpec& m, const std::vector<double>& base,
                    const std::vector<double>& change, double win_share) {
  const Side b = Describe(base);
  const Side c = Describe(change);
  auto better = [&](double x, double y) {
    return m.higher_is_better ? x > y : x < y;
  };
  const double spread = b.q3 - b.q1;
  const double worse_by =
      m.higher_is_better ? b.median - c.median : c.median - b.median;
  bool all_better = true;
  for (double x : change) {
    for (double y : base) all_better = all_better && better(x, y);
  }
  if (b.median == 0) return "unresolved";
  if (spread / std::abs(b.median) > m.bound) {
    return all_better ? "improved" : "unresolved";
  }
  if (win_share >= 0.9 && std::abs(c.median - b.median) > spread &&
      better(c.median, b.median)) {
    return "improved";
  }
  if (worse_by > m.bound * std::abs(b.median)) return "regressed";
  return "no-worse";
}

int Main(int argc, char** argv) {
  bool self_check = false;
  std::string bench_path;
  std::vector<std::string> files[2];
  int side = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-check") {
      self_check = true;
    } else if (a == "--base") {
      side = 0;
    } else if (a == "--change") {
      side = 1;
    } else if (side >= 0) {
      files[side].push_back(a);
    } else if (bench_path.empty()) {
      bench_path = a;
    } else {
      side = -2;
      break;
    }
  }
  if (bench_path.empty() || side == -2 || files[0].empty() ||
      files[1].empty()) {
    std::fprintf(stderr,
                 "usage: %s [--self-check] BENCHMARK.json --base FILE... "
                 "--change FILE...\n",
                 argv[0]);
    return 2;
  }
  BenchmarkSpec bench;
  if (!LoadBenchmarkSpec(bench_path, &bench)) return 2;

  // runs[side][workload][traced]
  std::map<std::string, std::vector<Run>> runs[2][2];
  for (int s = 0; s < 2; ++s) {
    for (const std::string& f : files[s]) {
      Run r;
      if (!LoadRun(f, &r)) return 2;
      if (!r.correct) {
        std::fprintf(stderr, "%s: run was not correct\n", f.c_str());
        return 2;
      }
      runs[s][r.traced][r.workload].push_back(std::move(r));
    }
  }

  int flagged = 0;
  std::printf("%-13s %-36s %12s %12s %12s %12s %12s %12s %5s  %s\n",
              "workload", "metric", "base_q1", "base_med", "base_q3",
              "chg_q1", "chg_med", "chg_q3", "wins", "verdict");
  for (const std::string& w : bench.workloads) {
    for (int traced = 0; traced < 2; ++traced) {
      const std::vector<Run>& base = runs[0][traced][w];
      const std::vector<Run>& change = runs[1][traced][w];
      if (base.empty() || change.empty()) continue;
      const size_t pairs = std::min(base.size(), change.size());
      const std::vector<MetricSpec>& metrics =
          traced ? bench.per_layer : bench.end_to_end;
      for (const MetricSpec& m : metrics) {
        auto values = [&](const std::vector<Run>& rs) {
          std::vector<double> v;
          for (const Run& r : rs) {
            auto it = r.metrics.find(m.name);
            v.push_back(it == r.metrics.end() ? 0.0 : it->second);
          }
          return v;
        };
        const std::vector<double> b = values(base);
        const std::vector<double> c = values(change);
        size_t wins = 0;
        for (size_t i = 0; i < pairs; ++i) {
          if (m.higher_is_better ? c[i] > b[i] : c[i] < b[i]) ++wins;
        }
        const double share =
            static_cast<double>(wins) / static_cast<double>(pairs);
        const std::string verdict =
            traced ? "-" : Verdict(m, b, c, share);
        if (verdict == "improved" || verdict == "regressed") ++flagged;
        const Side bs = Describe(b);
        const Side cs = Describe(c);
        std::printf("%-13s %-36s %12.4f %12.4f %12.4f %12.4f %12.4f %12.4f "
                    "%2zu/%-2zu  %s\n",
                    w.c_str(), m.name.c_str(), bs.q1, bs.median, bs.q3, cs.q1,
                    cs.median, cs.q3, wins, pairs, verdict.c_str());
      }
    }
  }
  if (self_check) {
    std::printf("self-check: %d end-to-end metric(s) read improved or "
                "regressed between two sets of one commit\n",
                flagged);
    return flagged == 0 ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace pcbench
}  // namespace pathcache

int main(int argc, char** argv) { return pathcache::pcbench::Main(argc, argv); }
