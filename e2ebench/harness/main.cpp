// acr_e2ebench: the end-to-end incident-repair benchmark.
//
//   acr_e2ebench --workload NAME --seed N --seconds S --trace 0|1
//                --work DIR --digests DIR [--rev REV] [--smoke]
//
// Prints a host fingerprint line, one `metric <name> <value> <unit>` line
// per metric and, as the last line, one JSON object
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. Exits 1 when an
// output check failed, 2 on a usage error.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

#ifndef ACR_BENCH_BUILD_TYPE
#define ACR_BENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace acr;
using namespace acr::e2e;

/// Incident fan-out and VALIDATE fan-out width: fixed, never above nproc.
constexpr int kMaxWorkers = 4;

using MetricList = std::vector<std::pair<std::string, std::string>>;

const MetricList& endToEndMetrics() {
  static const MetricList list{
      {"incidents_per_s", "1/s"}, {"incident_ms_p50", "ms"},
      {"incident_ms_p90", "ms"},  {"repaired_share", "share"},
      {"setup_s", "s"},           {"peak_rss_mb", "MB"},
      {"request_ms_p50", "ms"},   {"request_ms_p90", "ms"},
      {"max_rate_rps", "1/s"},
  };
  return list;
}

const MetricList& perLayerMetrics() {
  static const MetricList list = [] {
    MetricList out{
        {"core.load_ms", "ms"},
        {"core.render_ms", "ms"},
        {"repair.engine_ms", "ms"},
        {"repair.iterations", "count"},
        {"repair.validations", "count"},
        {"repair.discarded_share", "share"},
        {"repair.localize.sim_ms", "ms"},
        {"repair.localize.suite_ms", "ms"},
        {"repair.localize.rank_ms", "ms"},
        {"repair.fix_ms", "ms"},
        {"repair.validate_ms", "ms"},
        {"repair.other_ms", "ms"},
        {"routing.sim_ms", "ms"},
        {"provenance.sim_ms", "ms"},
        {"verify.verify_ms", "ms"},
        {"verify.skip_share", "share"},
        {"localize.first_ms", "ms"},
        {"localize.cache.hit_share", "share"},
        {"routing.tree.leaves", "count"},
        {"routing.delta.runs", "count"},
        {"routing.delta.fallbacks", "count"},
        {"service.queue_wait_ms_p90", "ms"},
        {"service.cache_hit_share", "share"},
        {"service.job_ms_p50", "ms"},
        {"fleet.submit_ms_p50", "ms"},
        {"fleet.spills", "count"},
        {"gen.lag_ms_p90", "ms"},
        {"rejected_share", "share"},
        {"trace.overhead_share", "share"},
        {"trace.unattributed_share", "share"},
        {"ablation.incremental.share", "share"},
        {"ablation.batch_validate.share", "share"},
    };
    for (const auto& layer : attributionLayers()) {
      out.emplace_back("self." + layer + "_share", "share");
    }
    return out;
  }();
  return list;
}

/// Orders the report's metrics by `list`. A metric the workload does not
/// exercise (the service layer offline, say) reads 0; a metric outside the
/// list is a harness bug.
std::vector<Metric> canonical(const Report& report, const MetricList& list) {
  std::map<std::string, const Metric*> by_name;
  for (const auto& metric : report.metrics) by_name[metric.name] = &metric;
  std::vector<Metric> out;
  for (const auto& [name, unit] : list) {
    const auto found = by_name.find(name);
    Metric metric{name, 0.0, unit};
    if (found != by_name.end()) {
      if (found->second->unit != unit) {
        throw std::logic_error("unit mismatch for " + name);
      }
      metric.value = found->second->value;
      by_name.erase(found);
    }
    if (!std::isfinite(metric.value)) metric.value = 0.0;
    out.push_back(metric);
  }
  if (!by_name.empty()) {
    throw std::logic_error("unlisted metric " + by_name.begin()->first);
  }
  return out;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  out += util::Json::escape(text);
  out += '"';
  return out;
}

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "acr_e2ebench: %s\nusage: acr_e2ebench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work DIR --digests DIR [--rev REV] "
               "[--smoke]\n",
               message.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
    } else if (flag.rfind("--", 0) == 0 && i + 1 < argc) {
      args[flag.substr(2)] = argv[++i];
    } else {
      usage("bad argument '" + flag + "'");
    }
  }
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "work", "digests"}) {
    if (!args.count(required)) usage(std::string("missing --") + required);
  }
  const int nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int workers = std::min(kMaxWorkers, nproc);
  const std::optional<WorkloadSpec> spec =
      workloadByName(args["workload"], smoke, workers);
  if (!spec) usage("unknown workload '" + args["workload"] + "'");

  RunContext context;
  try {
    context.seed = std::stoull(args["seed"]);
    context.seconds = std::stod(args["seconds"]);
  } catch (const std::exception&) {
    usage("--seed and --seconds take numbers");
  }
  context.trace = args["trace"] == "1";
  context.work_dir = args["work"];
  const std::string rev = args.count("rev") ? args["rev"] : "unknown";
  context.digest_path = args["digests"] + "/" + spec->name + "-" +
                        args["seed"] + (smoke ? "-smoke" : "") + ".txt";

  std::printf(
      "host {\"nproc\": %d, \"compiler\": %s, \"build_type\": %s, "
      "\"rev\": %s, \"workers\": %d, \"incident_jobs\": %d, "
      "\"validate_jobs\": %d, \"workload\": %s, \"seed\": %s, "
      "\"seconds\": %s, \"trace\": %d, \"smoke\": %s}\n",
      nproc, quoted("GCC " __VERSION__).c_str(),
      quoted(ACR_BENCH_BUILD_TYPE).c_str(), quoted(rev).c_str(), workers,
      spec->incident_jobs, spec->validate_jobs, quoted(spec->name).c_str(),
      args["seed"].c_str(), number(context.seconds).c_str(),
      context.trace ? 1 : 0, smoke ? "true" : "false");
  std::fflush(stdout);

  Report report;
  std::vector<Metric> metrics;
  try {
    report = spec->serve ? runServe(context, *spec)
                         : runOffline(context, *spec);
    metrics = canonical(report,
                        context.trace ? perLayerMetrics() : endToEndMetrics());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "acr_e2ebench: %s\n", error.what());
    std::filesystem::remove_all(context.work_dir);
    return 1;
  }
  std::filesystem::remove_all(context.work_dir);

  constexpr std::size_t kShownProblems = 20;
  for (std::size_t i = 0; i < report.problems.size() && i < kShownProblems;
       ++i) {
    std::fprintf(stderr, "oracle: %s\n", report.problems[i].c_str());
  }
  if (report.problems.size() > kShownProblems) {
    std::fprintf(stderr, "oracle: ... %zu more\n",
                 report.problems.size() - kShownProblems);
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& metric = metrics[i];
    std::printf("metric %-32s %14.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    json += (i == 0 ? "" : ", ") + quoted(metric.name) +
            ": {\"value\": " + number(metric.value) +
            ", \"unit\": " + quoted(metric.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return report.correct ? 0 : 1;
}
