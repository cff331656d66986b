#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

#include "localize/incremental.hpp"
#include "routing/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "verify/verifier.hpp"

namespace acr::e2e {

namespace fs = std::filesystem;

// ------------------------------------------------------------- stats --

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto low = static_cast<std::size_t>(std::floor(rank));
  const std::size_t high = std::min(low + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(low);
  return values[low] + (values[high] - values[low]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double histogramQuantile(const util::Histogram::Snapshot& snap, double q) {
  if (snap.count == 0) return 0.0;
  const double target = q * static_cast<double>(snap.count);
  double seen = 0.0;
  for (int b = 0; b < util::Histogram::kBuckets; ++b) {
    const auto in_bucket = static_cast<double>(snap.buckets[b]);
    if (in_bucket == 0.0) continue;
    if (seen + in_bucket >= target) {
      const double upper = util::Histogram::kFirstUpperMs * std::ldexp(1.0, b);
      const double lower = b == 0 ? 0.0 : upper / 2.0;
      const double frac = (target - seen) / in_bucket;
      return std::clamp(lower + (upper - lower) * frac, snap.min_ms,
                        snap.max_ms);
    }
    seen += in_bucket;
  }
  return snap.max_ms;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msSince(std::uint64_t start_ns) {
  return static_cast<double>(nowNs() - start_ns) / 1e6;
}

// ---------------------------------------------------------- workloads --

namespace {

using inject::FaultType;

/// The ten Table-1 rows spread over `slots` incidents in proportion to
/// their ratios, interleaved so every prefix of the list follows the mix
/// (largest deficit first, catalog order on ties).
std::vector<FaultType> table1Mix(int slots) {
  const auto& catalog = inject::faultCatalog();
  std::vector<int> taken(catalog.size(), 0);
  std::vector<FaultType> mix;
  for (int slot = 1; slot <= slots; ++slot) {
    std::size_t best = 0;
    double best_deficit = -1e9;
    for (std::size_t c = 0; c < catalog.size(); ++c) {
      const double deficit = catalog[c].ratio * slot - taken[c];
      if (deficit > best_deficit + 1e-12) {
        best = c;
        best_deficit = deficit;
      }
    }
    ++taken[best];
    mix.push_back(catalog[best].type);
  }
  return mix;
}

std::vector<FaultType> catalogTypes(std::initializer_list<int> rows) {
  std::vector<FaultType> types;
  for (const int row : rows) {
    types.push_back(inject::faultCatalog()[static_cast<std::size_t>(row)].type);
  }
  return types;
}

}  // namespace

std::optional<WorkloadSpec> workloadByName(const std::string& name, bool smoke,
                                           int workers) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "mix-dcn8x8" || name == "serve-fleet2") {
    // The paper's Table-1 incident mix on its three scenario families.
    spec.classes = table1Mix(24);
    spec.incidents = name == "mix-dcn8x8" ? 48 : 72;
    spec.dcn_pods = 8;
    spec.dcn_tors = 8;
    spec.backbone_n = 32;
    spec.serve = name == "serve-fleet2";
    spec.incident_jobs = spec.serve ? 1 : workers;
    if (smoke) {
      spec.incidents = 10;
      spec.dcn_pods = 2;
      spec.dcn_tors = 2;
      spec.backbone_n = 8;
    }
  } else if (name == "cold-dcn16x16") {
    // The one-iteration DCN classes: missing redistribution, missing PBR
    // permit, extra PBR redirect, missing peer group, leftover route-map,
    // wrong peer AS.
    spec.classes = catalogTypes({0, 1, 2, 3, 6, 7});
    spec.incidents = 12;
    spec.dcn_pods = 16;
    spec.dcn_tors = 16;
    spec.validate_jobs = workers;
    if (smoke) {
      spec.incidents = 6;
      spec.dcn_pods = 3;
      spec.dcn_tors = 2;
    }
  } else if (name == "warm-dcn12x8") {
    // "Extra items in peer group": many iterations, many validations.
    spec.classes = catalogTypes({4});
    spec.incidents = 6;
    spec.dcn_pods = 12;
    spec.dcn_tors = 8;
    spec.validate_jobs = workers;
    if (smoke) {
      spec.incidents = 2;
      spec.dcn_pods = 3;
      spec.dcn_tors = 2;
    }
  } else {
    return std::nullopt;
  }
  return spec;
}

std::vector<Incident> generateIncidents(const WorkloadSpec& spec,
                                        std::uint64_t seed,
                                        const std::string& root,
                                        double* write_ms) {
  struct Family {
    Scenario scenario;
    std::unique_ptr<verify::Verifier> verifier;
  };
  std::map<std::string, Family> families;
  std::vector<Incident> incidents;
  fs::create_directories(root);
  for (int i = 0; i < spec.incidents; ++i) {
    const FaultType type =
        spec.classes[static_cast<std::size_t>(i) % spec.classes.size()];
    const inject::FaultSpec& fault = inject::specOf(type);
    auto found = families.find(fault.scenario);
    if (found == families.end()) {
      Family family;
      family.scenario = scenarioByFamily(fault.scenario, spec.dcn_pods,
                                         spec.dcn_tors, spec.backbone_n);
      route::SimOptions sim_options;
      sim_options.record_provenance = false;
      family.verifier = std::make_unique<verify::Verifier>(
          family.scenario.intents, sim_options);
      found = families.emplace(fault.scenario, std::move(family)).first;
    }
    const Family& family = found->second;

    inject::FaultInjector injector(
        util::streamSeed(seed, 2 * static_cast<std::uint64_t>(i)));
    std::optional<inject::Incident> incident;
    for (int attempt = 0; attempt < 16 && !incident; ++attempt) {
      incident = injector.inject(family.scenario.built, type);
      if (incident && family.verifier->verify(incident->network).ok()) {
        incident.reset();  // masked by redundancy: try another site
      }
    }
    if (!incident) {
      throw std::runtime_error("could not inject a violating '" +
                               inject::faultTypeName(type) + "' into " +
                               family.scenario.name);
    }
    char name[32];
    std::snprintf(name, sizeof(name), "inc-%03d", i);
    Incident out;
    out.dir = (fs::path(root) / name).string();
    out.scenario = family.scenario.name;
    out.description = incident->description;
    out.repair_seed =
        util::streamSeed(seed, 2 * static_cast<std::uint64_t>(i) + 1);
    Scenario broken;
    broken.name = family.scenario.name;
    broken.built.network = std::move(incident->network);
    broken.built.subnets = family.scenario.built.subnets;
    broken.intents = family.scenario.intents;
    // The export's serialization, in memory, as saveScenario does it; then
    // saveScenario writes the files.
    (void)topologyToText(broken.built.network.topology, broken.built.subnets);
    (void)intentsToText(broken.intents);
    for (const auto& [router, config] : broken.built.network.configs) {
      (void)cfg::renderAs(config, SaveOptions{}.dialect);
    }
    const std::uint64_t write_start = nowNs();
    saveScenario(broken, out.dir);
    if (write_ms != nullptr) *write_ms += msSince(write_start);
    incidents.push_back(std::move(out));
  }
  return incidents;
}

std::vector<Incident> repeatedSetup(const WorkloadSpec& spec,
                                    std::uint64_t seed,
                                    const std::string& root, int repeats,
                                    double* setup_s) {
  // An untimed first pass creates the directories; the timed passes then
  // rewrite every file in place. The file writes themselves are not timed:
  // on a disk shared with other work they made set-up time follow the
  // file system's writeback and discard load more than the program.
  fs::remove_all(root);
  std::vector<Incident> incidents = generateIncidents(spec, seed, root);
  std::vector<double> seconds;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t start = nowNs();
    double write_ms = 0.0;
    incidents = generateIncidents(spec, seed, root, &write_ms);
    seconds.push_back((msSince(start) - write_ms) / 1000.0);
  }
  *setup_s = median(seconds);
  return incidents;
}

// ----------------------------------------------------- incident pass --

namespace {

void fnv(std::uint64_t& hash, const std::string& bytes) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  hash ^= 0xff;
  hash *= 1099511628211ull;
}

/// FNV-1a over an outcome's iterations, validations, changes and text.
std::uint64_t digestOf(const ops::RepairOutcome& outcome) {
  std::uint64_t hash = 1469598103934665603ull;
  fnv(hash, std::to_string(outcome.result.iterations));
  fnv(hash, std::to_string(outcome.result.validations));
  for (const auto& change : outcome.result.changes) fnv(hash, change);
  fnv(hash, outcome.text);
  return hash;
}

}  // namespace

PassResult runPass(const std::vector<Incident>& incidents,
                   const PassOptions& options) {
  PassResult pass;
  pass.first.resize(incidents.size());
  std::vector<bool> claimed(incidents.size(), false);
  std::mutex mutex;
  double oracle_ms = 0.0;  // guarded by `mutex`
  std::atomic<std::size_t> next{0};
  const bool explicit_stream = !options.sequence.empty();
  const std::uint64_t start = nowNs();
  const auto expired = [&] {
    return options.seconds > 0.0 && msSince(start) >= options.seconds * 1e3;
  };

  const auto worker = [&](int) {
    for (;;) {
      const std::size_t position = next.fetch_add(1);
      if (explicit_stream && position >= options.sequence.size()) return;
      if (position > 0 && expired()) return;
      const int index = explicit_stream
                            ? options.sequence[position]
                            : static_cast<int>(position % incidents.size());
      const Incident& incident = incidents[static_cast<std::size_t>(index)];

      Execution execution;
      execution.position = position;
      execution.incident = index;
      LoadedScenario loaded;
      ops::RepairOutcome outcome;
      {
        obs::Span root_span("bench.incident");
        const std::uint64_t began = nowNs();
        {
          obs::Span span("core.load");
          loaded = LoadScenario(incident.dir);
        }
        execution.load_ms = msSince(began);
        repair::RepairOptions repair_options = options.repair;
        repair_options.seed = incident.repair_seed;
        const std::uint64_t called = nowNs();
        {
          obs::Span span("core.repair_scenario");
          outcome = ops::repairScenario(loaded.scenario, repair_options);
        }
        execution.call_ms = msSince(called);
        execution.total_ms = msSince(began);
      }
      execution.engine_ms = outcome.result.elapsed_ms;
      execution.iterations = outcome.result.iterations;
      execution.validations = outcome.result.validations;
      execution.success = outcome.result.success;
      execution.digest = digestOf(outcome);

      bool keep = false;
      {
        const std::lock_guard<std::mutex> lock(mutex);
        pass.executions.push_back(execution);
        if (options.keep_first && !claimed[static_cast<std::size_t>(index)]) {
          claimed[static_cast<std::size_t>(index)] = true;
          keep = true;
        }
      }
      if (keep) {
        const std::uint64_t oracle_start = nowNs();
        FirstOutcome first;
        first.digest = execution.digest;
        first.success = execution.success;
        first.text = std::move(outcome.text);
        // A fresh full-simulation verifier: no anchor, no delta, no cache.
        route::SimOptions sim_options;
        sim_options.record_provenance = false;
        const topo::Network& repaired = outcome.result.repaired;
        const route::SimResult sim =
            route::Simulator(repaired).run(sim_options);
        const verify::VerifyResult verdict =
            verify::Verifier(loaded.scenario.intents, sim_options)
                .verifyWithSim(repaired, sim);
        first.verified = ops::verifyOk(sim, verdict);
        first.failing_tests = verdict.tests_failed;
        const std::lock_guard<std::mutex> lock(mutex);
        pass.first[static_cast<std::size_t>(index)] = std::move(first);
        oracle_ms += msSince(oracle_start);
      }
    }
  };
  const int jobs = std::max(1, options.incident_jobs);
  util::parallelFor(jobs, jobs, worker);
  pass.wall_s = (msSince(start) - oracle_ms / jobs) / 1000.0;
  std::sort(pass.executions.begin(), pass.executions.end(),
            [](const Execution& a, const Execution& b) {
              return a.position < b.position;
            });
  return pass;
}

std::vector<int> streamOf(const PassResult& pass) {
  std::vector<int> stream;
  stream.reserve(pass.executions.size());
  for (const auto& execution : pass.executions) {
    stream.push_back(execution.incident);
  }
  return stream;
}

PassResult rerun(const std::vector<Incident>& incidents, const PassResult& pass,
                 PassOptions options, double seconds, const std::string& label,
                 Report& report, std::vector<bool>& good) {
  options.sequence = streamOf(pass);
  options.seconds = seconds;
  options.keep_first = false;
  PassResult again = runPass(incidents, options);
  checkSameRepairs(pass, again, label, report, good);
  return again;
}

double timeRatio(const PassResult& base, const PassResult& other) {
  std::unordered_map<std::size_t, double> base_ms;
  for (const auto& execution : base.executions) {
    base_ms[execution.position] = execution.total_ms;
  }
  double base_total = 0.0;
  double other_total = 0.0;
  for (const auto& execution : other.executions) {
    const auto found = base_ms.find(execution.position);
    if (found == base_ms.end()) continue;
    base_total += found->second;
    other_total += execution.total_ms;
  }
  return base_total > 0.0 && other_total > 0.0 ? other_total / base_total
                                               : 1.0;
}

// ------------------------------------------------------------- oracle --

std::vector<bool> checkPass(const PassResult& pass, const std::string& label,
                            Report& report) {
  std::vector<bool> good(pass.first.size(), false);
  for (std::size_t i = 0; i < pass.first.size(); ++i) {
    if (!pass.first[i]) continue;
    const FirstOutcome& first = *pass.first[i];
    if (!first.success) {
      report.fail(label + ": incident " + std::to_string(i) +
                  " was not repaired");
    } else if (!first.verified) {
      report.fail(label + ": incident " + std::to_string(i) +
                  " repaired network fails a fresh verification (" +
                  std::to_string(first.failing_tests) + " failing tests)");
    } else {
      good[i] = true;
    }
  }
  for (const auto& execution : pass.executions) {
    const auto& first = pass.first[static_cast<std::size_t>(execution.incident)];
    if (first && execution.digest != first->digest) {
      good[static_cast<std::size_t>(execution.incident)] = false;
      report.fail(label + ": incident " + std::to_string(execution.incident) +
                  " repaired differently on a repeat");
    }
  }
  return good;
}

void checkSameRepairs(const PassResult& reference, const PassResult& other,
                      const std::string& label, Report& report,
                      std::vector<bool>& good) {
  for (const auto& execution : other.executions) {
    const auto& first =
        reference.first[static_cast<std::size_t>(execution.incident)];
    if (first && first->digest != execution.digest) {
      good[static_cast<std::size_t>(execution.incident)] = false;
      report.fail(label + ": incident " + std::to_string(execution.incident) +
                  " repaired differently than in the default pass");
    }
  }
}

void checkStoredDigests(const PassResult& pass, const std::string& path,
                        Report& report, std::vector<bool>& good) {
  std::map<int, std::uint64_t> stored;
  {
    std::ifstream in(path);
    int incident = 0;
    std::uint64_t digest = 0;
    while (in >> incident >> std::hex >> digest >> std::dec) {
      stored[incident] = digest;
    }
  }
  for (std::size_t i = 0; i < pass.first.size(); ++i) {
    if (!pass.first[i]) continue;
    const auto found = stored.find(static_cast<int>(i));
    if (found != stored.end() && found->second != pass.first[i]->digest) {
      good[i] = false;
      report.fail("incident " + std::to_string(i) +
                  " repaired differently than in a previous run");
    }
    stored[static_cast<int>(i)] = pass.first[i]->digest;
  }
  fs::create_directories(fs::path(path).parent_path());
  const std::string temp = path + ".tmp";
  {
    std::ofstream out(temp);
    for (const auto& [incident, digest] : stored) {
      out << incident << ' ' << std::hex << digest << std::dec << '\n';
    }
  }
  fs::rename(temp, path);
}

// -------------------------------------------------------- attribution --

namespace {

std::string layerOf(const std::string& name) {
  static const std::map<std::string, std::string> layers{
      {"core", "core"},         {"sim", "routing"},
      {"verify", "verify"},     {"localize", "localize"},
      {"sbfl", "localize"},     {"fixgen", "fixgen"},
      {"smt", "smt"},           {"symbolic", "symbolic"},
      {"validate", "repair"},   {"crossover", "repair"},
      {"service", "service"},   {"fleet", "fleet"},
  };
  const std::string head = name.substr(0, name.find('.'));
  const auto found = layers.find(head);
  return found == layers.end() ? "other" : found->second;
}

/// Length of the union of [begin, end) intervals.
double unionLength(std::vector<std::pair<std::uint64_t, std::uint64_t>> spans) {
  std::sort(spans.begin(), spans.end());
  double total = 0.0;
  std::uint64_t cur_begin = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [begin, end] : spans) {
    if (!open || begin > cur_end) {
      if (open) total += static_cast<double>(cur_end - cur_begin);
      cur_begin = begin;
      cur_end = end;
      open = true;
    } else {
      cur_end = std::max(cur_end, end);
    }
  }
  if (open) total += static_cast<double>(cur_end - cur_begin);
  return total;
}

}  // namespace

const std::vector<std::string>& attributionLayers() {
  static const std::vector<std::string> layers{
      "core",   "routing", "verify", "localize", "fixgen",
      "smt",    "symbolic", "repair", "service", "fleet"};
  return layers;
}

Attribution attribute(const std::vector<obs::SpanRecord>& spans,
                      const std::string& root_name) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent_id != 0) children[spans[i].parent_id].push_back(i);
  }
  Attribution out;
  std::vector<std::size_t> stack;
  for (std::size_t r = 0; r < spans.size(); ++r) {
    if (spans[r].name != root_name) continue;
    out.root_ms += static_cast<double>(spans[r].dur_us) / 1e3;
    stack.push_back(r);
    while (!stack.empty()) {
      const obs::SpanRecord& span = spans[stack.back()];
      stack.pop_back();
      const std::uint64_t begin = span.start_us;
      const std::uint64_t end = span.start_us + span.dur_us;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
      const auto found = children.find(span.span_id);
      if (found != children.end()) {
        for (const std::size_t c : found->second) {
          const obs::SpanRecord& child = spans[c];
          const std::uint64_t child_begin = std::max(begin, child.start_us);
          const std::uint64_t child_end =
              std::min(end, child.start_us + child.dur_us);
          if (child_end > child_begin) {
            covered.emplace_back(child_begin, child_end);
          }
          stack.push_back(c);
        }
      }
      const double self_ms =
          (static_cast<double>(span.dur_us) - unionLength(covered)) / 1e3;
      out.self_total_ms += self_ms;
      if (span.name == root_name || span.name == "repair") {
        out.unattributed_ms += self_ms;
      } else {
        out.layer_self_ms[layerOf(span.name)] += self_ms;
      }
    }
  }
  return out;
}

void addAttribution(const Attribution& attribution, Report& report) {
  const double total = std::max(attribution.self_total_ms, 1e-9);
  for (const auto& layer : attributionLayers()) {
    const auto found = attribution.layer_self_ms.find(layer);
    const double self_ms =
        found == attribution.layer_self_ms.end() ? 0.0 : found->second;
    report.add("self." + layer + "_share", self_ms / total, "share");
  }
  report.add("trace.unattributed_share",
             attribution.unattributed_ms / std::max(attribution.root_ms, 1e-9),
             "share");
}

// ------------------------------------------------------ layer probes --

void addLayerProbes(const std::vector<Incident>& incidents,
                    const std::vector<int>& which, Report& report) {
  std::vector<double> sim_ms;
  std::vector<double> provenance_ms;
  std::vector<double> verify_ms;
  std::vector<double> localize_ms;
  for (const int index : which) {
    const LoadedScenario loaded =
        LoadScenario(incidents[static_cast<std::size_t>(index)].dir);
    const topo::Network& network = loaded.scenario.network();
    const auto& intents = loaded.scenario.intents;
    route::SimOptions plain;
    plain.record_provenance = false;
    route::SimOptions recorded;
    recorded.record_provenance = true;

    std::uint64_t start = nowNs();
    { const route::SimResult sim = route::Simulator(network).run(plain); }
    sim_ms.push_back(msSince(start));

    start = nowNs();
    { const route::SimResult sim = route::Simulator(network).run(recorded); }
    provenance_ms.push_back(msSince(start));

    start = nowNs();
    {
      const verify::Verifier verifier(intents);
      const verify::VerifyResult result = verifier.verify(network);
    }
    verify_ms.push_back(msSince(start));

    sbfl::LocalizeCache cache(network, intents, verify::generateTests(intents, 1),
                              recorded, false);
    start = nowNs();
    { const sbfl::LocalizeOutcome outcome = cache.localize(network, {}); }
    localize_ms.push_back(msSince(start));
  }
  report.add("routing.sim_ms", median(sim_ms), "ms");
  report.add("provenance.sim_ms", median(provenance_ms), "ms");
  report.add("verify.verify_ms", median(verify_ms), "ms");
  report.add("localize.first_ms", median(localize_ms), "ms");
}

namespace {

/// Sum of every counter in `registry` whose name starts with `prefix`.
std::uint64_t counterPrefixSum(const util::MetricsRegistry& registry,
                               const std::string& prefix) {
  const std::optional<util::Json> json =
      util::Json::parse(registry.renderJson());
  if (!json) return 0;
  const util::Json* counters = json->find("counters");
  if (counters == nullptr || !counters->isObject()) return 0;
  std::uint64_t total = 0;
  for (const auto& [name, value] : counters->asObject()) {
    if (name.rfind(prefix, 0) == 0) total += value.asUint();
  }
  return total;
}

}  // namespace

void addEngineStages(const PassResult& pass, Report& report) {
  util::MetricsRegistry& metrics = util::MetricsRegistry::global();
  const double n = std::max<double>(1.0, pass.executions.size());
  std::vector<double> load_ms;
  std::vector<double> render_ms;
  double engine_ms = 0.0;
  double iterations = 0.0;
  double validations = 0.0;
  for (const auto& execution : pass.executions) {
    load_ms.push_back(execution.load_ms);
    render_ms.push_back(execution.call_ms - execution.engine_ms);
    engine_ms += execution.engine_ms;
    iterations += execution.iterations;
    validations += static_cast<double>(execution.validations);
  }
  report.add("core.load_ms", median(load_ms), "ms");
  report.add("core.render_ms", median(render_ms), "ms");
  report.add("repair.engine_ms", engine_ms / n, "ms");
  report.add("repair.iterations", iterations / n, "count");
  report.add("repair.validations", validations / n, "count");
  report.add("repair.discarded_share",
             static_cast<double>(
                 metrics.counter("repair.candidates_discarded").value()) /
                 std::max(1.0, validations),
             "share");
  double stages_ms = 0.0;
  for (const char* stage :
       {"repair.localize.sim_ms", "repair.localize.suite_ms",
        "repair.localize.rank_ms", "repair.fix_ms", "repair.validate_ms"}) {
    const double ms = metrics.histogram(stage).snapshot().sum_ms / n;
    stages_ms += ms;
    report.add(stage, ms, "ms");
  }
  report.add("repair.other_ms", engine_ms / n - stages_ms, "ms");

  const auto share = [](std::uint64_t part, std::uint64_t rest) {
    return part + rest == 0 ? 0.0
                            : static_cast<double>(part) /
                                  static_cast<double>(part + rest);
  };
  report.add("localize.cache.hit_share",
             share(metrics.counter("localize.cache.probe_hits").value(),
                   metrics.counter("localize.cache.probe_misses").value()),
             "share");
  report.add("verify.skip_share",
             share(metrics.counter("verify.tests_skipped").value(),
                   metrics.counter("verify.tests_reverified").value()),
             "share");
  report.add("routing.tree.leaves",
             static_cast<double>(metrics.counter("sim.tree.leaves").value()) /
                 n,
             "count");
  report.add("routing.delta.runs",
             static_cast<double>(metrics.counter("sim.delta.runs").value()) / n,
             "count");
  report.add("routing.delta.fallbacks",
             static_cast<double>(
                 counterPrefixSum(metrics, "sim.delta.fallback.") +
                 counterPrefixSum(metrics, "sim.tree.fallback.")) /
                 n,
             "count");
}

}  // namespace acr::e2e
