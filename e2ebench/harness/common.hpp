// Shared pieces of the end-to-end incident-repair benchmark: workload
// definitions, input generation, the offline incident pass, the output
// oracle, span attribution and the metric report.
//
// Every workload takes whole incidents through the public API only:
// scenario directories are generated and exported in set-up, then each
// incident is `LoadScenario(dir)` → `ops::repairScenario` (or the same
// through the acrd wire path), timed from outside.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/acr.hpp"
#include "core/ops.hpp"
#include "core/serialization.hpp"
#include "faultinject/faults.hpp"
#include "obs/trace.hpp"
#include "repair/engine.hpp"
#include "util/metrics.hpp"

namespace acr::e2e {

// ------------------------------------------------------------ report --

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric list plus the oracle verdict the final JSON line carries.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;  // oracle failures, printed to stderr

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
  /// repaired_share: attempts that passed every output check.
  [[nodiscard]] double repairedShare() const {
    return attempted == 0 ? 0.0
                          : 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted);
  }
};

// ------------------------------------------------------------- stats --

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample; 0 when
/// empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// Quantile of a log2-bucket histogram, interpolated inside the bucket.
[[nodiscard]] double histogramQuantile(const util::Histogram::Snapshot& snap,
                                       double q);
[[nodiscard]] double peakRssMb();
[[nodiscard]] double msSince(std::uint64_t start_ns);
[[nodiscard]] std::uint64_t nowNs();

// ---------------------------------------------------------- workloads --

struct WorkloadSpec {
  std::string name;
  /// Fault classes, cycled over the generated incidents (stratified, so the
  /// class mix does not depend on the seed; the seed picks the sites).
  std::vector<inject::FaultType> classes;
  int incidents = 0;  // distinct incident directories generated
  int dcn_pods = 3;
  int dcn_tors = 2;
  int backbone_n = 8;
  int incident_jobs = 1;  // campaign incident fan-out workers
  int validate_jobs = 1;  // RepairOptions::validate_jobs
  bool serve = false;
};

/// The benchmark's workloads; `smoke` shrinks each to its smallest size.
/// Returns nullopt for an unknown name.
[[nodiscard]] std::optional<WorkloadSpec> workloadByName(
    const std::string& name, bool smoke, int workers);

struct Incident {
  std::string dir;
  std::string scenario;
  std::string description;  // the injector's account of the fault
  std::uint64_t repair_seed = 1;
};

/// Generates, injects, checks for an intent violation, serializes and
/// exports every incident of `spec` under `root`. A pure function of (spec,
/// seed). `write_ms`, when given, receives the time spent in saveScenario,
/// which serializes again and writes the files. Throws when a fault class
/// cannot be made to violate an intent.
[[nodiscard]] std::vector<Incident> generateIncidents(
    const WorkloadSpec& spec, std::uint64_t seed, const std::string& root,
    double* write_ms = nullptr);

/// Runs generation once untimed and then `repeats` times into the same
/// directories, and returns the incidents; `setup_s` receives the median
/// wall-clock of one timed pass without its file writes.
[[nodiscard]] std::vector<Incident> repeatedSetup(const WorkloadSpec& spec,
                                                  std::uint64_t seed,
                                                  const std::string& root,
                                                  int repeats, double* setup_s);

// ----------------------------------------------------- incident pass --

/// One incident taken through load → repair → render.
struct Execution {
  std::size_t position = 0;  // index in the pass's incident stream
  int incident = -1;
  double total_ms = 0.0;   // load through rendered result
  double load_ms = 0.0;    // LoadScenario
  double call_ms = 0.0;    // ops::repairScenario
  double engine_ms = 0.0;  // RepairResult::elapsed_ms
  int iterations = 0;
  std::uint64_t validations = 0;
  bool success = false;
  std::uint64_t digest = 0;  // iterations, validations, changes, text
};

/// The oracle's record of the first execution of each incident. The
/// repaired network is re-verified right after that execution (outside
/// its timing) so no pass holds repaired networks in memory.
struct FirstOutcome {
  std::uint64_t digest = 0;
  bool success = false;
  bool verified = false;  // a fresh full-simulation verify passed
  int failing_tests = 0;  // under that verify
  std::string text;
};

struct PassOptions {
  repair::RepairOptions repair;
  int incident_jobs = 1;
  /// Stop taking new incidents after this many seconds (0 = no limit). At
  /// least one incident always runs.
  double seconds = 0.0;
  /// Explicit incident stream; empty = cycle 0..N-1 until `seconds`.
  std::vector<int> sequence;
  bool keep_first = false;
};

struct PassResult {
  std::vector<Execution> executions;  // sorted by position
  /// Wall-clock of the pass minus the oracle's re-verification time
  /// (divided over the workers that absorbed it).
  double wall_s = 0.0;
  std::vector<std::optional<FirstOutcome>> first;  // by incident
};

[[nodiscard]] PassResult runPass(const std::vector<Incident>& incidents,
                                 const PassOptions& options);

/// The incident stream of a finished pass, in position order.
[[nodiscard]] std::vector<int> streamOf(const PassResult& pass);

/// Re-runs a prefix of `pass`'s stream (at most `seconds` of it, at least
/// one incident) under `options` and checks the repairs are the same
/// (see checkSameRepairs).
[[nodiscard]] PassResult rerun(const std::vector<Incident>& incidents,
                               const PassResult& pass, PassOptions options,
                               double seconds, const std::string& label,
                               Report& report, std::vector<bool>& good);

/// Incident time of `other` ÷ that of `base` on the stream positions both
/// reached.
[[nodiscard]] double timeRatio(const PassResult& base, const PassResult& other);

// ------------------------------------------------------------- oracle --

/// Checks that every first outcome was repaired and passed its fresh
/// verification and that every execution of an incident repeats its first
/// digest; returns per-incident verdicts (true = all of that holds).
[[nodiscard]] std::vector<bool> checkPass(const PassResult& pass,
                                          const std::string& label,
                                          Report& report);

/// Checks that `other`'s executions repeat `reference`'s first digests
/// (other worker counts, an ablation, a traced pass) and clears `good` for
/// every incident that does not.
void checkSameRepairs(const PassResult& reference, const PassResult& other,
                      const std::string& label, Report& report,
                      std::vector<bool>& good);

/// Cross-run check: compares per-incident digests with those a previous
/// run of the same binary, workload and seed stored in `path`, clears
/// `good` for every incident that differs, then stores the union.
void checkStoredDigests(const PassResult& pass, const std::string& path,
                        Report& report, std::vector<bool>& good);

// -------------------------------------------------------- attribution --

/// Self time per layer over the span trees rooted at spans named
/// `root_name`, from the spans the tracer collected.
struct Attribution {
  std::map<std::string, double> layer_self_ms;
  double root_ms = 0.0;          // sum of root durations
  double unattributed_ms = 0.0;  // root + engine-root self time
  double self_total_ms = 0.0;
};

[[nodiscard]] Attribution attribute(const std::vector<obs::SpanRecord>& spans,
                                    const std::string& root_name);

/// Layers reported as `self.<layer>_share` in the traced run.
[[nodiscard]] const std::vector<std::string>& attributionLayers();

void addAttribution(const Attribution& attribution, Report& report);

// ------------------------------------------------------ layer probes --

/// Standalone timings of single layers on each listed incident's faulty
/// network (medians): routing.sim_ms, provenance.sim_ms, verify.verify_ms,
/// localize.first_ms.
void addLayerProbes(const std::vector<Incident>& incidents,
                    const std::vector<int>& which, Report& report);

/// Engine-stage metrics read from the global registry after a pass.
void addEngineStages(const PassResult& pass, Report& report);

// ---------------------------------------------------------- workloads --

/// One benchmark invocation.
struct RunContext {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;     // scratch inputs, removed afterwards
  std::string digest_path;  // per-incident digests kept across runs
};

/// The offline workloads (mix, cold, warm) and the fleet-serving workload.
[[nodiscard]] Report runOffline(const RunContext& context,
                                const WorkloadSpec& spec);
[[nodiscard]] Report runServe(const RunContext& context,
                              const WorkloadSpec& spec);

/// Set-up passes per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 3;

}  // namespace acr::e2e
