// Offline workloads: incidents taken through LoadScenario →
// ops::repairScenario on the campaign's incident fan-out (mix) or one at a
// time with a VALIDATE fan-out (cold, warm).
#include <set>

#include "common.hpp"

namespace acr::e2e {

namespace {

/// The first `count` distinct incidents of a pass's stream.
std::vector<int> distinctIncidents(const PassResult& pass, std::size_t count) {
  std::vector<int> out;
  std::set<int> seen;
  for (const auto& execution : pass.executions) {
    if (out.size() >= count) break;
    if (seen.insert(execution.incident).second) {
      out.push_back(execution.incident);
    }
  }
  return out;
}

}  // namespace

Report runOffline(const RunContext& context, const WorkloadSpec& spec) {
  Report report;
  double setup_s = 0.0;
  const std::vector<Incident> incidents = repeatedSetup(
      spec, context.seed, context.work_dir + "/inputs", kSetupRepeats,
      &setup_s);

  PassOptions base;
  base.repair.validate_jobs = spec.validate_jobs;
  base.incident_jobs = spec.incident_jobs;

  util::MetricsRegistry::global().reset();
  PassOptions timed = base;
  timed.seconds = context.seconds;
  timed.keep_first = true;
  const PassResult pass = runPass(incidents, timed);
  // The registry holds exactly this pass's counters until the next pass.
  if (context.trace) addEngineStages(pass, report);

  // ---- oracle ----------------------------------------------------------
  // `good` ends up false for every incident that failed a check; all of
  // that incident's executions then count as failed.
  std::vector<bool> good = checkPass(pass, "default pass", report);
  {
    // Every incident again under other worker counts: one incident at a
    // time, with the VALIDATE fan-out switched between 1 and the workload's
    // worker count.
    PassOptions other = base;
    other.incident_jobs = 1;
    other.repair.validate_jobs =
        base.repair.validate_jobs > 1 ? 1 : base.incident_jobs;
    other.sequence = distinctIncidents(pass, incidents.size());
    checkSameRepairs(pass, runPass(incidents, other), "other worker counts",
                     report, good);
  }
  checkStoredDigests(pass, context.digest_path, report, good);
  const auto countFailures = [&] {
    report.attempted = pass.executions.size();
    report.failed = 0;
    for (const auto& execution : pass.executions) {
      if (!execution.success ||
          !good[static_cast<std::size_t>(execution.incident)]) {
        ++report.failed;
      }
    }
  };

  if (!context.trace) {
    countFailures();
    std::vector<double> totals;
    std::vector<double> calls;
    for (const auto& execution : pass.executions) {
      totals.push_back(execution.total_ms);
      calls.push_back(execution.call_ms);
    }
    const double rate =
        static_cast<double>(pass.executions.size()) / pass.wall_s;
    report.add("incidents_per_s", rate, "1/s");
    report.add("incident_ms_p50", quantile(totals, 0.5), "ms");
    report.add("incident_ms_p90", quantile(totals, 0.9), "ms");
    report.add("repaired_share", report.repairedShare(), "share");
    report.add("setup_s", setup_s, "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    // Offline, a "request" is the repair call on a loaded scenario, and the
    // highest sustainable rate is the closed-loop completion rate.
    report.add("request_ms_p50", quantile(calls, 0.5), "ms");
    report.add("request_ms_p90", quantile(calls, 0.9), "ms");
    report.add("max_rate_rps", rate, "1/s");
    return report;
  }

  // ---- traced run ------------------------------------------------------
  addLayerProbes(incidents, distinctIncidents(pass, 4), report);

  // Four re-runs of the stream's prefix, a quarter of the measured seconds
  // each: untraced with the defaults (the base the others compare to, run
  // in the same warm process), traced, and one per ablated layer.
  const double rerun_seconds = context.seconds / 4.0;
  const PassResult untraced =
      rerun(incidents, pass, base, rerun_seconds, "re-run", report, good);

  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.setEnabled(true);
  const PassResult traced =
      rerun(incidents, pass, base, rerun_seconds, "traced pass", report,
            good);
  tracer.setEnabled(false);
  const std::vector<obs::SpanRecord> spans = tracer.collect();
  tracer.clear();
  report.add("trace.overhead_share", timeRatio(untraced, traced) - 1.0,
             "share");
  addAttribution(attribute(spans, "bench.incident"), report);

  // A layer's share: the part of the ablated incident time it saves.
  PassOptions no_incremental = base;
  no_incremental.repair.use_incremental = false;
  const PassResult without_incremental =
      rerun(incidents, pass, no_incremental, rerun_seconds,
            "ablation incremental", report, good);
  report.add("ablation.incremental.share",
             1.0 - 1.0 / timeRatio(untraced, without_incremental), "share");
  PassOptions no_batch = base;
  no_batch.repair.batch_validate = false;
  const PassResult without_batch = rerun(
      incidents, pass, no_batch, rerun_seconds, "ablation batch_validate",
      report, good);
  report.add("ablation.batch_validate.share",
             1.0 - 1.0 / timeRatio(untraced, without_batch), "share");
  countFailures();
  return report;
}

}  // namespace acr::e2e
