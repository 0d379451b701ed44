#include "testkit/faults.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/durable/durable_stream.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"

namespace trustrate::testkit {
namespace {

using core::durable::CrashInjected;
using core::durable::CrashInjector;
using core::durable::DurabilityState;
using core::durable::DurableOptions;
using core::durable::DurableStream;
using core::durable::FaultInjector;
using core::durable::FaultPlan;
using core::durable::VirtualIoClock;

std::string state_digest(const DurableStream& durable) {
  std::ostringstream bytes;
  core::save_checkpoint(durable.stream(), bytes);
  return bytes.str();
}

/// The semantic audit record: detection-side events only. Durability
/// transitions (and other infrastructure events) legitimately differ
/// between a faulted and a fault-free run; the *detections* must not.
std::string detection_audit_digest(const obs::MemoryAuditSink& sink) {
  std::string out;
  for (const obs::AuditEvent& event : sink.snapshot()) {
    if (event.type > obs::AuditEventType::kDegradedEpoch) continue;
    out += obs::to_jsonl(event);
    out += '\n';
  }
  return out;
}

std::uint64_t count_of(const obs::MemoryAuditSink& sink,
                       obs::AuditEventType type) {
  return static_cast<std::uint64_t>(sink.of_type(type).size());
}

void write_artifact(const std::filesystem::path& path,
                    const obs::MemoryAuditSink& sink,
                    const std::string& divergence) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  if (!out) return;
  out << "{\"divergence\":\"" << divergence << "\"}\n";
  for (const obs::AuditEvent& event : sink.snapshot()) {
    out << obs::to_jsonl(event) << '\n';
  }
}

/// One client run from wherever `durable` stands to end-of-stream,
/// mirroring the crash sweep's drive loop. CrashInjected escapes.
void drive(DurableStream& durable, const RatingSeries& arrivals,
           std::size_t checkpoint_every) {
  while (durable.acknowledged() < arrivals.size()) {
    durable.submit(arrivals[durable.acknowledged()]);
    if (checkpoint_every != 0 &&
        durable.acknowledged() % checkpoint_every == 0) {
      durable.checkpoint();
    }
  }
  durable.flush();
  durable.checkpoint();
}

}  // namespace

FaultSweepResult run_fault_sweep(const Scenario& scenario,
                                 const std::filesystem::path& dir,
                                 const FaultSweepOptions& options) {
  namespace fs = std::filesystem;
  FaultSweepResult result;
  const RatingSeries arrivals = make_arrivals(scenario).arrivals;
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Fault-free reference: the digests every faulted run must converge to.
  // The empty-plan injector riding along injects nothing; it counts the
  // run's I/O ops so plan horizons can be clamped to ops the run actually
  // performs (a fault scheduled past end-of-run would never fire and the
  // plan could never heal).
  std::string reference_state;
  std::string reference_audit;
  FaultInjector sizing;
  {
    obs::MetricsRegistry metrics;
    obs::MemoryAuditSink audit(1 << 20);
    DurableOptions ref_options;
    ref_options.fsync = options.fsync;
    ref_options.faults = &sizing;
    ref_options.obs = {&metrics, nullptr, &audit};
    DurableStream durable(dir / "ref", scenario.config, scenario.epoch_days,
                          scenario.retention_epochs, scenario.ingest,
                          ref_options);
    drive(durable, arrivals, options.checkpoint_every);
    reference_state = state_digest(durable);
    reference_audit = detection_audit_digest(audit);
  }
  core::durable::FaultPlanOptions plan_options = options.plan;
  plan_options.horizon_ops =
      std::min<std::uint64_t>(plan_options.horizon_ops,
                              std::max<std::uint64_t>(
                                  8, sizing.ops(core::durable::IoOp::kWrite) *
                                         3 / 4));

  for (std::size_t i = 0; i < options.plans; ++i) {
    const std::uint64_t plan_seed =
        options.plan_seed_base + 1000003ull * scenario.seed + i;
    const FaultPlan plan = FaultPlan::generate(plan_seed, plan_options);

    const auto fail = [&](const obs::MemoryAuditSink& audit,
                          const std::string& what) {
      result.ok = false;
      result.divergence = "seed " + std::to_string(scenario.seed) + " [" +
                          scenario.summary + "] fault plan " +
                          std::to_string(plan_seed) + " (" + plan.summary() +
                          "): " + what;
      write_artifact(options.audit_artifact, audit, result.divergence);
      return result;
    };

    ++result.plans_run;

    if (!options.with_crashes) {
      const fs::path run_dir = dir / ("plan" + std::to_string(i));
      fs::remove_all(run_dir);
      FaultInjector injector(plan);
      VirtualIoClock clock;
      obs::MetricsRegistry metrics;
      obs::MemoryAuditSink audit(1 << 20);
      DurableOptions fault_options;
      fault_options.fsync = options.fsync;
      fault_options.faults = &injector;
      fault_options.io.clock = &clock;
      fault_options.heal_probe_every = options.heal_probe_every;
      fault_options.obs = {&metrics, nullptr, &audit};
      try {
        DurableStream durable(run_dir, scenario.config, scenario.epoch_days,
                              scenario.retention_epochs, scenario.ingest,
                              fault_options);
        drive(durable, arrivals, options.checkpoint_every);
        result.faults_injected += injector.injected();
        result.degradations +=
            count_of(audit, obs::AuditEventType::kDurabilityDegraded);
        result.heals +=
            count_of(audit, obs::AuditEventType::kDurabilityRestored);

        if (state_digest(durable) != reference_state) {
          return fail(audit, "final state diverged from the fault-free run");
        }
        if (detection_audit_digest(audit) != reference_audit) {
          return fail(audit,
                      "detection audit trail diverged from the fault-free run");
        }
        if (injector.exhausted()) {
          ++result.healed_plans;
          if (durable.durability_state() != DurabilityState::kDurable) {
            return fail(audit, "plan exhausted but the stream is still " +
                                   std::string(to_string(
                                       durable.durability_state())));
          }
          if (durable.durable_acknowledged() != durable.acknowledged()) {
            return fail(
                audit,
                "healed stream still excludes " +
                    std::to_string(durable.acknowledged() -
                                   durable.durable_acknowledged()) +
                    " acknowledged rating(s) from the durable cursor");
          }
          // The healed directory must rebuild the identical state cold.
          DurableOptions reopen_options;
          reopen_options.fsync = options.fsync;
          DurableStream reopened(run_dir, scenario.config, scenario.epoch_days,
                                 scenario.retention_epochs, scenario.ingest,
                                 reopen_options);
          if (reopened.acknowledged() != durable.acknowledged() ||
              state_digest(reopened) != reference_state) {
            return fail(audit,
                        "cold re-open of the healed directory diverged");
          }
        }
      } catch (const Error& e) {
        obs::MemoryAuditSink empty(1);
        return fail(audit.recorded() > 0 ? audit : empty,
                    std::string("fault run threw: ") + e.what());
      }
      fs::remove_all(run_dir);
      continue;
    }

    // Composed mode: this plan's fault-only run sizes the crash sweep, then
    // every sampled budget kills the process mid-faulty-run and recovery
    // proceeds under the continuing plan.
    std::uint64_t total_bytes = 0;
    {
      const fs::path ref_dir = dir / ("plan" + std::to_string(i) + "-ref");
      fs::remove_all(ref_dir);
      FaultInjector injector(plan);
      VirtualIoClock clock;
      CrashInjector counter;  // unarmed: counts durable bytes
      DurableOptions fault_options;
      fault_options.fsync = options.fsync;
      fault_options.faults = &injector;
      fault_options.crash = &counter;
      fault_options.io.clock = &clock;
      fault_options.heal_probe_every = options.heal_probe_every;
      obs::MemoryAuditSink audit(1 << 20);
      try {
        DurableStream durable(ref_dir, scenario.config, scenario.epoch_days,
                              scenario.retention_epochs, scenario.ingest,
                              fault_options);
        drive(durable, arrivals, options.checkpoint_every);
        if (state_digest(durable) != reference_state) {
          return fail(audit, "fault-only composed reference diverged");
        }
      } catch (const Error& e) {
        return fail(audit, std::string("composed reference threw: ") + e.what());
      }
      total_bytes = counter.total_written();
      result.faults_injected += injector.injected();
      if (injector.exhausted()) ++result.healed_plans;
      fs::remove_all(ref_dir);
    }

    for (std::uint64_t k = options.crash_first;; k += options.crash_stride) {
      const bool past_end = k >= total_bytes;
      const fs::path run_dir =
          dir / ("plan" + std::to_string(i) + "-k" + std::to_string(k));
      fs::remove_all(run_dir);

      FaultInjector injector(plan);
      VirtualIoClock clock;
      CrashInjector crash;
      crash.arm(k);
      obs::MetricsRegistry metrics;
      obs::MemoryAuditSink audit(1 << 20);

      const auto fail_k = [&](const std::string& what) {
        return fail(audit, "crash budget k=" + std::to_string(k) + ": " + what);
      };

      DurableOptions crash_options;
      crash_options.fsync = options.fsync;
      crash_options.faults = &injector;
      crash_options.crash = &crash;
      crash_options.io.clock = &clock;
      crash_options.heal_probe_every = options.heal_probe_every;
      crash_options.obs = {&metrics, nullptr, &audit};

      std::uint64_t client_acked = 0;
      std::uint64_t client_durable = 0;
      bool crashed = false;
      std::string outcome;
      try {
        DurableStream durable(run_dir, scenario.config, scenario.epoch_days,
                              scenario.retention_epochs, scenario.ingest,
                              crash_options);
        while (durable.acknowledged() < arrivals.size()) {
          durable.submit(arrivals[durable.acknowledged()]);
          client_acked = durable.acknowledged();
          if (durable.durable_acknowledged() > client_durable) {
            client_durable = durable.durable_acknowledged();
          }
          if (options.checkpoint_every != 0 &&
              client_acked % options.checkpoint_every == 0) {
            durable.checkpoint();
            if (durable.durable_acknowledged() > client_durable) {
              client_durable = durable.durable_acknowledged();
            }
          }
        }
        durable.flush();
        durable.checkpoint();
        outcome = state_digest(durable);
      } catch (const CrashInjected&) {
        crashed = true;
      }

      if (!crashed) {
        ++result.clean_points;
        if (!past_end) {
          return fail_k("budget below the run's durable bytes did not crash");
        }
        if (outcome != reference_state) {
          return fail_k("outlived run's final state diverged");
        }
      } else {
        ++result.crash_points;
        // Cold recovery under the CONTINUING fault plan: the environment
        // does not heal just because the process died.
        try {
          DurableOptions recover_options;
          recover_options.fsync = options.fsync;
          recover_options.faults = &injector;
          recover_options.io.clock = &clock;
          recover_options.heal_probe_every = options.heal_probe_every;
          DurableStream durable(run_dir, scenario.config, scenario.epoch_days,
                                scenario.retention_epochs, scenario.ingest,
                                recover_options);
          if (durable.acknowledged() < client_durable) {
            return fail_k("lost durably-acknowledged ratings: client saw " +
                          std::to_string(client_durable) +
                          " durable acks, recovery restored " +
                          std::to_string(durable.acknowledged()));
          }
          if (durable.acknowledged() > client_acked + 1) {
            return fail_k("recovered " + std::to_string(durable.acknowledged()) +
                          " submissions but the client was only acked " +
                          std::to_string(client_acked));
          }
          drive(durable, arrivals, options.checkpoint_every);
          if (state_digest(durable) != reference_state) {
            return fail_k(
                "recovered + resumed run's final state diverged from the "
                "fault-free run");
          }
        } catch (const Error& e) {
          return fail_k(std::string("recovery threw: ") + e.what());
        }
      }
      fs::remove_all(run_dir);
      if (past_end) break;
    }
  }

  fs::remove_all(dir);  // left behind on failure as a repro artifact
  return result;
}

}  // namespace trustrate::testkit
