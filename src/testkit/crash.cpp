#include "testkit/crash.hpp"

#include <sstream>

#include "core/checkpoint.hpp"
#include "core/durable/durable_stream.hpp"

namespace trustrate::testkit {
namespace {

using core::durable::CrashInjected;
using core::durable::CrashInjector;
using core::durable::DurableOptions;
using core::durable::DurableStream;

std::string final_checkpoint(const DurableStream& durable) {
  std::ostringstream bytes;
  core::save_checkpoint(durable.stream(), bytes);
  return bytes.str();
}

/// One client run from wherever `durable` stands to end-of-stream: the
/// resume cursor is acknowledged(), checkpoints ride on the ack count.
/// Returns the final checkpoint bytes; CrashInjected escapes to the caller.
std::string drive(DurableStream& durable, const RatingSeries& arrivals,
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
  return final_checkpoint(durable);
}

}  // namespace

CrashSweepResult run_crash_sweep(const Scenario& scenario,
                                 const std::filesystem::path& dir,
                                 const CrashSweepOptions& options) {
  namespace fs = std::filesystem;
  CrashSweepResult result;
  const RatingSeries arrivals = make_arrivals(scenario).arrivals;
  fs::remove_all(dir);

  const auto fail = [&](std::uint64_t k, const std::string& what) {
    result.ok = false;
    result.divergence = "seed " + std::to_string(scenario.seed) + " [" +
                        scenario.summary + "] crash budget k=" +
                        std::to_string(k) + ": " + what;
    return result;
  };

  // Uninterrupted reference run; the unarmed injector counts the durable
  // bytes the full run produces, which bounds the sweep.
  std::string reference;
  {
    CrashInjector counter;
    DurableOptions ref_options;
    ref_options.fsync = options.fsync;
    ref_options.crash = &counter;
    DurableStream durable(dir / "ref", scenario.config, scenario.epoch_days,
                          scenario.retention_epochs, scenario.ingest,
                          ref_options);
    reference = drive(durable, arrivals, options.checkpoint_every);
    result.total_bytes = counter.total_written();
  }

  for (std::uint64_t k = options.first;; k += options.stride) {
    const bool past_end = k >= result.total_bytes;
    // Appended rather than "k" + to_string(k): gcc 12 flags that operator+
    // with a false-positive -Wrestrict.
    fs::path run_dir = dir / "k";
    run_dir += std::to_string(k);
    fs::remove_all(run_dir);

    CrashInjector injector;
    injector.arm(k);
    DurableOptions crash_options;
    crash_options.fsync = options.fsync;
    crash_options.crash = &injector;

    // Phase 1: run until the injector kills the "process" (or to the end
    // when k covers the whole run).
    std::uint64_t client_acked = 0;
    bool crashed = false;
    std::string outcome;
    try {
      DurableStream durable(run_dir, scenario.config, scenario.epoch_days,
                            scenario.retention_epochs, scenario.ingest,
                            crash_options);
      while (durable.acknowledged() < arrivals.size()) {
        durable.submit(arrivals[durable.acknowledged()]);
        client_acked = durable.acknowledged();
        if (options.checkpoint_every != 0 &&
            client_acked % options.checkpoint_every == 0) {
          durable.checkpoint();
        }
      }
      durable.flush();
      durable.checkpoint();
      outcome = final_checkpoint(durable);
    } catch (const CrashInjected&) {
      crashed = true;
    }

    if (!crashed) {
      ++result.clean_points;
      if (!past_end) {
        return fail(k, "budget below the run's durable bytes did not crash");
      }
      if (outcome != reference) {
        return fail(k, "outlived run's final checkpoint diverged");
      }
    } else {
      ++result.crash_points;
      // Phase 2: cold recovery, resume at the exactly-once cursor, finish.
      try {
        DurableOptions recover_options;
        recover_options.fsync = options.fsync;
        DurableStream durable(run_dir, scenario.config, scenario.epoch_days,
                              scenario.retention_epochs, scenario.ingest,
                              recover_options);
        if (durable.acknowledged() < client_acked) {
          return fail(k, "lost acknowledged ratings: client saw " +
                             std::to_string(client_acked) +
                             " acks, recovery restored " +
                             std::to_string(durable.acknowledged()));
        }
        // At most the one in-flight (never-acknowledged) submission may
        // have reached the log before the crash.
        if (durable.acknowledged() > client_acked + 1) {
          return fail(k, "recovered " +
                             std::to_string(durable.acknowledged()) +
                             " submissions but the client was only acked " +
                             std::to_string(client_acked));
        }
        if (drive(durable, arrivals, options.checkpoint_every) != reference) {
          return fail(k,
                      "recovered + resumed run's final checkpoint diverged "
                      "from the uninterrupted run");
        }
      } catch (const Error& e) {
        return fail(k, std::string("recovery threw: ") + e.what());
      }
    }
    fs::remove_all(run_dir);
    if (past_end) break;
  }

  fs::remove_all(dir);  // left behind on failure as a repro artifact
  return result;
}

}  // namespace trustrate::testkit
