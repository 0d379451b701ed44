// Runs a piece of the benchmark in a forked child process.
//
// Each measured pass and the reference run execute in a child of the
// (single-threaded) benchmark process: every pass starts from the same heap, and the
// child's peak RSS is that pass's alone, not the high-water mark of every
// pass before it.
#pragma once

#include <functional>
#include <string>

namespace perfbench {

struct ChildResult {
  std::string bytes;         ///< what `work` returned
  double peak_rss_mb = 0.0;  ///< the child's peak resident set size
};

/// Forks, runs `work` in the child, and returns its bytes once the child
/// has exited. Call only while this process runs no other thread. Throws
/// when the child fails or dies.
ChildResult run_in_child(const std::function<std::string()>& work);

}  // namespace perfbench
