// Error handling for trustrate.
//
// Policy (see DESIGN.md §6): violated preconditions throw; expected numeric
// degeneracies are reported in-band by the functions that can hit them.
// The streaming front-end goes one step further: bad *stream data* (late,
// duplicated, malformed ratings) is classified and quarantined in-band by
// core/ingest.hpp rather than thrown — a hostile stream must not take the
// service down.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <utility>

namespace trustrate {

/// Base class for all library-thrown errors.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition.
class PreconditionError : public Error {
 public:
  explicit PreconditionError(const std::string& what) : Error(what) {}
};

/// Thrown when external data (a trace file, a CSV row) is malformed.
class DataError : public Error {
 public:
  explicit DataError(const std::string& what) : Error(what) {}
};

/// Thrown when a streaming checkpoint cannot be restored (truncated file,
/// unknown version, corrupted section). A DataError so generic persistence
/// handlers catch it too.
class CheckpointError : public DataError {
 public:
  explicit CheckpointError(const std::string& what) : DataError(what) {}
};

/// Thrown when the write-ahead log is corrupt in a way recovery must not
/// paper over: a bad frame *followed by valid data* (mid-log corruption,
/// not a torn tail), a segment sequence gap, or a replay that disagrees
/// with the recorded outcome. A torn tail — a partial final write with
/// nothing after it — is NOT an error; recovery truncates it.
class WalError : public DataError {
 public:
  explicit WalError(const std::string& what) : DataError(what) {}
};

/// Thrown when the recovery ladder runs out of options: every checkpoint is
/// corrupt (or none exists) and the WAL does not reach back to the start of
/// the stream, so some acknowledged state is unrecoverable.
class RecoveryError : public DataError {
 public:
  explicit RecoveryError(const std::string& what) : DataError(what) {}
};

/// Thrown when an environmental I/O fault (ENOSPC, EIO, a failed fsync or
/// rename) persists past the IoPolicy retry budget. Carries the failed
/// operation, the path, and the errno so degradation-ladder logs are
/// actionable; the durable front-end catches it and degrades rather than
/// letting it kill the pipeline.
class IoError : public DataError {
 public:
  IoError(std::string op, std::string path, int error_code,
          const std::string& what)
      : DataError(what),
        op_(std::move(op)),
        path_(std::move(path)),
        error_code_(error_code) {}

  /// The failed operation ("write", "fsync", "rename", "read", "open").
  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  /// The errno that persisted after retries (0 when not errno-backed).
  int error_code() const { return error_code_; }

 private:
  std::string op_;
  std::string path_;
  int error_code_;
};

/// How a supervised shard pipeline failed (DESIGN.md §15).
enum class ShardFailureKind {
  kPoisoned,  ///< a worker threw; its exception is stashed and rethrowable
  kStalled,   ///< the watchdog saw a non-empty inbox with no progress
  kWedged,    ///< a bounded quiesce/publish wait ran out its tick deadline
};

constexpr const char* to_string(ShardFailureKind kind) {
  switch (kind) {
    case ShardFailureKind::kPoisoned: return "poisoned";
    case ShardFailureKind::kStalled:  return "stalled";
    case ShardFailureKind::kWedged:   return "wedged";
  }
  return "unknown";
}

/// Thrown by every public entry point of a sharded pipeline once
/// supervision has latched a failure: a shard worker (or the merge thread)
/// threw, stalled past the watchdog budget, or wedged a bounded wait. The
/// pipeline fail-stops — queues are closed, threads unwound — instead of
/// hanging or calling std::terminate; a durable front-end catches this and
/// heals by rebuilding from checkpoint + WAL. `shard()` equal to the
/// shard count designates the merge thread.
class ShardFailure : public Error {
 public:
  ShardFailure(ShardFailureKind kind, std::size_t shard,
               std::string diagnostic, const std::string& what)
      : Error(what), kind_(kind), shard_(shard),
        diagnostic_(std::move(diagnostic)) {}

  ShardFailureKind kind() const { return kind_; }
  /// Index of the failed shard (== shard count for the merge thread).
  std::size_t shard() const { return shard_; }
  /// Progress counters at classification time: inbox depth, events pushed
  /// vs processed, heartbeat age — the operator-facing wedge evidence.
  const std::string& diagnostic() const { return diagnostic_; }

 private:
  ShardFailureKind kind_;
  std::size_t shard_;
  std::string diagnostic_;
};

namespace detail {
[[noreturn]] void fail_precondition(const char* expr, const char* file, int line,
                                    const std::string& msg);
}  // namespace detail

}  // namespace trustrate

/// Precondition check: throws trustrate::PreconditionError when `expr` is
/// false. Always on (the checked conditions are cheap interface contracts,
/// not inner-loop asserts).
#define TRUSTRATE_EXPECTS(expr, msg)                                          \
  do {                                                                        \
    if (!(expr)) {                                                            \
      ::trustrate::detail::fail_precondition(#expr, __FILE__, __LINE__, msg); \
    }                                                                         \
  } while (false)
