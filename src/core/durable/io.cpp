#include "core/durable/io.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "obs/metrics.hpp"

namespace trustrate::core::durable {
namespace {

std::string describe_io(const char* op, const std::filesystem::path& path,
                        int err) {
  return std::string("cannot ") + op + " '" + path.string() +
         "': " + std::strerror(err) + " (errno " + std::to_string(err) + ")";
}

[[noreturn]] void throw_io(const char* op, const std::filesystem::path& path,
                           int err) {
  throw IoError(op, path.string(), err, describe_io(op, path, err));
}

void count_retry(const IoEnv& env) {
  if (env.retries_total != nullptr) env.retries_total->add(1);
}

void backoff(const IoEnv& env, std::uint32_t retry) {
  const std::uint64_t us = env.policy.transient.backoff_us(retry);
  if (env.policy.clock != nullptr && us > 0) env.policy.clock->sleep_us(us);
}

}  // namespace

DurableFile::DurableFile(const std::filesystem::path& path, IoEnv env)
    : path_(path), env_(env) {
#ifndef _WIN32
  do {
    fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  } while (fd_ < 0 && errno == EINTR);
  if (fd_ < 0) throw_io("open", path, errno);
  const off_t at = ::lseek(fd_, 0, SEEK_END);
  if (at < 0) {
    const int err = errno;
    close();
    throw_io("seek", path, err);
  }
  size_ = static_cast<std::uint64_t>(at);
#else
  throw Error("durable file I/O requires a POSIX platform");
#endif
}

DurableFile::~DurableFile() { close(); }

void DurableFile::close() {
#ifndef _WIN32
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

void DurableFile::append(std::string_view bytes) {
#ifndef _WIN32
  if (poisoned_) {
    throw IoError("write", path_.string(), EIO,
                  "refusing to write '" + path_.string() +
                      "': handle poisoned by a failed fsync (dirty pages may "
                      "have been dropped; reopen and rewrite from known-good "
                      "state)");
  }
  const std::size_t allowed =
      env_.crash != nullptr ? env_.crash->gate(bytes.size()) : bytes.size();
  std::size_t done = 0;
  std::uint32_t transient = 0;  // consecutive EIO/ENOSPC attempts
  while (done < allowed) {
    std::size_t want = allowed - done;
    int err = 0;
    bool injected_retry = false;
    if (env_.faults != nullptr) {
      const FaultInjector::WriteOutcome fault = env_.faults->on_write(want);
      if (fault.error != 0) {
        err = fault.error;
      } else if (fault.admit < want) {
        want = fault.admit;  // injected short write: persist a prefix only
        injected_retry = true;
      }
    }
    if (err == 0) {
      const ssize_t n = ::write(fd_, bytes.data() + done, want);
      if (n < 0) {
        err = errno;
      } else {
        done += static_cast<std::size_t>(n);
        transient = 0;
        if (injected_retry || static_cast<std::size_t>(n) < want) {
          count_retry(env_);  // short return — loop continues the suffix
        }
        continue;
      }
    }
    if (err == EINTR) {
      count_retry(env_);
      continue;
    }
    // EIO / ENOSPC (or anything else errno-backed): bounded retries with
    // backoff, then surface with full classification. size_ reflects the
    // prefix actually persisted so the caller's accounting stays exact.
    ++transient;
    if (transient >= env_.policy.transient.max_attempts) {
      size_ += done;
      throw_io("write", path_, err);
    }
    backoff(env_, transient);
    count_retry(env_);
  }
  size_ += done;
  if (allowed < bytes.size()) {
    throw CrashInjected("after byte " + std::to_string(size_) + " of '" +
                        path_.filename().string() + "'");
  }
#endif
}

void DurableFile::sync() {
#ifndef _WIN32
  if (env_.crash != nullptr && env_.crash->exhausted()) {
    throw CrashInjected("before fsync of '" + path_.filename().string() + "'");
  }
  if (fd_ < 0) return;
  if (poisoned_) {
    throw IoError("fsync", path_.string(), EIO,
                  "refusing to fsync '" + path_.string() +
                      "': handle already poisoned by a failed fsync (a "
                      "subsequent fsync success proves nothing)");
  }
  while (true) {
    int err = env_.faults != nullptr ? env_.faults->on_fsync() : 0;
    if (err == 0 && ::fsync(fd_) != 0) err = errno;
    if (err == 0) return;
    if (err == EINTR) {
      count_retry(env_);
      continue;
    }
    // The failed-fsync trap: the kernel may discard the dirty pages whose
    // writeback failed, and the NEXT fsync of the same fd can then report
    // success having proven nothing. Never retry — poison the handle.
    poisoned_ = true;
    throw IoError("fsync", path_.string(), err,
                  describe_io("fsync", path_, err) +
                      " — handle poisoned; dirty pages may have been "
                      "dropped, rewrite from known-good state");
  }
#endif
}

void atomic_write_file(const std::filesystem::path& path,
                       std::string_view bytes, IoEnv env) {
  const std::filesystem::path tmp = path.string() + kTempSuffix;
  {
    // Truncate a stale temp from an earlier crashed attempt before reuse.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    DurableFile file(tmp, env);
    file.append(bytes);
    file.sync();
  }
  if (env.crash != nullptr && env.crash->exhausted()) {
    throw CrashInjected("before rename of '" + tmp.filename().string() + "'");
  }
  std::uint32_t attempts = 0;
  while (true) {
    int err = env.faults != nullptr ? env.faults->on_rename() : 0;
    if (err == 0) {
      std::error_code ec;
      std::filesystem::rename(tmp, path, ec);
      if (ec) err = ec.value() != 0 ? ec.value() : EIO;
    }
    if (err == 0) break;
    ++attempts;
    if (attempts >= env.policy.transient.max_attempts) {
      // The old `path` is still live and the temp is complete + fsynced;
      // nothing torn. The caller decides whether to degrade.
      throw_io("rename", path, err);
    }
    backoff(env, attempts);
    count_retry(env);
  }
  sync_directory(path.parent_path(), env);
}

void sync_directory(const std::filesystem::path& dir, IoEnv env) {
#ifndef _WIN32
  if (env.crash != nullptr && env.crash->exhausted()) {
    throw CrashInjected("before directory fsync of '" + dir.string() + "'");
  }
  int fd;
  do {
    fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw_io("open directory", dir, errno);
  while (true) {
    int err = env.faults != nullptr ? env.faults->on_fsync() : 0;
    if (err == 0 && ::fsync(fd) != 0) err = errno;
    if (err == 0) break;
    if (err == EINTR) {
      count_retry(env);
      continue;
    }
    ::close(fd);
    throw_io("fsync directory", dir, err);
  }
  ::close(fd);
#else
  (void)dir;
  (void)env;
#endif
}

std::string read_file(const std::filesystem::path& path, const IoEnv& env) {
#ifndef _WIN32
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) throw_io("open for read", path, errno);
  std::string out;
  // Sized once from the inode (checkpoints run to tens of MB); the loop
  // below still reads to EOF, so a size that changed meanwhile is harmless.
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<std::size_t>(st.st_size));
  }
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) {
        count_retry(env);
        continue;
      }
      const int err = errno;
      ::close(fd);
      throw_io("read", path, err);
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
#else
  std::ifstream in(path, std::ios::binary);
  if (!in) throw_io("read", path, errno);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string out = buffer.str();
#endif
  if (env.faults != nullptr && !out.empty()) {
    std::uint64_t flip = 0;
    if (env.faults->on_read(&flip)) {
      out[static_cast<std::size_t>(flip % out.size())] ^=
          static_cast<char>(0x01);
    }
  }
  return out;
}

std::string stable_read_file(const std::filesystem::path& path,
                             const IoEnv& env) {
  std::string data = read_file(path, env);
  if (env.faults == nullptr) return data;
  // Two consecutive identical reads rule out a transient read fault; with
  // bounded read bursts this converges before the attempt budget runs out.
  // On persistent disagreement, the final read wins (the verdict layer
  // above still applies its own corruption handling).
  const std::uint32_t max_attempts =
      env.policy.transient.max_attempts < 2 ? 2
                                            : env.policy.transient.max_attempts;
  for (std::uint32_t i = 1; i < max_attempts; ++i) {
    std::string again = read_file(path, env);
    if (again == data) return data;
    count_retry(env);
    data = std::move(again);
  }
  return data;
}

}  // namespace trustrate::core::durable
