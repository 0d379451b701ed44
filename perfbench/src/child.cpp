#include "child.hpp"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>

namespace perfbench {

ChildResult run_in_child(const std::function<std::string()>& work) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      const std::string out = work();
      std::size_t done = 0;
      while (done < out.size()) {
        const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
      if (done == out.size()) code = 0;
    } catch (...) {
    }
    close(fds[1]);
    _exit(code);  // no destructors or atexit handlers of the parent's state
  }
  close(fds[1]);
  ChildResult result;
  char buffer[1 << 16];
  while (true) {
    const ssize_t n = read(fds[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    result.bytes.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("benchmark child process failed");
  }
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return result;
}

}  // namespace perfbench
