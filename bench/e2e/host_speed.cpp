// Host-speed reference for the wall-clock metrics.
//
// On a small VM whose caches, memory bandwidth and clock are shared with
// other tenants, the same binary runs up to a third slower for minutes at a
// time. Two fixed kernels that depend on nothing in src/ are timed next to
// every measured unit, and run.py scales each unit's rate by how much
// slower than nominal they ran:
//   * allocation churn — the fleet's dominant cost class — run in a helper
//     process forked at start-up, so its heap never shares state with the
//     code under test;
//   * a dependent integer chain in this process, which tracks the clock.
// The helper only runs while this process waits for its answer, on the same
// pinned CPU, and exits when the pipe closes.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "e2e.hpp"

namespace sdr::e2e {
namespace {

int g_request_fd = -1;
int g_reply_fd = -1;
pid_t g_helper = -1;

double heap_churn_s() {
  constexpr int kObjects = 25000;
  const double t0 = now_s();
  std::vector<std::vector<int>*> objects;
  objects.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) {
    objects.push_back(new std::vector<int>(i % 64 + 1, i));
  }
  for (std::vector<int>* o : objects) delete o;
  return now_s() - t0;
}

double integer_chain_s() {
  std::uint64_t x = 88172645463325252ULL;
  const double t0 = now_s();
  for (int i = 0; i < 2000000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  asm volatile("" : : "r"(x));
  return now_s() - t0;
}

[[noreturn]] void helper_loop(int request_fd, int reply_fd) {
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  char c = 0;
  while (read(request_fd, &c, 1) == 1) {
    const double t = heap_churn_s();
    if (write(reply_fd, &t, sizeof(t)) != sizeof(t)) break;
  }
  _exit(0);
}

}  // namespace

bool start_host_speed() {
  int request[2];
  int reply[2];
  if (pipe(request) != 0) return false;
  if (pipe(reply) != 0) {
    close(request[0]);
    close(request[1]);
    return false;
  }
  std::fflush(nullptr);  // the helper must not re-emit buffered output
  g_helper = fork();
  if (g_helper == 0) {
    close(request[1]);
    close(reply[0]);
    helper_loop(request[0], reply[1]);
  }
  close(request[0]);
  close(reply[1]);
  g_request_fd = request[1];
  g_reply_fd = reply[0];
  return g_helper > 0;
}

HostSpeed host_speed() {
  HostSpeed h;
  h.alu_s = integer_chain_s();
  const char c = 1;
  double t = 0.0;
  if (write(g_request_fd, &c, 1) == 1 &&
      read(g_reply_fd, &t, sizeof(t)) == sizeof(t)) {
    h.heap_s = t;
  }
  return h;
}

void stop_host_speed() {
  if (g_helper <= 0) return;
  close(g_request_fd);
  close(g_reply_fd);
  int status = 0;
  waitpid(g_helper, &status, 0);
  g_helper = -1;
}

}  // namespace sdr::e2e
