#include "yardstick.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "engine.hpp"
#include "measure.hpp"

namespace sensorbench {

namespace {

// ---------------------------------------------------------------- compute

constexpr std::size_t kCopyWords = (16u << 20) / sizeof(std::uint64_t);
constexpr std::size_t kTableWords = (8u << 20) / sizeof(std::uint64_t);
constexpr std::size_t kSortWords = 1u << 19;
constexpr int kCopies = 4;
constexpr std::size_t kUpdates = 1u << 22;

/// One thread's buffers, kept for the life of the process.
struct Arena {
  std::vector<std::uint64_t> src, dst, table, unsorted, work;
  Arena()
      : src(kCopyWords),
        dst(kCopyWords),
        table(kTableWords),
        unsorted(kSortWords),
        work(kSortWords) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& w : src) w = x = x * 6364136223846793005ull + 1;
    for (auto& w : unsorted) w = x = x * 6364136223846793005ull + 1;
  }
};

std::vector<std::unique_ptr<Arena>>& arenas() {
  static std::vector<std::unique_ptr<Arena>> all;
  return all;
}

/// Keeps the jobs' results alive, so the compiler keeps the jobs. Only
/// ever added to, atomically; nothing reads it.
std::atomic<std::uint64_t> sink{0};  // lint:allow(unguarded-mutable-static)

void compute_job(Arena& a) {
  for (int i = 0; i < kCopies; ++i) {
    // A bulk copy of words, as reading a capture does; no byte order.
    std::memcpy(a.dst.data(), a.src.data(),  // lint:allow(raw-memcpy)
                kCopyWords * sizeof(std::uint64_t));
  }
  std::uint64_t x = a.dst[kCopyWords / 2] | 1;
  for (std::size_t i = 0; i < kUpdates; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    a.table[x & (kTableWords - 1)] += x;
  }
  std::copy(a.unsorted.begin(), a.unsorted.end(), a.work.begin());
  std::sort(a.work.begin(), a.work.end());
  sink.fetch_add(x + a.work[kSortWords / 2], std::memory_order_relaxed);
}

// --------------------------------------------------------------- loopback

constexpr std::size_t kLoopDatagrams = 75000;
constexpr std::size_t kLoopBatch = 64;
constexpr std::size_t kLoopBytes = 69;  ///< the live stream's mean size
constexpr std::size_t kLoopSlot = 2048;
constexpr auto kLoopIdle = std::chrono::milliseconds(200);
constexpr auto kWorkerNap = std::chrono::microseconds(50);

struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// CPU seconds of one compute run, summed over its own threads: CPU the
/// rest of the process spends meanwhile is not the yardstick's.
double compute_run(std::size_t threads) {
  auto& all = arenas();
  while (all.size() < threads) {
    all.push_back(std::make_unique<Arena>());
    compute_job(*all.back());  // first touch of the table
  }
  std::vector<double> cpu(threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&all, &cpu, t] {
      const double start = thread_cpu_s();
      compute_job(*all[t]);
      cpu[t] = thread_cpu_s() - start;
    });
  }
  for (auto& th : pool) th.join();
  double total = 0;
  for (const double c : cpu) total += c;
  return total;
}

/// CPU seconds per datagram of one loopback run, summed over its
/// receiving and idle threads (the sender's excluded); negative without
/// sockets.
double loopback_run() {
  Fd rx, tx;
  rx.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  tx.fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  const int rcvbuf = 8 << 20;
  if (rx.fd < 0 || tx.fd < 0 ||
      ::setsockopt(rx.fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf) != 0 ||
      ::bind(rx.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::getsockname(rx.fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0 ||
      ::connect(tx.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    return -1;
  }

  std::atomic<bool> done{false};
  std::size_t received = 0;
  // CPU of the receiver, then of each idle worker.
  std::vector<double> cpu(1 + kShards);

  std::thread sender([&] {
    std::array<std::array<char, kLoopBytes>, kLoopBatch> payload{};
    std::array<iovec, kLoopBatch> iov{};
    std::array<mmsghdr, kLoopBatch> msgs{};
    for (std::size_t i = 0; i < kLoopBatch; ++i) {
      iov[i] = {payload[i].data(), kLoopBytes};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    const auto first = std::chrono::steady_clock::now();
    for (std::size_t sent = 0; sent < kLoopDatagrams; sent += kLoopBatch) {
      std::this_thread::sleep_until(
          first + std::chrono::duration<double>(static_cast<double>(sent) /
                                                kLivePps));
      (void)::sendmmsg(tx.fd, msgs.data(), kLoopBatch, 0);
    }
  });
  std::thread receiver([&] {
    const double start = thread_cpu_s();
    // On the heap: a thread's stack outlives it in glibc's stack cache,
    // and a program thread that later reuses a stack this one touched
    // would add less to the live replay's peak memory.
    std::vector<char> buf(kLoopBatch * kLoopSlot);
    std::array<iovec, kLoopBatch> iov{};
    std::array<mmsghdr, kLoopBatch> msgs{};
    for (std::size_t i = 0; i < kLoopBatch; ++i) {
      iov[i] = {buf.data() + i * kLoopSlot, kLoopSlot};
      msgs[i].msg_hdr.msg_iov = &iov[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
    }
    auto last = std::chrono::steady_clock::now();
    while (received < kLoopDatagrams &&
           std::chrono::steady_clock::now() - last < kLoopIdle) {
      pollfd pfd{rx.fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      const int n = ::recvmmsg(rx.fd, msgs.data(), kLoopBatch, MSG_DONTWAIT,
                               nullptr);
      if (n > 0) {
        received += static_cast<std::size_t>(n);
        last = std::chrono::steady_clock::now();
      }
    }
    done.store(true, std::memory_order_relaxed);
    cpu[0] = thread_cpu_s() - start;
  });
  std::vector<std::thread> workers;
  for (std::size_t i = 1; i <= kShards; ++i) {
    workers.emplace_back([&done, &cpu, i] {
      const double start = thread_cpu_s();
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(kWorkerNap);
      }
      cpu[i] = thread_cpu_s() - start;
    });
  }
  sender.join();
  receiver.join();
  for (auto& w : workers) w.join();
  if (received == 0) return -1;
  double total = 0;
  for (const double c : cpu) total += c;
  return total / static_cast<double>(received);
}

}  // namespace

double compute_slowdown(std::size_t threads) {
  // Medians of 40 runs on a 4-vCPU VM (Intel Xeon, 2.1 GHz) in a quiet
  // phase of its host (no steal).
  const double reference_s = threads <= 1 ? 0.0460 : 0.1415;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) runs.push_back(compute_run(threads) / reference_s);
  return median(std::move(runs));
}

double loopback_slowdown(int runs) {
  // Median of 40 runs on the same VM in a quiet phase.
  constexpr double kReferenceS = 0.90e-6;
  std::vector<double> times;
  for (int i = 0; i < runs; ++i) {
    const double cpu_s = loopback_run();
    if (cpu_s < 0) return 0;
    times.push_back(cpu_s / kReferenceS);
  }
  return median(std::move(times));
}

}  // namespace sensorbench
