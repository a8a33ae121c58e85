// Yardsticks: fixed jobs that use none of QUICsand's code, timed next to
// the measured work to gauge how fast the shared host is running right
// then. The VM's vCPUs share a host with other guests; when the host is
// busy, the same instructions take 1.7 to 3 times as long, in wall time
// and in CPU time alike. A time measured next to a yardstick is reported
// on the reference scale:
//
//   reported = measured / slowdown,
//   slowdown = yardstick's CPU time now / its reference CPU time
//
// so a busy phase of the host cancels out, while a change to the program
// moves only the measured side. The reference times are constants, the
// yardsticks' medians on the reference box in a quiet phase. CPU time,
// not wall time, gauges the host: the scheduler's share of a contended
// guest would move a yardstick whose threads all run at once more than
// it moves a pipeline whose threads wait on each other.
#pragma once

#include <cstddef>

namespace sensorbench {

/// Compute yardstick: `threads` threads at once, each streaming copies
/// over 16 MiB, random updates of an 8 MiB table and a sort: the kinds
/// of work a pass over a capture does (read, classify, sessionize). About
/// 50 ms on the reference box; the median of three runs. The buffers are
/// allocated and touched on the first call, which is not timed. Reference
/// times exist for 1 thread and for kShards + 1 (an offline pass's reader
/// and workers).
double compute_slowdown(std::size_t threads);

/// Loopback yardstick: the live path's kernel work without its analysis.
/// One thread sends 75,000 small datagrams over loopback UDP in batches
/// of 64 at the live rate, one receives them with poll and recvmmsg, and
/// two wake every 50 µs as idle shard workers do. Its CPU per datagram,
/// the sender's own CPU excluded as the live metric counts it, against
/// the reference: the median of `runs` runs of 0.5 s. 0 when loopback
/// sockets are unavailable.
double loopback_slowdown(int runs);

}  // namespace sensorbench
