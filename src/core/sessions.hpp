// Sessionization (§5.1): packets from one source belong to the same
// session while the inactivity gap stays below a timeout. The paper picks
// 5 minutes from the knee of the session-count-vs-timeout curve (Fig. 4),
// matching Moore et al.'s established thresholds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/record.hpp"
#include "core/units.hpp"
#include "util/sharded_counter.hpp"

namespace quicsand::core {

/// Exact set of 64-bit keys: open addressing with linear probing over
/// one power-of-two slot array that is at most half full, so each
/// distinct key costs 16–32 bytes and an insert of a key already present
/// allocates nothing. Slot value 0 marks an empty slot; key 0 itself is
/// held by a flag. Equality compares contents, not slot layout, so it
/// does not depend on insertion order.
class FlatSet {
 public:
  /// Adds `key`; returns whether it was new.
  bool insert(std::uint64_t key) {
    if (key == 0) {
      const bool inserted = !has_zero_;
      has_zero_ = true;
      return inserted;
    }
    if (slots_.empty()) slots_.assign(kMinSlots, 0);
    auto slot = find_slot(key);
    if (slots_[slot] == key) return false;
    if (2 * (nonzero_ + 1) > slots_.size()) {
      grow();
      slot = find_slot(key);
    }
    slots_[slot] = key;
    ++nonzero_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t key) const {
    if (key == 0) return has_zero_;
    return !slots_.empty() && slots_[find_slot(key)] == key;
  }

  [[nodiscard]] std::size_t size() const {
    return nonzero_ + (has_zero_ ? 1 : 0);
  }

  friend bool operator==(const FlatSet& a, const FlatSet& b);

 private:
  static constexpr std::size_t kMinSlots = 8;

  /// The slot holding `key`, or the empty slot where it would go.
  [[nodiscard]] std::size_t find_slot(std::uint64_t key) const {
    const auto mask = slots_.size() - 1;
    auto slot = static_cast<std::size_t>(util::mix64(key)) & mask;
    while (slots_[slot] != 0 && slots_[slot] != key) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void grow();

  std::vector<std::uint64_t> slots_;
  std::size_t nonzero_ = 0;
  bool has_zero_ = false;
};

struct Session {
  net::Ipv4Address source;
  util::Timestamp start{};
  util::Timestamp end{};
  PacketCount packets{};
  std::uint64_t bytes = 0;
  /// Running 1-minute packet count for peak_pps(): the open minute slot
  /// since `start` (see absorb_record), its count so far, and the
  /// highest count any slot reached.
  std::int64_t minute_slot = 0;
  std::uint32_t minute_count = 0;
  std::uint32_t best_minute = 0;
  /// Distinct counter hashes: SCIDs, peer addresses, (addr, port) pairs.
  /// Only QUIC records (kQuicRequest / kQuicResponse) enter these sets:
  /// their one reader is the per-attack provider profile (Figure 9) of
  /// QUIC floods, while TCP/ICMP backscatter is most of a telescope's
  /// records. A TCP/ICMP session's sets are empty, and a filter that
  /// mixes classes counts only its QUIC records here.
  FlatSet scids;
  FlatSet peers;
  FlatSet peer_ports;
  /// QUIC message composition, and the version mix as (version, packets)
  /// pairs sorted by version.
  std::array<std::uint64_t, kQuicKindCount> kind_counts{};
  std::vector<std::pair<std::uint32_t, std::uint64_t>> version_counts;

  [[nodiscard]] util::Duration duration() const { return end - start; }

  /// Highest 1-minute packet rate, in packets per second.
  [[nodiscard]] Pps peak_pps() const { return per_minute_rate(best_minute); }

  friend bool operator==(const Session&, const Session&) = default;
};

/// Fold one record into an open session (shared by build_sessions and
/// the online detector). Minute slots are (i·60s, (i+1)·60s] relative to
/// the session start, with the start packet in slot 0: a packet exactly
/// 60 s after the start has one minute of elapsed activity and belongs
/// to the closing minute rather than opening a phantom trailing slot.
/// Out-of-order records are defined, not trusted: a record whose slot
/// lies before the open one counts in the open minute, and `end` never
/// moves backwards. On time-ordered input every slot's count is exact.
void absorb_record(Session& session, const PacketRecord& record);

/// Strict ordering of session lists: by start time, ties broken by
/// source. Two distinct sessions never compare equal (a source's
/// sessions are time-disjoint), so sorted output is unique.
[[nodiscard]] bool session_before(const Session& a, const Session& b);

/// Which records an analysis reads: a set of traffic classes, whether
/// research-scanner sources count, and one source shard of `shards`
/// (util::shard_of, the partition ParallelPipeline analyses by). A plain
/// value, so the test inlines into the per-record loops.
struct RecordFilter {
  std::uint8_t classes = 0;  ///< bit i passes TrafficClass i
  bool include_research = false;
  std::size_t shard = 0;
  std::size_t shards = 1;

  [[nodiscard]] bool operator()(const PacketRecord& record) const {
    return ((classes >> static_cast<unsigned>(record.cls)) & 1U) != 0 &&
           (include_research || !record.is_research) &&
           util::shard_of(record.src.value(), shards) == shard;
  }
};

/// Standard filters.
RecordFilter quic_request_filter(bool include_research = false);
RecordFilter quic_response_filter();
RecordFilter common_backscatter_filter();  ///< TCP + ICMP backscatter
RecordFilter sanitized_quic_filter();      ///< both QUIC directions

/// A record stream stored as consecutive segments (ParallelPipeline keeps
/// one per ingest batch), read in segment order.
using RecordSegments = std::span<const std::span<const PacketRecord>>;

/// Group the filtered records into per-source sessions with the given
/// inactivity timeout. Records must be in non-decreasing time order
/// (pcap / generator order). Sessions are returned sorted by start time.
std::vector<Session> build_sessions(RecordSegments segments,
                                    util::Duration timeout,
                                    const RecordFilter& filter);
/// One-segment form of the above.
std::vector<Session> build_sessions(std::span<const PacketRecord> records,
                                    util::Duration timeout,
                                    const RecordFilter& filter);

/// K-way merge of session lists each sorted by `session_before` (the
/// order build_sessions returns). When the parts partition the record
/// stream by source, the merged list is identical to sessionizing the
/// whole stream at once — sessionization is source-local.
struct SessionMerge {
  std::vector<Session> sessions;
  /// global_index[part][i] = position of part's i-th session in
  /// `sessions` (for remapping per-part DetectedAttack indices).
  std::vector<std::vector<std::size_t>> global_index;
};

SessionMerge merge_sessions(std::vector<std::vector<Session>> parts);

/// Per-source inactivity gaps of a filtered record span — the sufficient
/// statistic for the timeout sweep. Profiles of a source-partitioned
/// stream combine by summing `sources` and concatenating `gaps`.
struct GapProfile {
  std::uint64_t sources = 0;
  std::vector<util::Duration> gaps;  ///< unsorted
};

GapProfile collect_gap_profile(RecordSegments segments,
                               const RecordFilter& filter);
GapProfile collect_gap_profile(std::span<const PacketRecord> records,
                               const RecordFilter& filter);
void merge_gap_profiles(GapProfile& into, GapProfile&& from);

/// Session count per timeout from a gap profile: for timeout T the count
/// is `sources` + the number of gaps above T.
std::vector<std::pair<util::Duration, std::uint64_t>> sweep_counts(
    GapProfile profile, std::span<const util::Duration> timeouts);

/// Number of sessions for each timeout in `timeouts` (Figure 4 sweep),
/// computed in one pass over the inactivity-gap distribution. A timeout
/// of util::Duration max plays the role of the paper's timeout=inf lower
/// bound (one session per source).
std::vector<std::pair<util::Duration, std::uint64_t>> timeout_sweep(
    std::span<const PacketRecord> records,
    std::span<const util::Duration> timeouts, const RecordFilter& filter);

}  // namespace quicsand::core
