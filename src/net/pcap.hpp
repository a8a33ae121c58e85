// Classic libpcap file format (.pcap) reader and writer.
//
// Implemented from the format specification (the 24-byte global header
// with magic 0xa1b2c3d4 followed by 16-byte per-record headers). We write
// LINKTYPE_RAW (101): records are bare IPv4 datagrams, which is the
// natural format for telescope data and avoids synthesizing Ethernet
// headers. The reader also accepts LINKTYPE_ETHERNET (1) and strips the
// 14-byte Ethernet header so real captures can be analyzed.
#pragma once

#include <cstdint>
#include <fstream>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "obs/hooks.hpp"

namespace quicsand::net {

constexpr std::uint32_t kPcapMagicMicros = 0xa1b2c3d4;
constexpr std::uint32_t kPcapMagicNanos = 0xa1b23c4d;
constexpr std::uint32_t kLinktypeEthernet = 1;
constexpr std::uint32_t kLinktypeRaw = 101;

class PcapWriter {
 public:
  /// Opens (truncates) `path` and writes the global header.
  /// Throws std::runtime_error if the file cannot be created.
  explicit PcapWriter(const std::string& path,
                      std::uint32_t linktype = kLinktypeRaw);

  void write(const RawPacket& packet);

  [[nodiscard]] std::uint64_t packets_written() const { return count_; }

 private:
  std::ofstream out_;
  std::uint64_t count_ = 0;
};

class PcapReader {
 public:
  /// Opens `path` and parses the global header.
  /// Throws std::runtime_error on open failure or bad magic.
  explicit PcapReader(const std::string& path);

  /// Reads from a caller-owned stream (in-memory captures, sockets,
  /// fuzz drivers). The stream must outlive the reader. Throws
  /// std::runtime_error on bad magic, like the file constructor.
  explicit PcapReader(std::istream& in);

  /// Read the next record as a raw IPv4 datagram (Ethernet stripped when
  /// the capture is LINKTYPE_ETHERNET). Returns nullopt at end of file.
  /// Throws std::runtime_error on a truncated record. Records are parsed
  /// out of a block buffer refilled from the stream, so the reader may
  /// consume the stream ahead of the record it returns.
  std::optional<RawPacket> next();

  /// Convenience: invoke `fn` for each remaining packet; returns count.
  std::uint64_t for_each(const std::function<void(const RawPacket&)>& fn);

  [[nodiscard]] std::uint32_t linktype() const { return linktype_; }

  /// Attach a metrics registry: counts packets/bytes read, truncated
  /// records (before the exception) and stripped Ethernet frames under
  /// "pcap.*". Pass nullptr to detach.
  void set_metrics(obs::MetricsRegistry* metrics);

 private:
  void read_global_header();
  /// Makes at least `need` unread bytes available in buf_, reading whole
  /// blocks from the stream (and growing buf_ when `need` exceeds it);
  /// returns false when the stream ends first.
  bool fill(std::size_t need);
  /// Counts a truncated record, then throws `what`.
  [[noreturn]] void fail_truncated(const char* what);

  std::ifstream file_;
  std::istream* in_ = nullptr;  ///< &file_ or the caller's stream
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;  ///< first unread byte of buf_
  std::size_t end_ = 0;  ///< one past the last byte read into buf_
  bool stream_done_ = false;
  std::uint32_t linktype_ = kLinktypeRaw;
  bool nanos_ = false;
  bool swapped_ = false;
  obs::Counter* packets_counter_ = nullptr;
  obs::Counter* bytes_counter_ = nullptr;
  obs::Counter* truncated_counter_ = nullptr;
  obs::Counter* ethernet_counter_ = nullptr;
  obs::LatencyHistogram* read_us_ = nullptr;  ///< per-record read latency
};

}  // namespace quicsand::net
