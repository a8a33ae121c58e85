#include "net/pcap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicsand::net {

namespace {

constexpr std::size_t kRecordHeaderSize = 16;
constexpr std::size_t kEthernetHeaderSize = 14;
/// Largest caplen accepted; anything above is rejected as corrupt.
constexpr std::uint32_t kMaxCaplen = 1U << 20;
/// Read-ahead block; the buffer grows past it only for a larger record.
constexpr std::size_t kBlockSize = 256 * 1024;

// pcap headers are written in the byte order of the capturing host; we
// emit little-endian (the near-universal convention) and byte-swap on read
// when the magic indicates the opposite order.
void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

std::uint32_t get_u32le(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint32_t bswap32(std::uint32_t v) {
  return ((v & 0xff) << 24) | ((v & 0xff00) << 8) | ((v >> 8) & 0xff00) |
         (v >> 24);
}

std::uint64_t steady_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Records scope duration into `hist` on destruction; reads the clock
/// only when a histogram is attached, so unobserved readers stay free.
class ScopedLatency {
 public:
  explicit ScopedLatency(obs::LatencyHistogram* hist)
      : hist_(hist), start_(hist != nullptr ? steady_us() : 0) {}
  ~ScopedLatency() {
    if (hist_ != nullptr) hist_->record(steady_us() - start_);
  }
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;

 private:
  obs::LatencyHistogram* hist_;
  std::uint64_t start_;
};

}  // namespace

PcapWriter::PcapWriter(const std::string& path, std::uint32_t linktype)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) throw std::runtime_error("PcapWriter: cannot open " + path);
  std::array<std::uint8_t, 24> header{};
  put_u32le(&header[0], kPcapMagicMicros);
  put_u16le(&header[4], 2);   // version major
  put_u16le(&header[6], 4);   // version minor
  put_u32le(&header[8], 0);   // thiszone
  put_u32le(&header[12], 0);  // sigfigs
  put_u32le(&header[16], 65535);  // snaplen
  put_u32le(&header[20], linktype);
  out_.write(reinterpret_cast<const char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
}

void PcapWriter::write(const RawPacket& packet) {
  std::array<std::uint8_t, 16> rec{};
  const std::int64_t ts_us = packet.timestamp.count();
  const auto secs = static_cast<std::uint32_t>(ts_us / util::kSecond.count());
  const auto micros = static_cast<std::uint32_t>(ts_us % util::kSecond.count());
  put_u32le(&rec[0], secs);
  put_u32le(&rec[4], micros);
  put_u32le(&rec[8], static_cast<std::uint32_t>(packet.data.size()));
  put_u32le(&rec[12], static_cast<std::uint32_t>(packet.data.size()));
  out_.write(reinterpret_cast<const char*>(rec.data()),
             static_cast<std::streamsize>(rec.size()));
  out_.write(reinterpret_cast<const char*>(packet.data.data()),
             static_cast<std::streamsize>(packet.data.size()));
  if (!out_) throw std::runtime_error("PcapWriter: write failed");
  ++count_;
}

PcapReader::PcapReader(const std::string& path)
    : file_(path, std::ios::binary), in_(&file_) {
  if (!file_) throw std::runtime_error("PcapReader: cannot open " + path);
  read_global_header();
}

PcapReader::PcapReader(std::istream& in) : in_(&in) { read_global_header(); }

void PcapReader::read_global_header() {
  std::array<std::uint8_t, 24> header{};
  in_->read(reinterpret_cast<char*>(header.data()),
            static_cast<std::streamsize>(header.size()));
  if (in_->gcount() != 24) throw std::runtime_error("PcapReader: short header");
  std::uint32_t magic = get_u32le(&header[0]);
  if (magic == bswap32(kPcapMagicMicros)) {
    swapped_ = true;
  } else if (magic == bswap32(kPcapMagicNanos)) {
    swapped_ = true;
    nanos_ = true;
  } else if (magic == kPcapMagicNanos) {
    nanos_ = true;
  } else if (magic != kPcapMagicMicros) {
    throw std::runtime_error("PcapReader: bad magic");
  }
  std::uint32_t linktype = get_u32le(&header[20]);
  linktype_ = swapped_ ? bswap32(linktype) : linktype;
  if (linktype_ != kLinktypeRaw && linktype_ != kLinktypeEthernet) {
    throw std::runtime_error("PcapReader: unsupported linktype " +
                             std::to_string(linktype_));
  }
}

void PcapReader::set_metrics(obs::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    packets_counter_ = bytes_counter_ = truncated_counter_ =
        ethernet_counter_ = nullptr;
    read_us_ = nullptr;
    return;
  }
  packets_counter_ =
      &metrics->counter("pcap.packets_read", "records read from pcap files");
  bytes_counter_ =
      &metrics->counter("pcap.bytes_read", "captured payload bytes read");
  truncated_counter_ = &metrics->counter(
      "pcap.truncated", "records cut short by EOF or a bad caplen");
  ethernet_counter_ = &metrics->counter(
      "pcap.ethernet_stripped", "LINKTYPE_ETHERNET frames unwrapped");
  read_us_ = &metrics->latency("pcap.read_us",
                               "wall time to read one record");
}

bool PcapReader::fill(std::size_t need) {
  if (end_ - pos_ >= need) return true;
  if (stream_done_) return false;
  // Move the unread tail to the front, grow for an oversized record, then
  // top the buffer up with one read: a short read means the stream ended.
  std::copy(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
            buf_.begin() + static_cast<std::ptrdiff_t>(end_), buf_.begin());
  end_ -= pos_;
  pos_ = 0;
  if (buf_.size() < need) buf_.resize(std::max(need, kBlockSize));
  const auto want = static_cast<std::streamsize>(buf_.size() - end_);
  in_->read(reinterpret_cast<char*>(buf_.data() + end_), want);
  const auto got = in_->gcount();
  end_ += static_cast<std::size_t>(got);
  if (got < want) stream_done_ = true;
  return end_ >= need;
}

void PcapReader::fail_truncated(const char* what) {
  if (truncated_counter_ != nullptr) truncated_counter_->add();
  throw std::runtime_error(what);
}

std::optional<RawPacket> PcapReader::next() {
  const ScopedLatency latency(read_us_);
  if (!fill(kRecordHeaderSize)) {
    if (pos_ == end_) return std::nullopt;
    pos_ = end_;
    fail_truncated("PcapReader: truncated record header");
  }
  const std::uint8_t* rec = buf_.data() + pos_;
  auto fix = [&](std::uint32_t v) { return swapped_ ? bswap32(v) : v; };
  const std::uint32_t secs = fix(get_u32le(&rec[0]));
  const std::uint32_t frac = fix(get_u32le(&rec[4]));
  const std::uint32_t caplen = fix(get_u32le(&rec[8]));
  // Checked before buffering, so a hostile caplen cannot grow buf_.
  if (caplen > kMaxCaplen) {
    pos_ += kRecordHeaderSize;
    fail_truncated("PcapReader: absurd caplen");
  }
  if (!fill(kRecordHeaderSize + caplen)) {
    pos_ = end_;
    fail_truncated("PcapReader: truncated record body");
  }
  const std::uint8_t* body = buf_.data() + pos_ + kRecordHeaderSize;
  pos_ += kRecordHeaderSize + caplen;
  std::size_t skip = 0;
  if (linktype_ == kLinktypeEthernet) {
    if (caplen < kEthernetHeaderSize) {
      fail_truncated("PcapReader: short ethernet frame");
    }
    skip = kEthernetHeaderSize;
    if (ethernet_counter_ != nullptr) ethernet_counter_->add();
  }

  RawPacket packet;
  packet.timestamp =
      util::Timestamp{} + static_cast<std::int64_t>(secs) * util::kSecond +
      util::Duration{nanos_ ? frac / 1000 : frac};
  packet.data.assign(body + skip, body + caplen);
  if (packets_counter_ != nullptr) {
    packets_counter_->add();
    bytes_counter_->add(packet.data.size());
  }
  return packet;
}

std::uint64_t PcapReader::for_each(
    const std::function<void(const RawPacket&)>& fn) {
  std::uint64_t n = 0;
  while (auto packet = next()) {
    fn(*packet);
    ++n;
  }
  return n;
}

}  // namespace quicsand::net
