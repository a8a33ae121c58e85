#include "net/pcap.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"

namespace quicsand::net {
namespace {

class PcapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("quicsand_pcap_test_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->random_seed()) +
              "_" + ::testing::UnitTest::GetInstance()
                        ->current_test_info()
                        ->name() +
              ".pcap"))
                .string();
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

RawPacket make_packet(util::Timestamp ts, std::uint16_t sport) {
  Ipv4Header ip;
  ip.src = Ipv4Address::from_octets(192, 0, 2, 1);
  ip.dst = Ipv4Address::from_octets(44, 1, 2, 3);
  return {ts, build_udp(ip, sport, 443, std::vector<std::uint8_t>{1, 2, 3})};
}

TEST_F(PcapTest, WriteThenReadRoundTrip) {
  {
    PcapWriter writer(path_);
    writer.write(make_packet(util::kApril2021Start, 1000));
    writer.write(make_packet(util::kApril2021Start + util::Duration{123456}, 1001));
    EXPECT_EQ(writer.packets_written(), 2u);
  }
  PcapReader reader(path_);
  EXPECT_EQ(reader.linktype(), kLinktypeRaw);
  auto p1 = reader.next();
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->timestamp, util::kApril2021Start);
  auto decoded = decode_ipv4(p1->data);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->udp().src_port, 1000);

  auto p2 = reader.next();
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->timestamp, util::kApril2021Start + util::Duration{123456});
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, MicrosecondPrecisionPreserved) {
  const util::Timestamp ts = util::kApril2021Start + util::Duration{999999};
  {
    PcapWriter writer(path_);
    writer.write(make_packet(ts, 1));
  }
  PcapReader reader(path_);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->timestamp, ts);
}

TEST_F(PcapTest, ForEachCountsAllPackets) {
  {
    PcapWriter writer(path_);
    for (int i = 0; i < 10; ++i) {
      writer.write(make_packet(util::Timestamp{} + i * util::kSecond, static_cast<std::uint16_t>(i)));
    }
  }
  PcapReader reader(path_);
  std::uint64_t seen = 0;
  const auto n = reader.for_each([&](const RawPacket&) { ++seen; });
  EXPECT_EQ(n, 10u);
  EXPECT_EQ(seen, 10u);
}

TEST_F(PcapTest, EmptyFileHasNoPackets) {
  { PcapWriter writer(path_); }
  PcapReader reader(path_);
  EXPECT_FALSE(reader.next().has_value());
}

TEST_F(PcapTest, RejectsBadMagic) {
  {
    std::ofstream out(path_, std::ios::binary);
    const char junk[24] = {0};
    out.write(junk, sizeof(junk));
  }
  EXPECT_THROW(PcapReader reader(path_), std::runtime_error);
}

TEST_F(PcapTest, RejectsMissingFile) {
  EXPECT_THROW(PcapReader reader("/nonexistent/path.pcap"),
               std::runtime_error);
}

TEST_F(PcapTest, ThrowsOnTruncatedRecord) {
  {
    PcapWriter writer(path_);
    writer.write(make_packet(util::Timestamp{}, 1));
  }
  // Chop the last 2 bytes off the record body.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 2);
  PcapReader reader(path_);
  EXPECT_THROW(reader.next(), std::runtime_error);
}

TEST_F(PcapTest, StripsEthernetHeader) {
  // Hand-craft an Ethernet-linktype capture containing one frame.
  const auto ip_packet = make_packet(util::Timestamp{}, 7).data;
  {
    std::ofstream out(path_, std::ios::binary);
    auto w32 = [&](std::uint32_t v) {
      char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                   static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
      out.write(b, 4);
    };
    auto w16 = [&](std::uint16_t v) {
      char b[2] = {static_cast<char>(v), static_cast<char>(v >> 8)};
      out.write(b, 2);
    };
    w32(kPcapMagicMicros);
    w16(2);
    w16(4);
    w32(0);
    w32(0);
    w32(65535);
    w32(kLinktypeEthernet);
    const std::uint32_t framelen =
        static_cast<std::uint32_t>(ip_packet.size()) + 14;
    w32(42);  // ts sec
    w32(0);   // ts usec
    w32(framelen);
    w32(framelen);
    const char eth[14] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                          0x08, 0x00};
    out.write(eth, sizeof(eth));
    out.write(reinterpret_cast<const char*>(ip_packet.data()),
              static_cast<std::streamsize>(ip_packet.size()));
  }
  PcapReader reader(path_);
  EXPECT_EQ(reader.linktype(), kLinktypeEthernet);
  auto p = reader.next();
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->data, ip_packet);
  EXPECT_EQ(p->timestamp, util::Timestamp{} + 42 * util::kSecond);
}

// --- In-memory captures: block refills, truncation, magics -----------

/// One capture record: stamp fields as written and the captured bytes.
struct CaptureRecord {
  std::uint32_t secs = 0;
  std::uint32_t frac = 0;
  std::vector<std::uint8_t> data;
  /// caplen written to the header; the data size when unset.
  std::optional<std::uint32_t> caplen;
};

/// Builds a classic pcap capture. `big_endian` writes every header field
/// in the opposite (swapped) byte order.
std::string capture_bytes(std::uint32_t magic, std::uint32_t linktype,
                          const std::vector<CaptureRecord>& records,
                          bool big_endian = false) {
  std::string out;
  const auto w32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      const int shift = big_endian ? 24 - 8 * i : 8 * i;
      out.push_back(static_cast<char>(v >> shift));
    }
  };
  const auto w16 = [&](std::uint16_t v) {
    for (int i = 0; i < 2; ++i) {
      const int shift = big_endian ? 8 - 8 * i : 8 * i;
      out.push_back(static_cast<char>(v >> shift));
    }
  };
  w32(magic);
  w16(2);
  w16(4);
  w32(0);
  w32(0);
  w32(65535);
  w32(linktype);
  for (const auto& record : records) {
    w32(record.secs);
    w32(record.frac);
    const auto len = record.caplen.value_or(
        static_cast<std::uint32_t>(record.data.size()));
    w32(len);
    w32(len);
    out.append(record.data.begin(), record.data.end());
  }
  return out;
}

std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint32_t seed) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) {
    bytes[i] = static_cast<std::uint8_t>((i * 131 + seed * 7) ^ (i >> 8));
  }
  return bytes;
}

/// The message of the std::runtime_error `fn` throws ("" if none).
std::string error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& error) {
    return error.what();
  }
  return "";
}

TEST(PcapStreamTest, RecordsStraddleBlockRefills) {
  // Sizes around the 256 KiB read block and the 1 MiB caplen limit,
  // interleaved with small records so that headers and bodies land on
  // every side of a refill.
  constexpr std::size_t kBlock = 256 * 1024;
  const std::size_t sizes[] = {60,        kBlock - 16, 1,         kBlock - 40,
                               0,         kBlock,      kBlock + 1, 77,
                               1U << 20,  1200,        kBlock - 17, 3,
                               (1U << 20) - 1, 48};
  std::vector<CaptureRecord> records;
  std::uint32_t n = 0;
  for (const auto size : sizes) {
    for (int copy = 0; copy < 3; ++copy, ++n) {
      records.push_back({1'600'000'000 + n, n * 1000,
                         pattern_bytes(size, n), std::nullopt});
    }
  }
  std::istringstream stream(capture_bytes(kPcapMagicMicros, kLinktypeRaw,
                                          records));
  PcapReader reader(stream);
  obs::MetricsRegistry metrics;
  reader.set_metrics(&metrics);
  for (const auto& expected : records) {
    const auto packet = reader.next();
    ASSERT_TRUE(packet.has_value());
    EXPECT_EQ(packet->timestamp,
              util::Timestamp{} +
                  static_cast<std::int64_t>(expected.secs) * util::kSecond +
                  util::Duration{expected.frac});
    ASSERT_EQ(packet->data, expected.data) << "record of "
                                           << expected.data.size();
  }
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.next().has_value());  // EOF is sticky
  EXPECT_EQ(metrics.counter("pcap.packets_read").value(), records.size());
  std::uint64_t bytes = 0;
  for (const auto& record : records) bytes += record.data.size();
  EXPECT_EQ(metrics.counter("pcap.bytes_read").value(), bytes);
  EXPECT_EQ(metrics.counter("pcap.truncated").value(), 0u);
  EXPECT_EQ(metrics.latency("pcap.read_us").count(), records.size() + 2);
}

TEST(PcapStreamTest, TruncatedHeaderAtEofThrowsAndCounts) {
  auto bytes = capture_bytes(kPcapMagicMicros, kLinktypeRaw,
                             {{7, 0, pattern_bytes(40, 1), std::nullopt}});
  bytes.append(9, '\x01');  // 9 of a record header's 16 bytes
  std::istringstream stream(bytes);
  PcapReader reader(stream);
  obs::MetricsRegistry metrics;
  reader.set_metrics(&metrics);
  ASSERT_TRUE(reader.next().has_value());
  EXPECT_EQ(error_of([&] { (void)reader.next(); }),
            "PcapReader: truncated record header");
  EXPECT_EQ(metrics.counter("pcap.truncated").value(), 1u);
  EXPECT_EQ(metrics.counter("pcap.packets_read").value(), 1u);
}

TEST(PcapStreamTest, TruncatedBodyAtEofThrowsAndCounts) {
  // Small and block-sized bodies, each cut short by the end of the data.
  for (const std::size_t size : {std::size_t{50}, std::size_t{600'000}}) {
    SCOPED_TRACE(size);
    auto bytes = capture_bytes(kPcapMagicMicros, kLinktypeRaw,
                               {{7, 0, pattern_bytes(size, 2), std::nullopt}});
    bytes.resize(bytes.size() - 3);
    std::istringstream stream(bytes);
    PcapReader reader(stream);
    obs::MetricsRegistry metrics;
    reader.set_metrics(&metrics);
    EXPECT_EQ(error_of([&] { (void)reader.next(); }),
              "PcapReader: truncated record body");
    EXPECT_EQ(metrics.counter("pcap.truncated").value(), 1u);
    EXPECT_EQ(metrics.counter("pcap.packets_read").value(), 0u);
  }
}

TEST(PcapStreamTest, AbsurdCaplenRejectedBeforeBuffering) {
  // The caplen claims 1 MiB + 1 but no body follows: the limit check
  // must fire before the reader tries to buffer (and so before it could
  // report the body as truncated).
  CaptureRecord absurd{7, 0, {}, (1U << 20) + 1};
  std::istringstream stream(
      capture_bytes(kPcapMagicMicros, kLinktypeRaw, {absurd}));
  PcapReader reader(stream);
  obs::MetricsRegistry metrics;
  reader.set_metrics(&metrics);
  EXPECT_EQ(error_of([&] { (void)reader.next(); }),
            "PcapReader: absurd caplen");
  EXPECT_EQ(metrics.counter("pcap.truncated").value(), 1u);
}

TEST(PcapStreamTest, EthernetFramesStrippedAndShortFrameRejected) {
  const auto ip = make_packet(util::Timestamp{}, 9).data;
  std::vector<std::uint8_t> frame(14, 0xee);
  frame.insert(frame.end(), ip.begin(), ip.end());
  std::vector<CaptureRecord> records(
      300, CaptureRecord{1, 2, frame, std::nullopt});
  records.push_back({1, 3, std::vector<std::uint8_t>(13, 0xee),
                     std::nullopt});
  std::istringstream stream(
      capture_bytes(kPcapMagicMicros, kLinktypeEthernet, records));
  PcapReader reader(stream);
  obs::MetricsRegistry metrics;
  reader.set_metrics(&metrics);
  EXPECT_EQ(reader.linktype(), kLinktypeEthernet);
  for (std::size_t i = 0; i + 1 < records.size(); ++i) {
    const auto packet = reader.next();
    ASSERT_TRUE(packet.has_value());
    ASSERT_EQ(packet->data, ip);
  }
  EXPECT_EQ(error_of([&] { (void)reader.next(); }),
            "PcapReader: short ethernet frame");
  EXPECT_EQ(metrics.counter("pcap.ethernet_stripped").value(), 300u);
  EXPECT_EQ(metrics.counter("pcap.bytes_read").value(), 300 * ip.size());
  EXPECT_EQ(metrics.counter("pcap.truncated").value(), 1u);
}

TEST(PcapStreamTest, SwappedAndNanosecondMagics) {
  struct Case {
    std::uint32_t magic;
    bool big_endian;
    util::Duration frac;  ///< what a frac field of 123456789 stands for
  };
  const Case cases[] = {
      {kPcapMagicMicros, false, util::Duration{123456789}},
      {kPcapMagicMicros, true, util::Duration{123456789}},
      {kPcapMagicNanos, false, util::Duration{123456}},
      {kPcapMagicNanos, true, util::Duration{123456}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << std::hex << c.magic << " big-endian "
                                    << c.big_endian);
    const auto data = pattern_bytes(300, 5);
    std::istringstream stream(capture_bytes(
        c.magic, kLinktypeRaw,
        {{42, 123456789, data, std::nullopt},
         {43, 0, pattern_bytes(20, 6), std::nullopt}},
        c.big_endian));
    PcapReader reader(stream);
    const auto first = reader.next();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->timestamp,
              util::Timestamp{} + 42 * util::kSecond + c.frac);
    EXPECT_EQ(first->data, data);
    const auto second = reader.next();
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->timestamp, util::Timestamp{} + 43 * util::kSecond);
    EXPECT_EQ(second->data.size(), 20u);
    EXPECT_FALSE(reader.next().has_value());
  }
}

}  // namespace
}  // namespace quicsand::net
