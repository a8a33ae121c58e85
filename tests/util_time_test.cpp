#include "util/time.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace quicsand::util {
namespace {

TEST(Time, April2021WindowBounds) {
  EXPECT_EQ(format_utc(kApril2021Start), "2021-04-01 00:00:00");
  EXPECT_EQ(format_utc(kApril2021End - kSecond), "2021-04-30 23:59:59");
  EXPECT_EQ((kApril2021End - kApril2021Start) / kDay, 30);
}

TEST(Time, FormatUtcEpoch) {
  EXPECT_EQ(format_utc(Timestamp{}), "1970-01-01 00:00:00");
}

TEST(Time, FormatUtcKnownInstant) {
  // 2021-04-06 18:00:00 UTC = 1617732000
  EXPECT_EQ(format_utc(Timestamp{} + 1617732000LL * kSecond),
            "2021-04-06 18:00:00");
}

TEST(Time, HourBinning) {
  const Timestamp origin = kApril2021Start;
  EXPECT_EQ(hour_bin(origin, origin), HourBin{0});
  EXPECT_EQ(hour_bin(origin + kHour - kMicrosecond, origin), HourBin{0});
  EXPECT_EQ(hour_bin(origin + kHour, origin), HourBin{1});
  EXPECT_EQ(hour_bin(origin + (30 * kDay) - kMicrosecond, origin),
            HourBin{30 * 24 - 1});
}

TEST(Time, PreOriginBinsUseFloorDivision) {
  // Truncation toward zero would put the whole (-1h, 1h) range in bin 0;
  // floor semantics give pre-origin timestamps their own negative bins.
  const Timestamp origin = kApril2021Start;
  EXPECT_EQ(hour_bin(origin - kMicrosecond, origin), HourBin{-1});
  EXPECT_EQ(hour_bin(origin - kHour, origin), HourBin{-1});
  EXPECT_EQ(hour_bin(origin - kHour - kMicrosecond, origin), HourBin{-2});
}

TEST(Time, BinOffsetOverflowThrows) {
  const Timestamp far_future{std::numeric_limits<std::int64_t>::max()};
  const Timestamp before_epoch{-2};
  EXPECT_THROW(hour_bin(far_future, before_epoch), std::overflow_error);
  EXPECT_EQ(hour_bin(far_future, Timestamp{}),
            HourBin{std::numeric_limits<std::int64_t>::max() / kHour.count()});
}

TEST(Time, HourOfDay) {
  EXPECT_EQ(hour_of_day(kApril2021Start), 0);
  EXPECT_EQ(hour_of_day(kApril2021Start + 6 * kHour), 6);
  EXPECT_EQ(hour_of_day(kApril2021Start + (18 * kHour) + (30 * kMinute)), 18);
  EXPECT_EQ(hour_of_day(kApril2021Start + (2 * kDay) + (23 * kHour)), 23);
}

TEST(Time, SecondsOfDay) {
  EXPECT_EQ(seconds_of_day(kApril2021Start), 0);
  EXPECT_EQ(seconds_of_day(kApril2021Start + 90 * kSecond), 90);
}

TEST(Time, DurationConversionRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(from_seconds(255.0)), 255.0);
  EXPECT_DOUBLE_EQ(to_seconds(kMinute), 60.0);
}

TEST(Time, FromSecondsFloorsNegativeDurations) {
  // Truncation toward zero used to collapse (-1, 0) microsecond values
  // to zero; floor semantics keep negative durations negative while
  // leaving every non-negative input bit-identical to the old behavior.
  EXPECT_EQ(from_seconds(to_seconds(-kMicrosecond)), -kMicrosecond);
  EXPECT_EQ(from_seconds(-0.0000001), -kMicrosecond);
  EXPECT_EQ(from_seconds(-1.0), -kSecond);
  EXPECT_EQ(from_seconds(-1.5), -(kSecond + (500 * kMillisecond)));
  EXPECT_EQ(from_seconds(1.5), kSecond + (500 * kMillisecond));
  EXPECT_EQ(from_seconds(2.5), (2 * kSecond) + (500 * kMillisecond));
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(5 * kSecond), "5s");
  EXPECT_EQ(format_duration(255 * kSecond), "4m15s");
  EXPECT_EQ(format_duration(90 * kMinute), "1h30m");
  EXPECT_EQ(format_duration(36 * kHour), "36h0m");
  EXPECT_EQ(format_duration(28 * kDay), "28d0h");
  EXPECT_EQ(format_duration(-5 * kSecond), "-5s");
}

}  // namespace
}  // namespace quicsand::util
