// Strong-type algebra tests, including the compile-time rejection matrix.
//
// The rejection matrix uses SFINAE probes: each probe asks whether an
// expression would be well-formed for the given operand types without
// instantiating it, so the *absence* of an operator is pinned by a
// static_assert instead of a commented-out compile error.
#include "util/strong.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "core/units.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace quicsand::util {
namespace {

// ---------------------------------------------------------------------
// SFINAE probes: detect whether an arithmetic expression is well-formed.
// ---------------------------------------------------------------------

template <class A, class B, class = void>
struct CanAdd : std::false_type {};
template <class A, class B>
struct CanAdd<A, B,
              std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <class A, class B, class = void>
struct CanSubtract : std::false_type {};
template <class A, class B>
struct CanSubtract<
    A, B, std::void_t<decltype(std::declval<A>() - std::declval<B>())>>
    : std::true_type {};

template <class A, class B, class = void>
struct CanMultiply : std::false_type {};
template <class A, class B>
struct CanMultiply<
    A, B, std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <class A, class B, class = void>
struct CanCompare : std::false_type {};
template <class A, class B>
struct CanCompare<
    A, B, std::void_t<decltype(std::declval<A>() == std::declval<B>())>>
    : std::true_type {};

template <class To, class From, class = void>
struct CanAssign : std::false_type {};
template <class To, class From>
struct CanAssign<To, From,
                 std::void_t<decltype(std::declval<To&>() =
                                          std::declval<From>())>>
    : std::true_type {};

// ---------------------------------------------------------------------
// Compile-fail matrix. Every `false` line here was a legal (and silently
// wrong) expression before the migration.
// ---------------------------------------------------------------------

// Same-axis vector algebra stays available.
static_assert(CanAdd<Duration, Duration>::value);
static_assert(CanSubtract<Duration, Duration>::value);
static_assert(CanMultiply<Duration, int>::value);
static_assert(CanMultiply<int, Duration>::value);
static_assert(CanCompare<Duration, Duration>::value);

// Point algebra: Timestamp only combines with Duration.
static_assert(CanSubtract<Timestamp, Timestamp>::value);
static_assert(CanAdd<Timestamp, Duration>::value);
static_assert(CanAdd<Duration, Timestamp>::value);
static_assert(CanSubtract<Timestamp, Duration>::value);

// Adding two points is meaningless and rejected.
static_assert(!CanAdd<Timestamp, Timestamp>::value);
// Scaling a point is rejected (2 * "April 1st" has no meaning).
static_assert(!CanMultiply<Timestamp, int>::value);
static_assert(!CanMultiply<int, Timestamp>::value);
// Duration - Timestamp (wrong order) is rejected.
static_assert(!CanSubtract<Duration, Timestamp>::value);

// Cross-axis arithmetic is rejected even though both wrap int64.
static_assert(!CanAdd<Duration, HourBin>::value);
static_assert(!CanAdd<HourBin, Duration>::value);
static_assert(!CanSubtract<Duration, HourBin>::value);
static_assert(!CanCompare<Duration, HourBin>::value);
static_assert(!CanCompare<HourBin, Timestamp>::value);

// Raw integers no longer leak in or out implicitly.
static_assert(!CanAdd<Duration, int>::value);
static_assert(!CanAdd<Timestamp, int>::value);
static_assert(!CanCompare<Duration, int>::value);
static_assert(!CanCompare<Timestamp, std::int64_t>::value);
static_assert(!CanAssign<Duration, std::int64_t>::value);
static_assert(!CanAssign<std::int64_t, Duration>::value);
static_assert(!std::is_convertible_v<std::int64_t, Duration>);
static_assert(!std::is_convertible_v<Duration, std::int64_t>);
static_assert(!std::is_convertible_v<Duration, bool>);

// Packet-axis types are isolated from the time axis and from each other.
static_assert(CanAdd<core::PacketCount, core::PacketCount>::value);
static_assert(!CanAdd<core::PacketCount, Duration>::value);
static_assert(!CanAdd<core::PacketCount, core::Pps>::value);
static_assert(!CanAssign<core::PacketCount, std::uint64_t>::value);
static_assert(!CanAssign<double, core::Pps>::value);
static_assert(!std::is_convertible_v<core::Pps, double>);

// Byte-order-tagged integers: no arithmetic, no implicit narrowing —
// only the explicit `to_host()` accessor.
static_assert(!CanAdd<NetU16, NetU16>::value);
static_assert(!CanAdd<NetU32, std::uint32_t>::value);
static_assert(!std::is_convertible_v<NetU16, std::uint16_t>);
static_assert(!std::is_convertible_v<NetU32, std::uint32_t>);
static_assert(!CanCompare<NetU16, int>::value);

// Zero overhead: same size/alignment as the raw representation, and
// trivially copyable so spans/vectors of strong values behave like raw.
static_assert(sizeof(Duration) == sizeof(std::int64_t));
static_assert(alignof(Timestamp) == alignof(std::int64_t));
static_assert(std::is_trivially_copyable_v<Duration>);
static_assert(std::is_trivially_copyable_v<core::PacketCount>);

// ---------------------------------------------------------------------
// Runtime behavior.
// ---------------------------------------------------------------------

TEST(Strong, VectorArithmetic) {
  EXPECT_EQ((kMinute + kSecond).count(), 61'000'000);
  EXPECT_EQ((kMinute - kSecond).count(), 59'000'000);
  EXPECT_EQ((-kSecond).count(), -1'000'000);
  EXPECT_EQ((3 * kSecond).count(), 3'000'000);
  EXPECT_EQ((kSecond * 3).count(), 3'000'000);
  EXPECT_EQ((kMinute / 2).count(), 30'000'000);
  EXPECT_EQ((kMinute / kSecond), 60);
  EXPECT_EQ((kMinute % (7 * kSecond)).count(), 4'000'000);
}

TEST(Strong, CompoundAssignment) {
  Duration d = kSecond;
  d += kSecond;
  EXPECT_EQ(d, 2 * kSecond);
  d -= 3 * kSecond;
  EXPECT_EQ(d, -kSecond);
  core::PacketCount packets{};
  ++packets;
  ++packets;
  EXPECT_EQ(packets.count(), 2u);
}

TEST(Strong, PointAlgebra) {
  const Timestamp t0 = kApril2021Start;
  const Timestamp t1 = t0 + kHour;
  EXPECT_EQ(t1 - t0, kHour);
  EXPECT_EQ(t1 - kHour, t0);
  EXPECT_EQ(kHour + t0, t1);
  Timestamp t = t0;
  t += kMinute;
  t -= kSecond;
  EXPECT_EQ(t - t0, kMinute - kSecond);
}

TEST(Strong, DoubleScalingRoundsHalfAwayFromZero) {
  EXPECT_EQ(Duration{10} * 1.25, Duration{13});  // 12.5 rounds away
  EXPECT_EQ(Duration{10} * -1.25, Duration{-13});
  EXPECT_EQ(Duration{10} * 0.5, Duration{5});
  EXPECT_EQ(Duration{9} / 2.0, Duration{5});  // 4.5 rounds away
}

TEST(Strong, StrongCastExactRatios) {
  const auto hours = strong_cast<HourBin>(2 * kHour, 1, kHour.count());
  EXPECT_EQ(hours, HourBin{2});
  const auto micros = strong_cast<Duration>(HourBin{3}, kHour.count());
  EXPECT_EQ(micros, 3 * kHour);
  EXPECT_THROW(strong_cast<HourBin>(kHour + kMicrosecond, 1, kHour.count()),
               std::domain_error);
}

TEST(Strong, HashSupportsUnorderedContainers) {
  std::unordered_map<Timestamp, int> by_time;
  by_time[kApril2021Start] = 1;
  by_time[kApril2021Start + kSecond] = 2;
  EXPECT_EQ(by_time.at(kApril2021Start), 1);
  EXPECT_EQ(by_time.size(), 2u);
}

TEST(Strong, NetworkOrderTypesRequireExplicitToHost) {
  const NetU16 port{443};
  const NetU32 version{0x00000001};
  EXPECT_EQ(port.to_host(), 443);
  EXPECT_EQ(version.to_host(), 0x00000001u);
}

}  // namespace
}  // namespace quicsand::util
