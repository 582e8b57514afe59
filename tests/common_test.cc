/**
 * @file
 * Tests for the common substrate: bit utilities, the deterministic
 * RNG, and strict command-line number parsing.
 */

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/bitops.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/types.h"

namespace mgx {
namespace {

TEST(Bitops, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(64));
    EXPECT_FALSE(isPow2(65));
    EXPECT_TRUE(isPow2(1ull << 40));
}

TEST(Bitops, Log2)
{
    EXPECT_EQ(log2i(1), 0u);
    EXPECT_EQ(log2i(64), 6u);
    EXPECT_EQ(log2i(1ull << 33), 33u);
}

TEST(Bitops, DivCeil)
{
    EXPECT_EQ(divCeil(0, 8), 0u);
    EXPECT_EQ(divCeil(1, 8), 1u);
    EXPECT_EQ(divCeil(8, 8), 1u);
    EXPECT_EQ(divCeil(9, 8), 2u);
}

TEST(Bitops, Align)
{
    EXPECT_EQ(alignUp(0, 64), 0u);
    EXPECT_EQ(alignUp(1, 64), 64u);
    EXPECT_EQ(alignUp(64, 64), 64u);
    EXPECT_EQ(alignDown(63, 64), 0u);
    EXPECT_EQ(alignDown(64, 64), 64u);
}

TEST(Bitops, BitsExtract)
{
    EXPECT_EQ(bits(0xff00, 8, 8), 0xffu);
    EXPECT_EQ(bits(~u64{0}, 0, 64), ~u64{0});
    EXPECT_EQ(bits(0b1011000, 3, 4), 0b1011u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(9);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.below(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ParetoHeavyTail)
{
    Rng rng(13);
    u64 max_seen = 0;
    double mean = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        u64 v = rng.pareto(1.8, 1.0);
        max_seen = std::max(max_seen, v);
        mean += static_cast<double>(v);
    }
    mean /= n;
    EXPECT_GE(max_seen, 50u);  // heavy tail produces large outliers
    EXPECT_LT(mean, 10.0);     // but the bulk is small
}

TEST(Types, DataClassNames)
{
    EXPECT_STREQ(dataClassName(DataClass::Feature), "feature");
    EXPECT_STREQ(dataClassName(DataClass::GraphMatrix), "graph-matrix");
    EXPECT_STREQ(accessTypeName(AccessType::Read), "read");
}

TEST(Parse, DecimalAcceptsDigitsUpToTheBound)
{
    const u64 u64_max = std::numeric_limits<u64>::max();
    u64 v = 7;
    EXPECT_TRUE(parseDecimal("0", 0, v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseDecimal("00042", 100, v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parseDecimal("65535", 65535, v));
    EXPECT_EQ(v, 65535u);
    EXPECT_TRUE(parseDecimal("18446744073709551615", u64_max, v));
    EXPECT_EQ(v, u64_max);
}

TEST(Parse, DecimalRejectsSignsJunkAndOverflow)
{
    // What strtoul would wrap ("-1"), truncate at the first junk
    // character ("2x") or let a narrowing cast wrap ("99999" as a u16
    // port) all fail, and a failed parse leaves the output alone.
    u64 v = 7;
    for (const char *bad : {"", "-1", "-0", "+1", " 1", "1 ", "2x", "abc",
                            "0x10", "65536", "99999"})
        EXPECT_FALSE(parseDecimal(bad, 65535, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseDecimal("1", 0, v));
    EXPECT_FALSE(parseDecimal("18446744073709551616",
                              std::numeric_limits<u64>::max(), v));
    EXPECT_FALSE(parseDecimal("99999999999999999999",
                              std::numeric_limits<u64>::max(), v));
    EXPECT_EQ(v, 7u);
}

TEST(Parse, FractionAcceptsDigitsAndOneDecimalPoint)
{
    double v = 7;
    EXPECT_TRUE(parseFraction("0", 0, v));
    EXPECT_EQ(v, 0.0);
    EXPECT_TRUE(parseFraction("2", 10, v));
    EXPECT_EQ(v, 2.0);
    EXPECT_TRUE(parseFraction("0.25", 1, v));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(parseFraction("007.500", 10, v));
    EXPECT_EQ(v, 7.5);
    EXPECT_TRUE(parseFraction("1.0", 1, v));
    EXPECT_EQ(v, 1.0);
}

TEST(Parse, FractionRejectsSignsExponentsNanAndOverflow)
{
    // Everything strtod would take beyond plain digits — a sign,
    // "nan"/"inf", an exponent, hex, leading whitespace — or stop
    // short of ("2x") fails, as does a value past the bound, and a
    // failed parse leaves the output alone.
    double v = 7;
    for (const char *bad :
         {"", "-1", "+1", "-0", " 1", "1 ", "2x", "nan", "NAN", "inf",
          "infinity", "1e3", "1E-3", "0x10", ".5", "5.", "1.2.3", "1,5",
          "abc", "10.5", "11"})
        EXPECT_FALSE(parseFraction(bad, 10, v)) << "'" << bad << "'";
    EXPECT_FALSE(parseFraction("0.0001", 0, v));
    // 400 digits overflow to infinity, which no finite bound admits.
    EXPECT_FALSE(parseFraction(std::string(400, '9').c_str(), 1e300, v));
    EXPECT_EQ(v, 7.0);
}

} // namespace
} // namespace mgx
