/**
 * @file
 * Tests of the report writer (util/json.hh) and the disk-cache file
 * helpers (util/cache_file.hh): doubles are byte-identical to
 * printf("%.17g") over a million random bit patterns, every sampled
 * float and the special values; integers match their decimal form;
 * JSON escaping leaves no raw control character in a document (also
 * through the ulfault report); CSV quoting doubles quotes; hex
 * bit-pattern fields round-trip and reject malformed digits; temp
 * sibling names differ per call and carry the process id.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include <unistd.h>

#include "cli/fault_driver.hh"
#include "fuzz/rng.hh"
#include "util/cache_file.hh"
#include "util/json.hh"

namespace ulpeak {
namespace {

/** The reference the writer must reproduce byte for byte. */
std::string
printfG17(double d)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return buf;
}

double
fromBits(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof d);
    return d;
}

/** Writes @p values through one Writer (newline-separated, as a report
 *  streams them) and compares against the printf oracle. */
template <typename Gen>
void
expectMatchesPrintf(size_t n, Gen next)
{
    util::Writer w;
    std::string oracle;
    for (size_t i = 0; i < n; ++i) {
        double d = next();
        w << d << '\n';
        oracle += printfG17(d);
        oracle += '\n';
    }
    std::string got = w.take();
    if (got == oracle)
        return;
    // Report the first differing value, not a multi-megabyte diff.
    size_t at = 0;
    while (at < got.size() && at < oracle.size() && got[at] == oracle[at])
        ++at;
    size_t line = oracle.rfind('\n', at);
    line = line == std::string::npos ? 0 : line + 1;
    FAIL() << "writer differs from %.17g near: "
           << oracle.substr(line, oracle.find('\n', line) - line)
           << " (writer: "
           << got.substr(line, got.find('\n', line) - line) << ")";
}

TEST(JsonWriter, RandomBitPatternsMatchPrintf)
{
    fuzz::Rng rng(0x6a736f6e);
    expectMatchesPrintf(1000000, [&] { return fromBits(rng.next()); });
}

TEST(JsonWriter, FloatValuesMatchPrintf)
{
    // Envelope numbers are floats widened to double.
    fuzz::Rng rng(0x666c74);
    expectMatchesPrintf(300000, [&] {
        uint32_t bits = uint32_t(rng.next());
        float f;
        std::memcpy(&f, &bits, sizeof f);
        return double(f);
    });
    // And the physical range reports actually carry: mW peaks, nJ
    // energies, pJ per cycle.
    expectMatchesPrintf(100000, [&] {
        double mant = double(rng.next() >> 11) / double(1ull << 53);
        int exp = -int(rng.below(14));
        return double(float(mant * std::pow(10.0, exp)));
    });
}

TEST(JsonWriter, SpecialValuesMatchPrintf)
{
    const double specials[] = {
        0.0,
        -0.0,
        DBL_MIN,
        -DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        DBL_TRUE_MIN,
        -DBL_TRUE_MIN,
        fromBits(0x000fffffffffffffull), // largest subnormal
        fromBits(0x0000000000000002ull),
        FLT_MIN,
        FLT_MAX,
        double(FLT_TRUE_MIN),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        fromBits(0x7ff0000000000001ull), // signalling-NaN pattern
        fromBits(0xfff8000000000001ull), // negative NaN with payload
        0.1,
        1e-5,
        1e-4,
        1e16,
        1e17,
        123456789012345678.0,
        1.0 / 3.0,
    };
    size_t i = 0;
    expectMatchesPrintf(std::size(specials), [&] { return specials[i++]; });
    for (double d : specials)
        EXPECT_EQ(util::fmtDouble(d), printfG17(d));
}

TEST(JsonWriter, IntegersAreDecimal)
{
    util::Writer w;
    w << 0 << ' ' << uint64_t(UINT64_MAX) << ' ' << int64_t(INT64_MIN)
      << ' ' << unsigned(7) << ' ' << size_t(42) << ' ' << -1;
    EXPECT_EQ(w.take(), "0 18446744073709551615 -9223372036854775808 "
                        "7 42 -1");
}

/** Decodes the JSON string literal starting at @p s[at] (the opening
 *  quote); fails the test on a raw control byte or a bad escape. */
std::string
decodeJsonString(const std::string &s, size_t &at)
{
    EXPECT_EQ(s[at], '"');
    std::string out;
    for (++at; at < s.size() && s[at] != '"'; ++at) {
        unsigned char c = static_cast<unsigned char>(s[at]);
        EXPECT_GE(c, 0x20u) << "raw control byte in a JSON string";
        if (c != '\\') {
            out += char(c);
            continue;
        }
        char e = s[++at];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            out += char(std::stoi(s.substr(at + 1, 4), nullptr, 16));
            at += 4;
            break;
          default: ADD_FAILURE() << "bad escape \\" << e;
        }
    }
    EXPECT_LT(at, s.size()) << "unterminated JSON string";
    return out;
}

/** Every string literal of @p doc must be valid JSON; returns them. */
std::vector<std::string>
jsonStrings(const std::string &doc)
{
    std::vector<std::string> out;
    for (size_t at = 0; at < doc.size(); ++at)
        if (doc[at] == '"')
            out.push_back(decodeJsonString(doc, at));
    return out;
}

TEST(JsonWriter, EscapingRoundTripsEveryControlCharacter)
{
    std::string raw = "q\"b\\n\nt\tr\r\x01\x1f\x7f end";
    for (char c = 1; c < 0x20; ++c)
        raw += c;
    util::Writer w;
    w << '"' << util::jsonEscape(raw) << '"';
    std::string doc = w.take();
    std::vector<std::string> strs = jsonStrings(doc);
    ASSERT_EQ(strs.size(), 1u);
    EXPECT_EQ(strs[0], raw);
    EXPECT_NE(doc.find("\\r\\u0001\\u001f"), std::string::npos) << doc;
}

TEST(JsonWriter, FaultReportEscapesControlCharacters)
{
    // Names and messages with \r or other control bytes must still
    // give valid JSON.
    fault::CampaignResult res;
    res.ok = false;
    res.error = "golden run\rdiverged\x01";
    res.envelopeError = "no\x02" "envelope";
    res.sites.resize(1);
    res.siteNames = {"dff\r\x01q"};
    res.summaries.resize(1);
    std::string doc = cli::toFaultJson(res, fault::CampaignOptions{},
                                       "mu\rlt\x01", false);
    std::vector<std::string> strs = jsonStrings(doc);
    auto has = [&](const std::string &s) {
        return std::find(strs.begin(), strs.end(), s) != strs.end();
    };
    EXPECT_TRUE(has("mu\rlt\x01"));
    EXPECT_TRUE(has("golden run\rdiverged\x01"));
    EXPECT_TRUE(has("no\x02" "envelope"));
    EXPECT_TRUE(has("dff\r\x01q"));
}

TEST(JsonWriter, CsvQuotingDoublesQuotes)
{
    util::Writer w;
    w << util::csvQuote("a\"b,c") << ',' << util::csvQuote("");
    EXPECT_EQ(w.take(), "\"a\"\"b,c\",\"\"");
}

TEST(CacheFile, HexBitsRoundTripAndRejectMalformedDigits)
{
    fuzz::Rng rng(0x686578);
    for (int i = 0; i < 10000; ++i) {
        uint64_t bits = rng.next();
        double d = fromBits(bits), back = 0.0;
        util::Writer w;
        w << util::doubleBits(d);
        std::string hex = w.take();
        ASSERT_EQ(hex.size(), 16u);
        ASSERT_TRUE(util::bitsValue(hex, back));
        uint64_t backBits;
        std::memcpy(&backBits, &back, sizeof backBits);
        ASSERT_EQ(backBits, bits) << hex;
    }
    util::Writer w;
    w << util::floatBits(1.5f) << util::floatBits(-0.0f);
    std::string two = w.take();
    EXPECT_EQ(two, "3fc0000080000000");
    std::vector<float> fs;
    ASSERT_TRUE(util::bitsFloats(two, 2, fs));
    EXPECT_EQ(fs[0], 1.5f);
    EXPECT_TRUE(std::signbit(fs[1]));

    double d;
    EXPECT_FALSE(util::bitsValue("3FF0000000000000", d)); // upper case
    EXPECT_FALSE(util::bitsValue("3ff000000000000", d));  // short
    EXPECT_FALSE(util::bitsValue("3ff00000000000000", d)); // long
    EXPECT_FALSE(util::bitsValue("3ff000000000000g", d));
    EXPECT_FALSE(util::bitsValue(" 3ff00000000000", d));
    EXPECT_FALSE(util::bitsFloats(two, 3, fs)); // truncated payload
    EXPECT_FALSE(util::bitsFloats(two, (size_t(1) << 61) + 2, fs));
    EXPECT_FALSE(util::bitsFloats("3fc00000800000x0", 2, fs));
}

TEST(CacheFile, TempSiblingNamesAreUniqueAndCarryThePid)
{
    std::filesystem::path entry = "cache/0123456789abcdef.txt";
    std::filesystem::path a = util::tempSibling(entry);
    std::filesystem::path b = util::tempSibling(entry);
    EXPECT_NE(a, b);
    std::string pid = "." + std::to_string(::getpid()) + ".";
    for (const std::filesystem::path &p : {a, b}) {
        EXPECT_EQ(p.parent_path(), entry.parent_path());
        std::string name = p.filename().string();
        EXPECT_EQ(name.rfind("0123456789abcdef.txt.tmp.", 0), 0u) << name;
        EXPECT_NE(name.find(pid), std::string::npos) << name;
    }
}

TEST(CacheFile, AtomicWriteThenReadRoundTrips)
{
    std::filesystem::path dir = ::testing::TempDir() + "ulpeak-cachefile";
    std::filesystem::create_directories(dir);
    std::filesystem::path f = dir / "entry.txt";
    std::string body("magic\nkey value\n\0binary", 23);
    util::writeFileAtomic(f, body);
    std::string back;
    ASSERT_TRUE(util::readFile(f, back));
    EXPECT_EQ(back, body);
    // Only the entry remains: the temp sibling was renamed away.
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    EXPECT_EQ(names, std::vector<std::string>{"entry.txt"});
    EXPECT_FALSE(util::readFile(dir / "missing.txt", back));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace ulpeak
