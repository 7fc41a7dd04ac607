/**
 * @file
 * Shared helpers for the FCDRAM test suite.
 */

#ifndef FCDRAM_TESTS_TESTUTIL_HH
#define FCDRAM_TESTS_TESTUTIL_HH

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cctype>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "config/chipprofile.hh"
#include "dram/geometry.hh"
#include "stats/summary.hh"

namespace fcdram::test {

/**
 * A noiseless, fully-covered chip design: every FCDRAM operation
 * succeeds deterministically. Used for functional (as opposed to
 * reliability) tests.
 */
inline ChipProfile
idealProfile()
{
    ChipProfile profile =
        ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2666);
    profile.analog.senseNoiseSigma = 1e-9;
    profile.analog.saOffsetSigma = 0.0;
    profile.analog.cellOffsetSigma = 0.0;
    profile.analog.structuralFailPerPair = 0.0;
    profile.analog.commonModePenalty = 0.0;
    profile.analog.andFamilyPenalty = 0.0;
    profile.analog.orFamilyBonus = 0.0;
    profile.analog.logicBias = 0.0;
    profile.analog.invertedSidePenalty = 0.0;
    profile.analog.couplingDelta = 0.0;
    profile.analog.tempCoeff = 0.0;
    profile.analog.latchWindowKappa = 0.0;
    profile.analog.drivePerRow = 0.0;
    for (int r = 0; r < 3; ++r) {
        profile.analog.srcRegionMargin[r] = 0.0;
        profile.analog.dstRegionMargin[r] = 0.0;
    }
    profile.decoder.coverageGate = 1.0;
    return profile;
}

/** An ideal profile that also supports the N:2N activation pattern. */
inline ChipProfile
idealProfileN2N()
{
    ChipProfile profile = idealProfile();
    profile.decoder.supportsN2N = true;
    return profile;
}

/**
 * The four calibrated designs pudlint and bench_certify sweep: SK
 * Hynix 4Gb M- and A-die, Samsung 4Gb F-die and Micron 8Gb B-die.
 */
inline std::vector<ChipProfile>
manufacturerProfiles()
{
    return {ChipProfile::make(Manufacturer::SkHynix, 4, 'M', 8, 2666),
            ChipProfile::make(Manufacturer::SkHynix, 4, 'A', 8, 2133),
            ChipProfile::make(Manufacturer::Samsung, 4, 'F', 8, 2666),
            ChipProfile::make(Manufacturer::Micron, 8, 'B', 8, 2666)};
}

/** Exact equality of figure results, recursing through containers. */
inline void
expectSame(double got, double want)
{
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << got << " vs " << want;
}

inline void
expectSame(const std::string &got, const std::string &want)
{
    EXPECT_EQ(got, want);
}

inline void
expectSame(const SampleSet &got, const SampleSet &want)
{
    EXPECT_EQ(got.values(), want.values());
}

template <class A, class B>
void expectSame(const std::pair<A, B> &got, const std::pair<A, B> &want);

template <class T, std::size_t N>
void expectSame(const std::array<T, N> &got,
                const std::array<T, N> &want);

template <class T>
void expectSame(const std::vector<T> &got, const std::vector<T> &want);

template <class K, class V>
void expectSame(const std::map<K, V> &got, const std::map<K, V> &want);

template <class A, class B>
void
expectSame(const std::pair<A, B> &got, const std::pair<A, B> &want)
{
    expectSame(got.first, want.first);
    expectSame(got.second, want.second);
}

template <class T, std::size_t N>
void
expectSame(const std::array<T, N> &got, const std::array<T, N> &want)
{
    for (std::size_t i = 0; i < N; ++i)
        expectSame(got[i], want[i]);
}

template <class T>
void
expectSame(const std::vector<T> &got, const std::vector<T> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        expectSame(got[i], want[i]);
}

template <class K, class V>
void
expectSame(const std::map<K, V> &got, const std::map<K, V> &want)
{
    ASSERT_EQ(got.size(), want.size());
    auto it = want.begin();
    for (const auto &[key, value] : got) {
        EXPECT_TRUE(key == it->first);
        expectSame(value, it->second);
        ++it;
    }
}

/** Small geometry for fast functional tests. */
inline GeometryConfig
tinyGeometry()
{
    return GeometryConfig::tiny();
}

/** One parsed JSON value. */
struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &at(const std::string &key) const
    {
        const auto it = object.find(key);
        if (it == object.end())
            throw std::runtime_error("missing key " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return object.count(key) != 0;
    }
};

/** Minimal JSON parser for validating exported reports and traces. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue parse()
    {
        const JsonValue value = parseValue();
        skipWs();
        if (pos_ != text_.size())
            throw std::runtime_error("trailing JSON content");
        return value;
    }

  private:
    void skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            throw std::runtime_error("unexpected end of JSON");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c) {
            throw std::runtime_error(std::string("expected '") + c +
                                     "' at offset " +
                                     std::to_string(pos_));
        }
        ++pos_;
    }

    JsonValue parseValue()
    {
        switch (peek()) {
          case '{': return parseObject();
          case '[': return parseArray();
          case '"': return parseString();
          case 't': return parseLiteral("true", true);
          case 'f': return parseLiteral("false", false);
          case 'n': return parseLiteral("null", false);
          default: return parseNumber();
        }
    }

    JsonValue parseLiteral(const std::string &word, bool value)
    {
        if (text_.compare(pos_, word.size(), word) != 0)
            throw std::runtime_error("bad JSON literal");
        pos_ += word.size();
        JsonValue out;
        out.type = word == "null" ? JsonValue::Type::Null
                                  : JsonValue::Type::Bool;
        out.boolean = value;
        return out;
    }

    JsonValue parseNumber()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(
                    static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            throw std::runtime_error("bad JSON number");
        JsonValue out;
        out.type = JsonValue::Type::Number;
        out.number = std::stod(text_.substr(start, pos_ - start));
        return out;
    }

    JsonValue parseString()
    {
        expect('"');
        JsonValue out;
        out.type = JsonValue::Type::String;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    throw std::runtime_error("bad escape");
                const char esc = text_[pos_++];
                switch (esc) {
                  case 'n': c = '\n'; break;
                  case 't': c = '\t'; break;
                  case 'r': c = '\r'; break;
                  case 'u':
                    if (pos_ + 4 > text_.size())
                        throw std::runtime_error("bad \\u escape");
                    c = static_cast<char>(std::stoi(
                        text_.substr(pos_, 4), nullptr, 16));
                    pos_ += 4;
                    break;
                  default: c = esc; break;
                }
            }
            out.string.push_back(c);
        }
        expect('"');
        return out;
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue out;
        out.type = JsonValue::Type::Array;
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        for (;;) {
            out.array.push_back(parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return out;
        }
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue out;
        out.type = JsonValue::Type::Object;
        if (peek() == '}') {
            ++pos_;
            return out;
        }
        for (;;) {
            const JsonValue key = parseString();
            expect(':');
            out.object.emplace(key.string, parseValue());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return out;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

} // namespace fcdram::test

#endif // FCDRAM_TESTS_TESTUTIL_HH
