/**
 * @file
 * Report serialization: the one text writer behind every JSON and CSV
 * report of the command-line tools. A document is built by appending
 * to a single std::string and handed back by move; numbers go through
 * std::to_chars, so no stream, locale or temporary string is involved.
 *
 * Number contract. A double is written as exactly the bytes
 * printf("%.17g") produces: 17 significant digits, trailing zeros
 * trimmed, exponent form below 1e-4 and from 1e17 on, and "inf",
 * "-inf", "nan", "-nan" for the non-finite values. 17 digits
 * round-trip every double exactly, but they are not the shortest
 * round-trip form (0.1 is written 0.10000000000000001). Switching to
 * the shortest form would change report bytes and therefore needs a
 * `format_version` bump; the reports have not made that change.
 */

#ifndef ULPEAK_UTIL_JSON_HH
#define ULPEAK_UTIL_JSON_HH

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace ulpeak {
namespace util {

/** Tags: a string written JSON-escaped (no quotes added), or written
 *  as one double-quoted CSV field. */
struct JsonEscaped {
    std::string_view s;
};
struct CsvQuoted {
    std::string_view s;
};

inline JsonEscaped
jsonEscape(std::string_view s)
{
    return {s};
}

inline CsvQuoted
csvQuote(std::string_view s)
{
    return {s};
}

/** Append-only text buffer with stream-like `<<` for report writers. */
class Writer {
  public:
    Writer &operator<<(std::string_view s) { buf_.append(s); return *this; }
    Writer &operator<<(const char *s) { buf_.append(s); return *this; }
    Writer &operator<<(char c) { buf_ += c; return *this; }
    /** Booleans are spelled out by the caller ("true" or 1). */
    Writer &operator<<(bool) = delete;

    /** The `%.17g` contract of the file comment. */
    Writer &
    operator<<(double d)
    {
        char b[32];
        auto end = std::to_chars(b, b + sizeof b, d,
                                 std::chars_format::general, 17);
        buf_.append(b, end.ptr);
        return *this;
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool> &&
                                   !std::is_same_v<T, char>,
                               int> = 0>
    Writer &
    operator<<(T v)
    {
        char b[24];
        buf_.append(b, std::to_chars(b, b + sizeof b, v).ptr);
        return *this;
    }

    Writer &
    operator<<(JsonEscaped e)
    {
        static const char kHex[] = "0123456789abcdef";
        for (char c : e.s) {
            switch (c) {
              case '"': buf_ += "\\\""; break;
              case '\\': buf_ += "\\\\"; break;
              case '\n': buf_ += "\\n"; break;
              case '\t': buf_ += "\\t"; break;
              case '\r': buf_ += "\\r"; break;
              default:
                if (static_cast<unsigned char>(c) >= 0x20)
                    buf_ += c;
                else
                    buf_.append({'\\', 'u', '0', '0', kHex[c >> 4],
                                 kHex[c & 15]});
            }
        }
        return *this;
    }

    Writer &
    operator<<(CsvQuoted q)
    {
        buf_ += '"';
        for (char c : q.s)
            buf_.append(c == '"' ? 2 : 1, c); // quotes are doubled
        buf_ += '"';
        return *this;
    }

    void reserve(size_t n) { buf_.reserve(n); }
    /** The finished document, moved out of the writer. */
    std::string take() { return std::move(buf_); }

  private:
    std::string buf_;
};

/** One double under the `%.17g` contract, for printf-style output. */
inline std::string
fmtDouble(double d)
{
    Writer w;
    w << d;
    return w.take();
}

} // namespace util
} // namespace ulpeak

#endif // ULPEAK_UTIL_JSON_HH
