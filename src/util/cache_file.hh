/**
 * @file
 * Disk-cache helpers shared by the result caches of the batch driver
 * (src/peak/batch) and the fault campaigns (src/fault): FNV-1a key
 * hashing, entry paths, hex bit-pattern fields (an exact round trip,
 * so a warm run reproduces the cold run bit for bit), one-read entry
 * loads, and atomic writes through a temp sibling.
 */

#ifndef ULPEAK_UTIL_CACHE_FILE_HH
#define ULPEAK_UTIL_CACHE_FILE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "util/json.hh"

namespace ulpeak {
namespace util {

/// @name FNV-1a hashing over heterogeneous key fields
/// @{
constexpr uint64_t kFnvOffset = 1469598103934665603ull;

inline void
hashBytes(uint64_t &h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 1099511628211ull;
}

inline void
hashU64(uint64_t &h, uint64_t v)
{
    hashBytes(h, &v, sizeof v);
}

inline void
hashDouble(uint64_t &h, double d)
{
    hashBytes(h, &d, sizeof d);
}

inline void
hashString(uint64_t &h, const std::string &s)
{
    hashU64(h, s.size());
    hashBytes(h, s.data(), s.size());
}
/// @}

/** The bit pattern of a value, written as @p digits (at most 16)
 *  lower-case hex digits. */
struct HexBits {
    uint64_t bits;
    unsigned digits;
};

inline HexBits
doubleBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    return {bits, 16};
}

inline HexBits
floatBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return {bits, 8};
}

inline Writer &
operator<<(Writer &w, HexBits h)
{
    static const char kHex[] = "0123456789abcdef";
    char buf[16];
    for (unsigned d = h.digits; d-- > 0; h.bits >>= 4)
        buf[d] = kHex[h.bits & 15];
    return w << std::string_view(buf, h.digits);
}

/** "<dir>/<prefix><16 hex digits of key>.txt" */
inline std::filesystem::path
entryPath(const std::string &dir, const char *prefix, uint64_t key)
{
    Writer w;
    w << prefix << HexBits{key, 16} << ".txt";
    return std::filesystem::path(dir) / w.take();
}

/** Hex digit values of the lower-case digits; 0xff marks the rest. */
inline constexpr std::array<uint8_t, 256> kHexValue = [] {
    std::array<uint8_t, 256> t{};
    for (uint8_t &v : t)
        v = 0xff;
    for (int i = 0; i < 16; ++i)
        t[size_t("0123456789abcdef"[i])] = uint8_t(i);
    return t;
}();

/** Inverse of doubleBits / floatBits for one value: @p s must be
 *  exactly 2 * sizeof(T) lower-case hex digits. */
template <typename T>
bool
bitsValue(std::string_view s, T &out)
{
    if (s.size() != 2 * sizeof(T))
        return false;
    uint64_t bits = 0;
    unsigned seen = 0; // any non-digit sets a bit above the low four
    for (char c : s) {
        uint8_t v = kHexValue[static_cast<unsigned char>(c)];
        seen |= v;
        bits = bits << 4 | (v & 15u);
    }
    using Bits = std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t>;
    Bits narrow = Bits(bits);
    std::memcpy(&out, &narrow, sizeof out);
    return seen < 16;
}

/** Parse @p n floats from @p s (floatBits digits, concatenated). */
inline bool
bitsFloats(std::string_view s, size_t n, std::vector<float> &out)
{
    if (s.size() % 8 != 0 || s.size() / 8 != n) // n comes from the file
        return false;
    out.resize(n);
    for (size_t i = 0; i < n; ++i)
        if (!bitsValue(s.substr(i * 8, 8), out[i]))
            return false;
    return true;
}

/** The whole of @p path in one read; false when it cannot be read. */
inline bool
readFile(const std::filesystem::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    std::streamoff size = in.tellg();
    if (!in || size < 0)
        return false;
    out.resize(size_t(size));
    in.seekg(0);
    return bool(in.read(out.data(), std::streamsize(out.size())));
}

/** "<name>.tmp.<pid>.<thread>.<n>" beside @p path, n counting calls in
 *  this process: no two processes, threads or calls share a name. */
inline std::filesystem::path
tempSibling(const std::filesystem::path &path)
{
    static std::atomic<uint64_t> calls{0};
    Writer w;
    w << path.filename().string() << ".tmp." << uint64_t(::getpid())
      << '.' << std::hash<std::thread::id>{}(std::this_thread::get_id())
      << '.' << calls.fetch_add(1);
    return path.parent_path() / w.take();
}

/** Best-effort atomic write (temp sibling + rename): on any failure
 *  the temp file is removed and @p path is left as it was. */
inline void
writeFileAtomic(const std::filesystem::path &path,
                const std::string &content)
{
    std::filesystem::path tmp = tempSibling(path);
    bool written;
    {
        std::ofstream out(tmp, std::ios::binary);
        written = out && out.write(content.data(),
                                   std::streamsize(content.size()));
    }
    std::error_code ec;
    if (written)
        std::filesystem::rename(tmp, path, ec);
    if (!written || ec)
        std::filesystem::remove(tmp, ec);
}

} // namespace util
} // namespace ulpeak

#endif // ULPEAK_UTIL_CACHE_FILE_HH
