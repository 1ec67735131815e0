/**
 * @file
 * FNV-1a hashing shared by the plan-cache filename scheme and the
 * graph signature in serialize/graph_text -- one implementation so the
 * constants and the hex rendering cannot drift apart.
 */
#ifndef SMARTMEM_SUPPORT_HASH_H
#define SMARTMEM_SUPPORT_HASH_H

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace smartmem {

/**
 * Incremental 64-bit FNV-1a over length-delimited fields: a separator
 * byte is folded in after every field, so feed("ab"), feed("c") and
 * feed("a"), feed("bc") hash differently.  Not cryptographic -- used
 * for cache filenames and graph signatures, both of which are
 * verified against ground truth on every read.
 *
 * A field can also be streamed in pieces -- bytes() and decimal() any
 * number of times, then endField() -- which hashes exactly what
 * feed() of the concatenated text would, without building it.
 */
struct Fnv1a
{
    std::uint64_t h = 1469598103934665603ull;

    /** Append raw bytes to the current field. */
    void bytes(std::string_view s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    }

    /** Append `v` in decimal (std::to_string's digits). */
    void decimal(std::int64_t v)
    {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), v);
        bytes(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
    }

    /** Close the current field with the separator byte. */
    void endField()
    {
        h ^= 0xffu;
        h *= 1099511628211ull;
    }

    void feed(std::string_view s)
    {
        bytes(s);
        endField();
    }

    void feed(std::int64_t v)
    {
        decimal(v);
        endField();
    }

    /** Canonical 16-digit lowercase hex rendering. */
    std::string hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }
};

/** One-shot hash of a single string field. */
inline std::string
fnv1aHex(const std::string &s)
{
    Fnv1a f;
    f.feed(s);
    return f.hex();
}

} // namespace smartmem

#endif // SMARTMEM_SUPPORT_HASH_H
