/**
 * @file
 * Strict number parsers for command-line values.  Each one accepts the
 * whole string or nothing: atoi-style silent truncation ("8x" -> 8,
 * "" -> 0, "-1" -> 2^64-1) is exactly how a typo'd sweep burns a
 * night, so every caller rejects such input up front.
 */

#ifndef TPS_UTIL_PARSE_HH
#define TPS_UTIL_PARSE_HH

#include <cstdint>

namespace tps {

/** Unsigned decimal: digits only (no sign, no space), fits uint64_t. */
bool parseU64(const char *s, uint64_t *out);

/**
 * Byte size: parseU64 digits with an optional single k/m/g/t suffix
 * (binary units, case-insensitive; "1t" = 1 TiB) whose product still
 * fits uint64_t.
 */
bool parseSize(const char *s, uint64_t *out);

/** Finite double: the whole string, no leading space, no nan/inf. */
bool parseF64(const char *s, double *out);

} // namespace tps

#endif // TPS_UTIL_PARSE_HH
