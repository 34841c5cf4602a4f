#include "util/parse.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace tps {

bool
parseU64(const char *s, uint64_t *out)
{
    // strtoull would skip leading space and negate a '-' sign.
    if (*s < '0' || *s > '9')
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    *out = v;
    return true;
}

bool
parseSize(const char *s, uint64_t *out)
{
    size_t len = std::strlen(s);
    if (len == 0)
        return false;
    unsigned shift = 0;
    switch (s[len - 1] | 0x20) {
      case 'k': shift = 10; break;
      case 'm': shift = 20; break;
      case 'g': shift = 30; break;
      case 't': shift = 40; break;
      default: break;
    }
    std::string digits(s, shift ? len - 1 : len);
    uint64_t v = 0;
    if (!parseU64(digits.c_str(), &v))
        return false;
    if (shift && v > (~0ull >> shift))
        return false;
    *out = v << shift;
    return true;
}

bool
parseF64(const char *s, double *out)
{
    // strtod would skip leading space.
    if (*s == '\0' || std::isspace(static_cast<unsigned char>(*s)))
        return false;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (errno != 0 || end == s || *end != '\0' || !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

} // namespace tps
