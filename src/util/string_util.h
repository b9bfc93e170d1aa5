// Small string helpers shared across modules.
#ifndef PDTSTORE_UTIL_STRING_UTIL_H_
#define PDTSTORE_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pdtstore {

/// Joins parts with the given separator.
std::string Join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace pdtstore

#endif  // PDTSTORE_UTIL_STRING_UTIL_H_
