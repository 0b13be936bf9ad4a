//===-- ParseInt.cpp - Strict numeric parsing -----------------------------------==//

#include "support/ParseInt.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

using namespace tsl;

namespace {

bool allDigits(const char *Body) {
  if (!Body || !*Body)
    return false;
  for (const char *C = Body; *C; ++C)
    if (!isdigit(static_cast<unsigned char>(*C)))
      return false;
  return true;
}

} // namespace

bool tsl::parsePositiveInt(const char *V, uint64_t &Out) {
  if (!allDigits(V))
    return false;
  errno = 0;
  uint64_t N = strtoull(V, nullptr, 10);
  if (errno == ERANGE || N == 0)
    return false;
  Out = N;
  return true;
}

bool tsl::parsePositiveInt(const std::string &V, uint64_t &Out) {
  return parsePositiveInt(V.c_str(), Out);
}

bool tsl::parsePositiveInt(const char *V, uint32_t &Out) {
  uint64_t N = 0;
  if (!parsePositiveInt(V, N) || N > UINT32_MAX)
    return false;
  Out = static_cast<uint32_t>(N);
  return true;
}

bool tsl::parsePositiveInt(const std::string &V, uint32_t &Out) {
  return parsePositiveInt(V.c_str(), Out);
}

bool tsl::parseNonZeroInt(const char *V, int64_t &Out) {
  const char *Body = V && *V == '-' ? V + 1 : V;
  if (!allDigits(Body))
    return false;
  errno = 0;
  int64_t N = strtoll(V, nullptr, 10);
  if (errno == ERANGE || N == 0)
    return false;
  Out = N;
  return true;
}

bool tsl::parseNonZeroInt(const std::string &V, int64_t &Out) {
  return parseNonZeroInt(V.c_str(), Out);
}
