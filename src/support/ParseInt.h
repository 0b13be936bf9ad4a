//===-- ParseInt.h - Strict numeric parsing ---------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strict decimal parsing shared by the CLI and anything else that
/// turns user-typed text into counts. atoi-style silent acceptance of
/// "abc" (as 0) turned typos into "no seed"; these reject anything
/// that is not exactly a decimal integer of the requested shape.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_PARSEINT_H
#define THINSLICER_SUPPORT_PARSEINT_H

#include <cstdint>
#include <string>

namespace tsl {

/// Strict base-10 parse of a positive count: digits only (no sign, no
/// leading/trailing junk), nonzero, in range. \p Out is written only
/// on success. A null \p V fails.
bool parsePositiveInt(const char *V, uint64_t &Out);
bool parsePositiveInt(const std::string &V, uint64_t &Out);

/// The same parse for 32-bit counts (line numbers, thread counts):
/// values above UINT32_MAX fail instead of being truncated.
bool parsePositiveInt(const char *V, uint32_t &Out);
bool parsePositiveInt(const std::string &V, uint32_t &Out);

/// Strict base-10 parse of a nonzero signed integer: an optional
/// leading '-' followed by digits only, nonzero, in range. \p Out is
/// written only on success. A null \p V fails.
bool parseNonZeroInt(const char *V, int64_t &Out);
bool parseNonZeroInt(const std::string &V, int64_t &Out);

} // namespace tsl

#endif // THINSLICER_SUPPORT_PARSEINT_H
