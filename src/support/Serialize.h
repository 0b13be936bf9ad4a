//===-- Serialize.h - Binary snapshot framework -----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The little-endian binary serialization framework behind the
/// versioned artifact snapshots (DESIGN.md section 14). A snapshot
/// file is a fixed header (magic + format version) followed by
/// tagged sections, each framed with its payload length and a CRC32C
/// so truncation and bit flips are detected before any layer decoder
/// runs. Integers are written as LEB128 varints (ids and counts are
/// small), spans as raw bytes, and id sets as delta-coded sorted id
/// runs. Every decode-side primitive bounds-checks and throws
/// SerializeError; callers (AnalysisSession::loadSnapshot) convert
/// that to a sound cold-rebuild fallback, never a crash.
///
/// TSL_SNAPSHOT_VERSION must be bumped by ANY change to the encoded
/// layout of any section — readers reject mismatched versions
/// wholesale rather than attempting migration.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_SERIALIZE_H
#define THINSLICER_SUPPORT_SERIALIZE_H

#include "support/SparseBitSet.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace tsl {

/// File magic: "TSLS" little-endian.
constexpr uint32_t TSL_SNAPSHOT_MAGIC = 0x534C5354u;

/// Snapshot format version. Bump on ANY layout change to ANY section
/// (new field, reordered field, changed codec): readers reject other
/// versions and the session falls back to a cold rebuild.
constexpr uint32_t TSL_SNAPSHOT_VERSION = 3;

/// Section tags, in file order.
enum class SnapshotSection : uint32_t {
  Meta = 1,    ///< Digests the cache key is made of.
  Program = 2, ///< Strings, types, classes, fields, methods, bodies.
  Sdg = 3,     ///< Nodes and kind-tagged edges (CSR is re-derived).
};

/// Raised by any decode-side primitive on overrun, bad magic, bad
/// section tag, CRC mismatch, or a value out of its domain. Must not
/// escape loadSnapshot: the session converts it to a fallback.
class SerializeError : public std::runtime_error {
public:
  explicit SerializeError(const std::string &What)
      : std::runtime_error("snapshot: " + What) {}
};

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) of \p Size
/// bytes at \p Data. Hardware-accelerated via SSE4.2 where the CPU
/// supports it; identical results from the software fallback.
uint32_t crc32(const void *Data, std::size_t Size);

/// Little-endian append-only buffer writer with section framing.
class ByteWriter {
public:
  void u8(uint8_t V) { Buf.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Buf.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  /// LEB128 varint.
  void vu64(uint64_t V) {
    while (V >= 0x80) {
      Buf.push_back(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    Buf.push_back(static_cast<uint8_t>(V));
  }
  void vu32(uint32_t V) { vu64(V); }
  /// Zigzag-coded signed varint.
  void vi64(int64_t V) {
    vu64((static_cast<uint64_t>(V) << 1) ^
         static_cast<uint64_t>(V >> 63));
  }

  /// Length-prefixed string.
  void str(std::string_view S) {
    vu64(S.size());
    raw(S.data(), S.size());
  }

  /// Raw byte span (no length prefix).
  void raw(const void *Data, std::size_t Size) {
    const uint8_t *P = static_cast<const uint8_t *>(Data);
    Buf.insert(Buf.end(), P, P + Size);
  }

  /// Sorted set-bit ids, delta-coded: count then ascending gaps.
  void bitset(const SparseBitSet &B);

  /// Opens a framed section: writes the tag and reserves the length
  /// and CRC slots, patched by endSection(). Sections do not nest.
  void beginSection(SnapshotSection Tag);
  /// Closes the open section: patches its payload length and CRC32.
  void endSection();

  const std::vector<uint8_t> &buffer() const { return Buf; }
  std::size_t size() const { return Buf.size(); }

private:
  std::vector<uint8_t> Buf;
  std::size_t SectionStart = 0; ///< Offset of the open section's header.
  bool InSection = false;
};

/// Bounds-checked little-endian reader over a byte span. All reads
/// throw SerializeError on overrun or malformed input.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, std::size_t Size)
      : P(Data), End(Data + Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Buf)
      : ByteReader(Buf.data(), Buf.size()) {}

  uint8_t u8() {
    need(1);
    return *P++;
  }
  uint32_t u32() {
    need(4);
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(*P++) << (8 * I);
    return V;
  }
  uint64_t u64() {
    need(8);
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(*P++) << (8 * I);
    return V;
  }

  uint64_t vu64() {
    uint64_t V = 0;
    for (unsigned Shift = 0; Shift < 64; Shift += 7) {
      need(1);
      uint8_t B = *P++;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
    }
    throw SerializeError("varint overflow");
  }
  uint32_t vu32() {
    uint64_t V = vu64();
    if (V > 0xFFFFFFFFull)
      throw SerializeError("varint exceeds 32 bits");
    return static_cast<uint32_t>(V);
  }
  int64_t vi64() {
    uint64_t Z = vu64();
    return static_cast<int64_t>((Z >> 1) ^ (~(Z & 1) + 1));
  }

  std::string str() {
    uint64_t N = vu64();
    need(N);
    std::string S(reinterpret_cast<const char *>(P), N);
    P += N;
    return S;
  }

  void raw(void *Out, std::size_t Size) {
    need(Size);
    std::memcpy(Out, P, Size);
    P += Size;
  }

  SparseBitSet bitset();

  /// Reads one section header, verifies the tag, the payload fits,
  /// and the CRC32 matches, then returns a reader over the payload
  /// (advancing this reader past it).
  ByteReader section(SnapshotSection ExpectedTag);

  std::size_t remaining() const { return static_cast<std::size_t>(End - P); }
  bool atEnd() const { return P == End; }

private:
  void need(std::size_t N) const {
    if (static_cast<std::size_t>(End - P) < N)
      throw SerializeError("truncated input");
  }

  const uint8_t *P;
  const uint8_t *End;
};

struct StageReport;

/// StageReport codec shared by the layer codecs. Writes the six
/// artifact fields only — the cache telemetry counters are session
/// state, not artifact state, and are not serialized.
void putReport(ByteWriter &W, const StageReport &Rep);
StageReport getReport(ByteReader &R);

} // namespace tsl

#endif // THINSLICER_SUPPORT_SERIALIZE_H
