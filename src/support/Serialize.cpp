//===-- Serialize.cpp - Binary snapshot framework -----------------------------==//

#include "support/Serialize.h"

#include "support/Budget.h"

using namespace tsl;

// CRC32C (Castagnoli, reflected poly 0x82F63B78). Chosen over the
// zlib polynomial because x86 carries it in hardware (SSE4.2): the
// warm-start path checksums every section of a snapshot, and the
// hardware loop runs an order of magnitude faster than any table
// walk. The software fallback is slicing-by-8 — eight derived
// tables folding eight bytes per iteration — so both paths compute
// the identical function and dispatch is a one-time CPU probe.

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("sse4.2"))) static uint32_t
crc32cHw(const uint8_t *P, std::size_t Size, uint32_t C) {
  while (Size >= 8) {
    uint64_t W;
    __builtin_memcpy(&W, P, 8);
    C = static_cast<uint32_t>(
        __builtin_ia32_crc32di(static_cast<uint64_t>(C), W));
    P += 8;
    Size -= 8;
  }
  while (Size--)
    C = __builtin_ia32_crc32qi(C, *P++);
  return C;
}
#endif

static uint32_t crc32cSw(const uint8_t *P, std::size_t Size, uint32_t C) {
  static const auto *Table = [] {
    static uint32_t T[8][256];
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t V = I;
      for (int K = 0; K != 8; ++K)
        V = (V & 1) ? 0x82F63B78u ^ (V >> 1) : V >> 1;
      T[0][I] = V;
    }
    for (unsigned S = 1; S != 8; ++S)
      for (uint32_t I = 0; I != 256; ++I)
        T[S][I] = (T[S - 1][I] >> 8) ^ T[0][T[S - 1][I] & 0xFF];
    return T;
  }();
  // Explicit little-endian loads keep this portable; on LE targets
  // they compile to plain word loads.
  while (Size >= 8) {
    const uint32_t Lo = static_cast<uint32_t>(P[0]) |
                        static_cast<uint32_t>(P[1]) << 8 |
                        static_cast<uint32_t>(P[2]) << 16 |
                        static_cast<uint32_t>(P[3]) << 24;
    const uint32_t Hi = static_cast<uint32_t>(P[4]) |
                        static_cast<uint32_t>(P[5]) << 8 |
                        static_cast<uint32_t>(P[6]) << 16 |
                        static_cast<uint32_t>(P[7]) << 24;
    C ^= Lo;
    C = Table[7][C & 0xFF] ^ Table[6][(C >> 8) & 0xFF] ^
        Table[5][(C >> 16) & 0xFF] ^ Table[4][C >> 24] ^
        Table[3][Hi & 0xFF] ^ Table[2][(Hi >> 8) & 0xFF] ^
        Table[1][(Hi >> 16) & 0xFF] ^ Table[0][Hi >> 24];
    P += 8;
    Size -= 8;
  }
  while (Size--)
    C = Table[0][(C ^ *P++) & 0xFF] ^ (C >> 8);
  return C;
}

uint32_t tsl::crc32(const void *Data, std::size_t Size) {
  const uint8_t *P = static_cast<const uint8_t *>(Data);
#if defined(__x86_64__) || defined(__i386__)
  static const bool HasHw = __builtin_cpu_supports("sse4.2");
  if (HasHw)
    return crc32cHw(P, Size, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
#endif
  return crc32cSw(P, Size, 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

void ByteWriter::bitset(const SparseBitSet &B) {
  vu64(B.count());
  unsigned Prev = 0;
  bool First = true;
  B.forEach([&](unsigned Id) {
    vu32(First ? Id : Id - Prev);
    Prev = Id;
    First = false;
  });
}

SparseBitSet ByteReader::bitset() {
  uint64_t N = vu64();
  SparseBitSet B;
  unsigned Cur = 0;
  for (uint64_t I = 0; I != N; ++I) {
    uint32_t Gap = vu32();
    Cur = I == 0 ? Gap : Cur + Gap;
    B.insert(Cur);
  }
  return B;
}

// Section frame: tag u32 | payload length u64 | payload crc32 u32 |
// payload bytes. Length and CRC are back-patched by endSection().
void ByteWriter::beginSection(SnapshotSection Tag) {
  if (InSection)
    throw SerializeError("nested section");
  InSection = true;
  SectionStart = Buf.size();
  u32(static_cast<uint32_t>(Tag));
  u64(0); // Length placeholder.
  u32(0); // CRC placeholder.
}

void ByteWriter::endSection() {
  if (!InSection)
    throw SerializeError("endSection without beginSection");
  InSection = false;
  const std::size_t PayloadStart = SectionStart + 4 + 8 + 4;
  const uint64_t Len = Buf.size() - PayloadStart;
  for (int I = 0; I != 8; ++I)
    Buf[SectionStart + 4 + I] = static_cast<uint8_t>(Len >> (8 * I));
  const uint32_t Crc = tsl::crc32(Buf.data() + PayloadStart, Len);
  for (int I = 0; I != 4; ++I)
    Buf[SectionStart + 12 + I] = static_cast<uint8_t>(Crc >> (8 * I));
}

void tsl::putReport(ByteWriter &W, const StageReport &Rep) {
  W.str(Rep.Stage);
  W.u8(static_cast<uint8_t>(Rep.Status));
  W.str(Rep.Reason);
  W.str(Rep.Fallback);
  W.vu64(Rep.StepsUsed);
  // Bit-exact: the IEEE 754 bit pattern as a u64.
  uint64_t Bits;
  std::memcpy(&Bits, &Rep.Seconds, sizeof(Bits));
  W.u64(Bits);
}

StageReport tsl::getReport(ByteReader &R) {
  StageReport Rep;
  Rep.Stage = R.str();
  uint8_t S = R.u8();
  if (S > static_cast<uint8_t>(StageStatus::Degraded))
    throw SerializeError("unknown stage status");
  Rep.Status = static_cast<StageStatus>(S);
  Rep.Reason = R.str();
  Rep.Fallback = R.str();
  Rep.StepsUsed = R.vu64();
  const uint64_t Bits = R.u64();
  std::memcpy(&Rep.Seconds, &Bits, sizeof(Bits));
  return Rep;
}

ByteReader ByteReader::section(SnapshotSection ExpectedTag) {
  uint32_t Tag = u32();
  if (Tag != static_cast<uint32_t>(ExpectedTag))
    throw SerializeError("unexpected section tag " + std::to_string(Tag));
  uint64_t Len = u64();
  uint32_t Crc = u32();
  need(Len);
  if (tsl::crc32(P, Len) != Crc)
    throw SerializeError("section CRC mismatch");
  ByteReader Sub(P, Len);
  P += Len;
  return Sub;
}
