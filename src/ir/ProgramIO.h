//===-- ProgramIO.h - Program snapshot codec --------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary encode/decode of a complete Program for the artifact
/// snapshots (DESIGN.md section 14). The decoder reconstructs the
/// program through the same Program/Method mutation API lowering
/// uses, in the same order the encoder walked it, so every dense id
/// (class, field, method, local, block, instruction) is reproduced
/// exactly — which is what lets the SDG serialize itself as dense ids
/// alone.
///
/// Also exports the dense-key lookup helpers the SDG decoder resolves
/// identities with.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_PROGRAMIO_H
#define THINSLICER_IR_PROGRAMIO_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/Serialize.h"

#include <memory>

namespace tsl {

/// Writes the PROGRAM section payload: interned strings, classes,
/// fields, method shells, and method bodies, all in dense-id order.
void encodeProgram(const Program &P, ByteWriter &W);

/// Rebuilds a Program from an encodeProgram() payload. Throws
/// SerializeError on any malformed input. The result is structurally
/// identical to the encoded program: every dense id round-trips.
std::unique_ptr<Program> decodeProgram(ByteReader &R);

/// Resolves a denseInstrKey() against \p P (method id in the high
/// word, renumbered instruction id in the low word). Throws
/// SerializeError when either id is out of range.
const Instr *instrForKey(const Program &P, uint64_t Key);

/// Resolves a program-wide method id; throws when out of range.
Method *methodForId(const Program &P, uint32_t Id);

} // namespace tsl

#endif // THINSLICER_IR_PROGRAMIO_H
