//===-- Program.h - ThinJ program model -------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyzed program: classes with fields and methods, method bodies
/// as control-flow graphs of three-address instructions. This is the
/// common substrate for the class hierarchy, pointer analysis, SDG
/// construction, slicing, and the interpreter. It corresponds to the
/// bytecode-level IR the paper's WALA implementation analyzes.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_IR_PROGRAM_H
#define THINSLICER_IR_PROGRAM_H

#include "ir/LineTable.h"
#include "ir/Types.h"
#include "support/SourceLoc.h"
#include "support/StringTable.h"

#include <memory>
#include <string>
#include <vector>

namespace tsl {

class BasicBlock;
class ClassDef;
class Instr;
class Method;
class Program;

/// An instance or static field of a class.
class Field {
public:
  Field(Symbol Name, const Type *Ty, ClassDef *Owner, bool IsStatic,
        unsigned Id)
      : Name(Name), Ty(Ty), Owner(Owner), IsStatic(IsStatic), Id(Id) {}

  Symbol name() const { return Name; }
  const Type *type() const { return Ty; }
  ClassDef *owner() const { return Owner; }
  bool isStatic() const { return IsStatic; }
  /// Program-wide dense field id.
  unsigned id() const { return Id; }

private:
  Symbol Name;
  const Type *Ty;
  ClassDef *Owner;
  bool IsStatic;
  unsigned Id;
};

/// A local variable or compiler temporary of a method. After SSA
/// construction each Local has exactly one defining instruction.
class Local {
public:
  Local(Symbol BaseName, const Type *Ty, unsigned Id, unsigned Version = 0,
        bool IsTemp = false)
      : BaseName(BaseName), Ty(Ty), Id(Id), Version(Version), IsTemp(IsTemp) {}

  Symbol baseName() const { return BaseName; }
  const Type *type() const { return Ty; }
  /// Method-local dense id.
  unsigned id() const { return Id; }
  /// SSA version (0 before SSA construction).
  unsigned version() const { return Version; }
  bool isTemp() const { return IsTemp; }

  /// Program-wide id of the owning method, set by Method::addLocal.
  unsigned ownerMethodId() const { return OwnerMethodId; }
  void setOwnerMethodId(unsigned MId) { OwnerMethodId = MId; }

  /// The unique defining instruction once the method is in SSA form.
  Instr *def() const { return Def; }
  void setDef(Instr *I) { Def = I; }

private:
  Symbol BaseName;
  const Type *Ty;
  unsigned Id;
  unsigned Version;
  bool IsTemp;
  unsigned OwnerMethodId = ~0u;
  Instr *Def = nullptr;
};

/// A formal parameter signature entry.
struct ParamSig {
  Symbol Name;
  const Type *Ty;
};

/// A method of a class (static or instance). Instance methods take an
/// implicit `this` parameter at index 0 of the body's Param
/// instructions; ParamSig covers only the declared parameters.
class Method {
public:
  Method(Symbol Name, ClassDef *Owner, bool IsStatic, const Type *RetTy,
         std::vector<ParamSig> Params, unsigned Id);
  ~Method();

  Method(const Method &) = delete;
  Method &operator=(const Method &) = delete;

  Symbol name() const { return Name; }
  ClassDef *owner() const { return Owner; }
  bool isStatic() const { return IsStatic; }
  const Type *returnType() const { return RetTy; }
  const std::vector<ParamSig> &params() const { return Params; }
  /// Program-wide dense method id.
  unsigned id() const { return Id; }

  /// Number of formals in the body, including `this` for instance
  /// methods.
  unsigned numFormals() const {
    return static_cast<unsigned>(Params.size()) + (IsStatic ? 0 : 1);
  }

  /// "Class.name" for messages and tables.
  std::string qualifiedName(const StringTable &Strings) const;

  //===--------------------------------------------------------------------===
  // Body
  //===--------------------------------------------------------------------===

  BasicBlock *entry() const { return Entry; }
  void setEntry(BasicBlock *BB) { Entry = BB; }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  BasicBlock *addBlock();

  const std::vector<std::unique_ptr<Local>> &locals() const { return Locals; }
  Local *addLocal(Symbol BaseName, const Type *Ty, bool IsTemp = false,
                  unsigned Version = 0);

  /// Assigns dense ids (block order, instruction order within block) to
  /// all blocks and instructions. Must be re-run after CFG surgery.
  void renumber();

  /// Deletes blocks not reachable from the entry (created by lowering
  /// code after returns/breaks) and renumbers. Must run before SSA.
  void removeUnreachableBlocks();

  /// Total number of instructions after the last renumber().
  unsigned numInstrs() const { return NumInstrs; }

  /// All instructions in renumbered order. Only valid after renumber().
  const std::vector<Instr *> &instrs() const { return AllInstrs; }

  /// True once SSA construction ran on this body.
  bool isSSA() const { return SSAForm; }
  void setSSA(bool V) { SSAForm = V; }

  /// A method body detached by takeBody(): the full CFG, locals and
  /// instruction storage of one compiled version of the method. The
  /// incremental recompiler swaps bodies while keeping the Method
  /// object (and thus its program-wide id and every Method* in
  /// analysis artifacts) stable. Holding a DetachedBody keeps the old
  /// Instr* / Local* addresses alive, so stale hash-map keys in
  /// retained analysis state can still be erased (or safely compared)
  /// without ever dereferencing freed memory.
  struct DetachedBody {
    BasicBlock *Entry = nullptr;
    std::vector<std::unique_ptr<BasicBlock>> Blocks;
    std::vector<std::unique_ptr<Local>> Locals;
    std::vector<Instr *> AllInstrs;
    unsigned NumInstrs = 0;
    bool SSAForm = false;
  };

  /// Detaches the current body, leaving the method empty (no entry, no
  /// blocks, no locals) and ready for re-lowering.
  DetachedBody takeBody();

  /// Restores a body previously detached with takeBody(), discarding
  /// whatever the method currently holds.
  void resetBody(DetachedBody Body);

private:
  Symbol Name;
  ClassDef *Owner;
  bool IsStatic;
  const Type *RetTy;
  std::vector<ParamSig> Params;
  unsigned Id;

  BasicBlock *Entry = nullptr;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
  std::vector<std::unique_ptr<Local>> Locals;
  std::vector<Instr *> AllInstrs;
  unsigned NumInstrs = 0;
  bool SSAForm = false;
};

/// A ThinJ class: fields, methods, and a single superclass (Object has
/// none).
class ClassDef {
public:
  ClassDef(Symbol Name, unsigned Id) : Name(Name), Id(Id) {}

  Symbol name() const { return Name; }
  /// Program-wide dense class id.
  unsigned id() const { return Id; }

  ClassDef *superclass() const { return Super; }
  void setSuperclass(ClassDef *C) { Super = C; }

  const std::vector<Field *> &fields() const { return Fields; }
  void addField(Field *F) { Fields.push_back(F); }

  const std::vector<Method *> &methods() const { return Methods; }
  void addMethod(Method *M) { Methods.push_back(M); }

  /// Finds a field declared in this class (not in superclasses).
  Field *findOwnField(Symbol Name) const;
  /// Finds a field declared in this class or a superclass.
  Field *findField(Symbol Name) const;
  /// Finds a method declared in this class (not in superclasses).
  Method *findOwnMethod(Symbol Name) const;
  /// Finds a method declared in this class or inherited.
  Method *findMethod(Symbol Name) const;

  /// True if this class equals \p Other or transitively extends it.
  bool isSubclassOf(const ClassDef *Other) const;

private:
  Symbol Name;
  unsigned Id;
  ClassDef *Super = nullptr;
  std::vector<Field *> Fields;
  std::vector<Method *> Methods;
};

/// A complete analyzed program: the unit the whole pipeline operates
/// on. Owns the string table, type table, classes, fields, and methods.
class Program {
public:
  Program();

  StringTable &strings() { return Strings; }
  const StringTable &strings() const { return Strings; }
  TypeTable &types() { return Types; }
  const TypeTable &types() const { return Types; }

  const std::vector<std::unique_ptr<ClassDef>> &classes() const {
    return Classes;
  }
  ClassDef *addClass(Symbol Name);
  ClassDef *findClass(Symbol Name) const;

  const std::vector<std::unique_ptr<Method>> &methods() const {
    return Methods;
  }
  Method *addMethod(Symbol Name, ClassDef *Owner, bool IsStatic,
                    const Type *RetTy, std::vector<ParamSig> Params);

  const std::vector<std::unique_ptr<Field>> &fields() const { return Fields; }
  Field *addField(Symbol Name, const Type *Ty, ClassDef *Owner, bool IsStatic);

  /// The root of the class hierarchy; created by the Program
  /// constructor.
  ClassDef *objectClass() const { return ObjectClass; }

  /// The program entry point (a static, parameterless method).
  Method *mainMethod() const { return Main; }
  void setMainMethod(Method *M) { Main = M; }

  /// The source-line index of the method bodies (ir/LineTable.h). The
  /// passes that make or move bodies keep it current: lowering, the
  /// snapshot decoder and the incremental compiler.
  const LineTable &lineTable() const { return Lines; }
  LineTable &lineTable() { return Lines; }

private:
  StringTable Strings;
  TypeTable Types;
  std::vector<std::unique_ptr<ClassDef>> Classes;
  std::vector<std::unique_ptr<Method>> Methods;
  std::vector<std::unique_ptr<Field>> Fields;
  ClassDef *ObjectClass = nullptr;
  Method *Main = nullptr;
  LineTable Lines;
};

//===----------------------------------------------------------------------===//
// Dense identity keys
//===----------------------------------------------------------------------===//
//
// The SDG codec writes program-derived integers instead of raw
// pointers, so a decoded graph reconstructs identity against a decoded
// Program (DESIGN.md section 14); the call graph and mod-ref key their
// maps by the same ids. Method, class, and field ids are program-wide;
// instruction ids are method-local, so their dense key (denseInstrKey
// in ir/Instr.h) pairs them with the owning method's id.

} // namespace tsl

#endif // THINSLICER_IR_PROGRAM_H
