//===-- Workload.cpp - Workload infrastructure and paper figures ---------------==//

#include "eval/Workload.h"

#include "eval/Runtime.h"

using namespace tsl;

WorkloadProgram tsl::makeWorkload(const std::string &Name,
                                  const std::string &Body,
                                  bool IncludeRuntime) {
  WorkloadProgram W;
  W.Name = Name;
  unsigned Offset = 0;
  if (IncludeRuntime) {
    W.Source = runtimeLibrarySource();
    Offset = runtimeLibraryLines();
  }
  W.Source += Body;

  // Scan "//@ name" markers line by line over the body.
  unsigned Line = Offset;
  size_t Pos = 0;
  while (Pos <= Body.size()) {
    size_t End = Body.find('\n', Pos);
    if (End == std::string::npos)
      End = Body.size();
    ++Line;
    std::string_view Text(Body.data() + Pos, End - Pos);
    size_t MarkPos = Text.find("//@ ");
    if (MarkPos != std::string_view::npos) {
      size_t NameStart = MarkPos + 4;
      size_t NameEnd = NameStart;
      while (NameEnd < Text.size() && !isspace(Text[NameEnd]))
        ++NameEnd;
      std::string MarkerName(Text.substr(NameStart, NameEnd - NameStart));
      if (!MarkerName.empty())
        W.Markers[MarkerName] = Line;
    }
    Pos = End + 1;
  }
  return W;
}

const CastInstr *tsl::castAtLine(const Program &P, unsigned Line) {
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line)
          if (const auto *C = dyn_cast<CastInstr>(I.get()))
            return C;
  return nullptr;
}

const Instr *tsl::heapAccessAtLine(const Program &P, unsigned Line) {
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line)
          switch (I->kind()) {
          case InstrKind::Load:
          case InstrKind::Store:
          case InstrKind::ArrayLoad:
          case InstrKind::ArrayStore:
            return I.get();
          default:
            break;
          }
  return nullptr;
}

const Instr *tsl::branchAtLine(const Program &P, unsigned Line) {
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line && isa<BranchInstr>(I.get()))
          return I.get();
  return nullptr;
}

SourceLine tsl::sourceLineAt(const Program &P, unsigned Line) {
  for (const auto &M : P.methods())
    for (const auto &BB : M->blocks())
      for (const auto &I : BB->instrs())
        if (I->loc().Line == Line)
          return {M.get(), Line};
  return {nullptr, Line};
}

//===----------------------------------------------------------------------===//
// Figure 1
//===----------------------------------------------------------------------===//

WorkloadProgram tsl::makeFigure1() {
  return makeWorkload("figure1", R"THINJ(
class SessionState {
  var names: Vector;
  def setNames(v: Vector) {
    names = v;
  }
  def getNames(): Vector {
    return names;
  }
}

class Session {
  static var state: SessionState;
  static def getState(): SessionState {
    if (Session.state == null) {
      Session.state = new SessionState();
    }
    return Session.state;
  }
}

def readNames(count: int): Vector {
  var firstNames = new Vector();
  for (var i = 0; i < count; i = i + 1) {
    var fullName = readLine();
    var spaceInd = fullName.indexOf(" ");
    var firstName = fullName.substring(0, spaceInd - 1); //@ bug
    firstNames.add(firstName); //@ add
  }
  return firstNames;
}

def printNames(firstNames: Vector) {
  for (var i = 0; i < firstNames.size(); i = i + 1) {
    var firstName = (string) firstNames.get(i); //@ get
    print("FIRST NAME: " + firstName); //@ seed
  }
}

def main() {
  var count = readInt();
  var firstNames = readNames(count);
  var s = Session.getState();
  s.setNames(firstNames); //@ setnames
  var t = Session.getState();
  printNames(t.getNames()); //@ getnames
}
)THINJ");
}

//===----------------------------------------------------------------------===//
// Figure 2
//===----------------------------------------------------------------------===//

WorkloadProgram tsl::makeFigure2() {
  return makeWorkload("figure2", R"THINJ(
class A {
  var f: Object;
}

class B {
}

def main() {
  var x = new A(); //@ base-alloc
  var z = x; //@ alias1
  var y = new B(); //@ producer-alloc
  var w = x; //@ alias2
  w.f = y; //@ producer-store
  if (w == z) { //@ cond
    var v = z.f; //@ seed
    print(v);
  }
}
)THINJ");
}

//===----------------------------------------------------------------------===//
// Figure 4
//===----------------------------------------------------------------------===//

WorkloadProgram tsl::makeFigure4() {
  return makeWorkload("figure4", R"THINJ(
class ClosedException {
}

class File {
  var open: bool;
  def init() {
    this.open = true; //@ openfield-true
  }
  def isOpen(): bool {
    return this.open; //@ isopen
  }
  def close() {
    this.open = false; //@ openfield-false
  }
}

def readFromFile(f: File) {
  var open = f.isOpen(); //@ readopen
  if (!open) { //@ cond
    throw new ClosedException(); //@ seed
  }
  print("read ok");
}

def main() {
  var f = new File(); //@ file-alloc
  var files = new Vector();
  files.add(f); //@ vec-add
  var g = (File) files.get(0); //@ vec-get-1
  g.close(); //@ close-call
  var h = (File) files.get(0); //@ vec-get-2
  readFromFile(h); //@ read-call
}
)THINJ");
}

//===----------------------------------------------------------------------===//
// Figure 5
//===----------------------------------------------------------------------===//

WorkloadProgram tsl::makeFigure5() {
  return makeWorkload("figure5", R"THINJ(
class Node {
  var op: int;
  static var ADD_NODE_OP: int = 1; //@ tagstore
  static var SUB_NODE_OP: int = 2;
  def init(op0: int) {
    this.op = op0; //@ superstore
  }
}

class AddNode extends Node {
  var lhs: Node;
  var rhs: Node;
  def init(l: Node, r: Node) {
    super(Node.ADD_NODE_OP); //@ addnode-ctor
    lhs = l;
    rhs = r;
  }
}

class SubNode extends Node {
  def init() {
    super(Node.SUB_NODE_OP);
  }
}

def simplify(n: Node) {
  var op = n.op; //@ opread
  if (op == 1) { //@ switchcond
    var add = (AddNode) n; //@ cast
    print(add.op);
  } else {
    print("other");
  }
}

def main() {
  var a = new AddNode(null, null);
  var s = new SubNode();
  simplify(a);
  simplify(s);
}
)THINJ");
}
