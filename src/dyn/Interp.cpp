//===-- Interp.cpp - ThinJ interpreter ----------------------------------------==//

#include "dyn/Interp.h"

#include "cg/ClassHierarchy.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace tsl;

//===----------------------------------------------------------------------===//
// DynTrace
//===----------------------------------------------------------------------===//

uint32_t DynTrace::addInstance(const Instr *I, std::vector<uint32_t> Deps) {
  // Drop missing deps (untraced producers like exhausted inputs).
  Deps.erase(std::remove(Deps.begin(), Deps.end(), NoInstance), Deps.end());
  Instances.push_back({I, std::move(Deps)});
  return static_cast<uint32_t>(Instances.size() - 1);
}

int64_t DynTrace::lastInstanceOf(const Instr *I) const {
  for (size_t Idx = Instances.size(); Idx-- > 0;)
    if (Instances[Idx].I == I)
      return static_cast<int64_t>(Idx);
  return -1;
}

std::vector<const Instr *>
DynTrace::dynamicThinSlice(uint32_t InstanceId) const {
  std::vector<const Instr *> Out;
  std::unordered_set<const Instr *> SeenStmts;
  std::vector<bool> Visited(Instances.size(), false);
  std::vector<uint32_t> Stack = {InstanceId};
  while (!Stack.empty()) {
    uint32_t Id = Stack.back();
    Stack.pop_back();
    if (Id >= Instances.size() || Visited[Id])
      continue;
    Visited[Id] = true;
    const Instance &Inst = Instances[Id];
    if (SeenStmts.insert(Inst.I).second)
      Out.push_back(Inst.I);
    for (uint32_t Dep : Inst.ThinDeps)
      Stack.push_back(Dep);
  }
  return Out;
}

std::vector<const Instr *>
DynTrace::dynamicThinSliceOfLast(const Instr *Seed) const {
  int64_t Id = lastInstanceOf(Seed);
  if (Id < 0)
    return {};
  return dynamicThinSlice(static_cast<uint32_t>(Id));
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

namespace {

/// Trace instances recorded before tracing stops (a memory guard).
constexpr uint64_t MaxTraceInstances = 4'000'000;

/// A runtime value with its producing trace instance.
struct Value {
  enum class Kind { Int, Bool, Null, Ref } K = Kind::Null;
  int64_t I = 0;    ///< Int/Bool payload.
  unsigned Ref = 0; ///< Heap object index for Kind::Ref.
  uint32_t Inst = DynTrace::NoInstance;

  static Value makeInt(int64_t V) { return {Kind::Int, V, 0, ~0u}; }
  static Value makeBool(bool V) { return {Kind::Bool, V, 0, ~0u}; }
  static Value makeNull() { return {}; }
  static Value makeRef(unsigned Obj) { return {Kind::Ref, 0, Obj, ~0u}; }

  bool isNull() const { return K == Kind::Null; }
};

/// A slot in the heap: the value plus its writing store instance.
struct Slot {
  Value V;
  uint32_t Writer = DynTrace::NoInstance;
};

/// One heap object: a class instance, an array, or a string.
struct HeapObject {
  const Type *Ty = nullptr;
  const ClassDef *Class = nullptr;
  std::unordered_map<const Field *, Slot> Fields;
  std::vector<Slot> Elems;
  std::string Str;
};

/// Signals for non-local exits.
enum class Signal { None, Exception, RuntimeError, LimitHit };

class Interp {
public:
  Interp(const Program &P, const InterpOptions &Opts)
      : P(P), Opts(Opts), CH(P),
        StepGate(Opts.Budget, "interp.step", /*StepCap=*/0),
        OutGate(Opts.Budget, "interp.output", Opts.MaxOutputBytes) {}

  InterpResult run();

private:
  /// Executes one method body; the return value (if any) lands in
  /// \p RetVal.
  Signal execMethod(const Method *M, const std::vector<Value> &Args,
                    Value &RetVal, unsigned Depth);

  Signal callMethod(const CallInstr *Call, const Method *Target,
                    const std::vector<Value> &Args, Value &RetVal,
                    unsigned Depth);

  Signal fail(const Instr *I, const std::string &Msg) {
    R.Error = Msg + (I->loc().isValid()
                         ? " at line " + std::to_string(I->loc().Line)
                         : "");
    R.FailurePoint = I;
    return Signal::RuntimeError;
  }

  bool traceOn() const {
    return Opts.TraceDeps &&
           R.Trace.instances().size() < MaxTraceInstances;
  }

  /// Creates a trace instance for \p I consuming \p Deps.
  uint32_t note(const Instr *I, std::vector<uint32_t> Deps) {
    if (!traceOn())
      return DynTrace::NoInstance;
    return R.Trace.addInstance(I, std::move(Deps));
  }

  std::string render(const Value &V) const;
  unsigned allocString(std::string S) {
    Heap.push_back(HeapObject{P.types().stringType(), nullptr, {}, {}, S});
    return static_cast<unsigned>(Heap.size() - 1);
  }

  const Program &P;
  const InterpOptions &Opts;
  ClassHierarchy CH;
  InterpResult R;
  std::vector<HeapObject> Heap;
  std::unordered_map<const Field *, Slot> Statics;
  size_t NextLine = 0, NextInt = 0;
  uint64_t Steps = 0;
  uint64_t OutputBytes = 0;
  /// Budget/fault gates: step count (plus wall-clock deadline) and
  /// cumulative print-output bytes.
  BudgetGate StepGate;
  BudgetGate OutGate;
};

} // namespace

std::string Interp::render(const Value &V) const {
  switch (V.K) {
  case Value::Kind::Int:
    return std::to_string(V.I);
  case Value::Kind::Bool:
    return V.I ? "true" : "false";
  case Value::Kind::Null:
    return "null";
  case Value::Kind::Ref: {
    const HeapObject &O = Heap[V.Ref];
    if (O.Ty->isString())
      return O.Str;
    if (O.Ty->isArray())
      return "array@" + std::to_string(V.Ref);
    return P.strings().str(O.Class->name()) + "@" + std::to_string(V.Ref);
  }
  }
  return "?";
}

InterpResult Interp::run() {
  const Method *Main = P.mainMethod();
  if (!Main) {
    R.Error = "program has no main method";
    return std::move(R);
  }
  Value Ret;
  Signal S = execMethod(Main, {}, Ret, 0);
  R.Completed = S == Signal::None;
  R.ThrewException = S == Signal::Exception;
  R.HitLimit = S == Signal::LimitHit;
  R.Steps = Steps;
  return std::move(R);
}

Signal Interp::callMethod(const CallInstr *Call, const Method *Target,
                          const std::vector<Value> &Args, Value &RetVal,
                          unsigned Depth) {
  (void)Call;
  if (Depth + 1 >= Opts.MaxCallDepth) {
    R.Error = "call depth limit exceeded";
    return Signal::LimitHit;
  }
  return execMethod(Target, Args, RetVal, Depth + 1);
}

Signal Interp::execMethod(const Method *M, const std::vector<Value> &Args,
                          Value &RetVal, unsigned Depth) {
  std::unordered_map<const Local *, Value> Regs;
  const BasicBlock *Block = M->entry();
  const BasicBlock *PrevBlock = nullptr;

  auto Get = [&](const Local *L) { return Regs[L]; };

  while (true) {
    // Evaluate phis of the block first, all based on the same
    // predecessor, reading pre-update registers (parallel semantics).
    if (PrevBlock) {
      std::vector<std::pair<const Local *, Value>> PhiUpdates;
      for (const auto &IPtr : Block->instrs()) {
        const auto *Phi = dyn_cast<PhiInstr>(IPtr.get());
        if (!Phi)
          break;
        const auto &Incoming = Phi->incomingBlocks();
        Value V;
        for (size_t Idx = 0; Idx != Incoming.size(); ++Idx) {
          if (Incoming[Idx] == PrevBlock) {
            V = Get(Phi->operand(static_cast<unsigned>(Idx)));
            break;
          }
        }
        Value Out = V;
        Out.Inst = note(Phi, {V.Inst});
        PhiUpdates.emplace_back(Phi->dest(), Out);
      }
      for (auto &[L, V] : PhiUpdates)
        Regs[L] = V;
    }

    for (const auto &IPtr : Block->instrs()) {
      const Instr *I = IPtr.get();
      if (isa<PhiInstr>(I))
        continue; // Handled above.
      if (++Steps > Opts.MaxSteps) {
        R.Error = "step limit exceeded";
        return Signal::LimitHit;
      }
      if (StepGate.poll(Steps)) {
        R.Error = "interpreter budget exhausted (" + StepGate.reason() + ")";
        return Signal::LimitHit;
      }

      switch (I->kind()) {
      case InstrKind::ConstInt: {
        Value V = Value::makeInt(cast<ConstIntInstr>(I)->value());
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::ConstBool: {
        Value V = Value::makeBool(cast<ConstBoolInstr>(I)->value());
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::ConstString: {
        unsigned Obj = allocString(
            P.strings().str(cast<ConstStringInstr>(I)->value()));
        Value V = Value::makeRef(Obj);
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::ConstNull: {
        Value V = Value::makeNull();
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::Read: {
        Value V;
        if (cast<ReadInstr>(I)->readKind() == ReadKind::Line) {
          std::string Line =
              NextLine < Opts.InputLines.size() ? Opts.InputLines[NextLine]
                                                : std::string();
          ++NextLine;
          V = Value::makeRef(allocString(std::move(Line)));
        } else {
          int64_t N =
              NextInt < Opts.InputInts.size() ? Opts.InputInts[NextInt] : 0;
          ++NextInt;
          V = Value::makeInt(N);
        }
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::Param: {
        unsigned Idx = cast<ParamInstr>(I)->index();
        Value V = Idx < Args.size() ? Args[Idx] : Value::makeNull();
        Value Out = V;
        Out.Inst = note(I, {V.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::Move: {
        Value V = Get(cast<MoveInstr>(I)->src());
        Value Out = V;
        Out.Inst = note(I, {V.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::UnOp: {
        const auto *U = cast<UnOpInstr>(I);
        Value V = Get(U->src());
        Value Out = U->op() == UnOpKind::Neg ? Value::makeInt(-V.I)
                                             : Value::makeBool(!V.I);
        Out.Inst = note(I, {V.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::BinOp: {
        const auto *B = cast<BinOpInstr>(I);
        Value L = Get(B->lhs()), Rv = Get(B->rhs());
        Value Out;
        switch (B->op()) {
        case BinOpKind::Add:
          Out = Value::makeInt(L.I + Rv.I);
          break;
        case BinOpKind::Sub:
          Out = Value::makeInt(L.I - Rv.I);
          break;
        case BinOpKind::Mul:
          Out = Value::makeInt(L.I * Rv.I);
          break;
        case BinOpKind::Div:
          if (Rv.I == 0)
            return fail(I, "division by zero");
          Out = Value::makeInt(L.I / Rv.I);
          break;
        case BinOpKind::Rem:
          if (Rv.I == 0)
            return fail(I, "remainder by zero");
          Out = Value::makeInt(L.I % Rv.I);
          break;
        case BinOpKind::Lt:
          Out = Value::makeBool(L.I < Rv.I);
          break;
        case BinOpKind::Le:
          Out = Value::makeBool(L.I <= Rv.I);
          break;
        case BinOpKind::Gt:
          Out = Value::makeBool(L.I > Rv.I);
          break;
        case BinOpKind::Ge:
          Out = Value::makeBool(L.I >= Rv.I);
          break;
        case BinOpKind::Eq:
        case BinOpKind::Ne: {
          bool Eq;
          if (L.K == Value::Kind::Ref || Rv.K == Value::Kind::Ref ||
              L.isNull() || Rv.isNull())
            Eq = L.K == Rv.K && (L.K != Value::Kind::Ref || L.Ref == Rv.Ref);
          else
            Eq = L.I == Rv.I;
          Out = Value::makeBool(B->op() == BinOpKind::Eq ? Eq : !Eq);
          break;
        }
        }
        Out.Inst = note(I, {L.Inst, Rv.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::StrOp: {
        const auto *SO = cast<StrOpInstr>(I);
        std::vector<Value> Ops;
        std::vector<uint32_t> ValueDeps;
        for (unsigned Idx = 0; Idx != SO->numOperands(); ++Idx) {
          Ops.push_back(Get(SO->operand(Idx)));
          if (SO->operandRole(Idx) == OperandRole::Value)
            ValueDeps.push_back(Ops.back().Inst);
        }
        auto StrOf = [&](unsigned Idx) -> const std::string * {
          if (Ops[Idx].K != Value::Kind::Ref)
            return nullptr;
          return &Heap[Ops[Idx].Ref].Str;
        };
        Value Out;
        switch (SO->op()) {
        case StrOpKind::Concat: {
          // Java renders null operands as "null" in concatenation.
          const std::string *A = StrOf(0), *B = StrOf(1);
          std::string Left = A ? *A : "null";
          std::string Right = B ? *B : "null";
          Out = Value::makeRef(allocString(Left + Right));
          break;
        }
        case StrOpKind::Substring: {
          const std::string *S = StrOf(0);
          if (!S)
            return fail(I, "null string in substring");
          int64_t From = Ops[1].I, To = Ops[2].I;
          if (From < 0 || To < From ||
              To > static_cast<int64_t>(S->size()))
            return fail(I, "substring range out of bounds");
          Out = Value::makeRef(allocString(
              S->substr(static_cast<size_t>(From),
                        static_cast<size_t>(To - From))));
          break;
        }
        case StrOpKind::CharAt: {
          const std::string *S = StrOf(0);
          if (!S)
            return fail(I, "null string in charAt");
          int64_t Idx = Ops[1].I;
          if (Idx < 0 || Idx >= static_cast<int64_t>(S->size()))
            return fail(I, "charAt index out of bounds");
          Out = Value::makeInt(static_cast<unsigned char>((*S)[Idx]));
          break;
        }
        case StrOpKind::IndexOf: {
          const std::string *S = StrOf(0), *N = StrOf(1);
          if (!S || !N)
            return fail(I, "null string in indexOf");
          size_t Pos = S->find(*N);
          Out = Value::makeInt(
              Pos == std::string::npos ? -1 : static_cast<int64_t>(Pos));
          break;
        }
        case StrOpKind::Length: {
          const std::string *S = StrOf(0);
          if (!S)
            return fail(I, "null string in length");
          Out = Value::makeInt(static_cast<int64_t>(S->size()));
          break;
        }
        case StrOpKind::Equals: {
          const std::string *S = StrOf(0), *N = StrOf(1);
          if (!S || !N)
            return fail(I, "null string in equals");
          Out = Value::makeBool(*S == *N);
          break;
        }
        case StrOpKind::FromInt:
          Out = Value::makeRef(allocString(std::to_string(Ops[0].I)));
          break;
        }
        Out.Inst = note(I, std::move(ValueDeps));
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::New: {
        const auto *NI = cast<NewInstr>(I);
        HeapObject O;
        O.Ty = P.types().classType(
            const_cast<ClassDef *>(NI->allocatedClass()));
        O.Class = NI->allocatedClass();
        Heap.push_back(std::move(O));
        Value V = Value::makeRef(static_cast<unsigned>(Heap.size() - 1));
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::NewArray: {
        const auto *NA = cast<NewArrayInstr>(I);
        Value Len = Get(NA->length());
        if (Len.I < 0)
          return fail(I, "negative array length");
        HeapObject O;
        O.Ty = P.types().arrayType(NA->elementType());
        Slot Default;
        if (NA->elementType()->isInt())
          Default.V = Value::makeInt(0);
        else if (NA->elementType()->isBool())
          Default.V = Value::makeBool(false);
        O.Elems.assign(static_cast<size_t>(Len.I), Default);
        Heap.push_back(std::move(O));
        Value V = Value::makeRef(static_cast<unsigned>(Heap.size() - 1));
        V.Inst = note(I, {});
        Regs[I->dest()] = V;
        break;
      }
      case InstrKind::Load: {
        const auto *L = cast<LoadInstr>(I);
        Slot S;
        if (L->isStaticAccess()) {
          S = Statics[L->field()];
        } else {
          Value Base = Get(L->base());
          if (Base.isNull())
            return fail(I, "null dereference reading field '" +
                               P.strings().str(L->field()->name()) + "'");
          S = Heap[Base.Ref].Fields[L->field()];
        }
        Value Out = S.V;
        // Never-written primitive fields read their typed default.
        if (Out.isNull()) {
          if (L->field()->type()->isInt())
            Out = Value::makeInt(0);
          else if (L->field()->type()->isBool())
            Out = Value::makeBool(false);
        }
        Out.Inst = note(I, {S.Writer});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::Store: {
        const auto *St = cast<StoreInstr>(I);
        Value V = Get(St->src());
        uint32_t Writer = note(I, {V.Inst});
        if (St->isStaticAccess()) {
          Statics[St->field()] = {V, Writer};
        } else {
          Value Base = Get(St->base());
          if (Base.isNull())
            return fail(I, "null dereference writing field '" +
                               P.strings().str(St->field()->name()) + "'");
          Heap[Base.Ref].Fields[St->field()] = {V, Writer};
        }
        break;
      }
      case InstrKind::ArrayLoad: {
        const auto *AL = cast<ArrayLoadInstr>(I);
        Value Base = Get(AL->array());
        Value Idx = Get(AL->index());
        if (Base.isNull())
          return fail(I, "null dereference indexing array");
        HeapObject &O = Heap[Base.Ref];
        if (Idx.I < 0 || Idx.I >= static_cast<int64_t>(O.Elems.size()))
          return fail(I, "array index " + std::to_string(Idx.I) +
                             " out of bounds (length " +
                             std::to_string(O.Elems.size()) + ")");
        Slot S = O.Elems[static_cast<size_t>(Idx.I)];
        Value Out = S.V;
        Out.Inst = note(I, {S.Writer});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::ArrayStore: {
        const auto *AS = cast<ArrayStoreInstr>(I);
        Value Base = Get(AS->array());
        Value Idx = Get(AS->index());
        Value V = Get(AS->src());
        if (Base.isNull())
          return fail(I, "null dereference storing into array");
        HeapObject &O = Heap[Base.Ref];
        if (Idx.I < 0 || Idx.I >= static_cast<int64_t>(O.Elems.size()))
          return fail(I, "array index " + std::to_string(Idx.I) +
                             " out of bounds (length " +
                             std::to_string(O.Elems.size()) + ")");
        uint32_t Writer = note(I, {V.Inst});
        O.Elems[static_cast<size_t>(Idx.I)] = {V, Writer};
        break;
      }
      case InstrKind::ArrayLen: {
        const auto *AL = cast<ArrayLenInstr>(I);
        Value Base = Get(AL->array());
        if (Base.isNull())
          return fail(I, "null dereference taking array length");
        Value Out =
            Value::makeInt(static_cast<int64_t>(Heap[Base.Ref].Elems.size()));
        Out.Inst = note(I, {});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::Call: {
        const auto *C = cast<CallInstr>(I);
        const Method *Target = C->target();
        std::vector<Value> CallArgs;
        if (C->hasReceiver()) {
          Value Recv = Get(C->receiver());
          if (Recv.isNull())
            return fail(I, "null receiver calling '" +
                               P.strings().str(Target->name()) + "'");
          if (C->isVirtual()) {
            const HeapObject &O = Heap[Recv.Ref];
            if (!O.Class)
              return fail(I, "method call on non-object value");
            Target = CH.resolveVirtual(O.Class, Target);
            if (!Target)
              return fail(I, "no method target at dispatch");
          }
          CallArgs.push_back(Recv);
        }
        for (unsigned A = 0; A != C->numArgs(); ++A)
          CallArgs.push_back(Get(C->arg(A)));
        Value Ret;
        Signal S = callMethod(C, Target, CallArgs, Ret, Depth);
        if (S != Signal::None)
          return S;
        if (C->dest()) {
          Value Out = Ret;
          Out.Inst = note(I, {Ret.Inst});
          Regs[C->dest()] = Out;
        }
        break;
      }
      case InstrKind::Cast: {
        const auto *C = cast<CastInstr>(I);
        Value V = Get(C->src());
        if (!V.isNull()) {
          const Type *RuntimeTy = Heap[V.Ref].Ty;
          if (!CH.isSubtype(RuntimeTy, C->targetType()))
            return fail(I, "bad cast to " + C->targetType()->str());
        }
        Value Out = V;
        Out.Inst = note(I, {V.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::InstanceOf: {
        const auto *IO = cast<InstanceOfInstr>(I);
        Value V = Get(IO->src());
        bool Is = !V.isNull() &&
                  CH.isSubtype(Heap[V.Ref].Ty, IO->testType());
        Value Out = Value::makeBool(Is);
        Out.Inst = note(I, {V.Inst});
        Regs[I->dest()] = Out;
        break;
      }
      case InstrKind::Print: {
        Value V = Get(cast<PrintInstr>(I)->src());
        note(I, {V.Inst});
        std::string Line = render(V);
        OutputBytes += Line.size() + 1;
        if (OutGate.poll(OutputBytes)) {
          R.Error = "output limit exceeded (" + OutGate.reason() + ")";
          return Signal::LimitHit;
        }
        R.Output.push_back(std::move(Line));
        break;
      }
      case InstrKind::Goto:
        PrevBlock = Block;
        Block = cast<GotoInstr>(I)->target();
        goto NextBlock;
      case InstrKind::Branch: {
        const auto *B = cast<BranchInstr>(I);
        Value V = Get(B->cond());
        note(I, {V.Inst});
        PrevBlock = Block;
        Block = V.I ? B->trueTarget() : B->falseTarget();
        goto NextBlock;
      }
      case InstrKind::Ret: {
        const auto *Ret = cast<RetInstr>(I);
        if (Ret->src()) {
          Value V = Get(Ret->src());
          RetVal = V;
          RetVal.Inst = note(I, {V.Inst});
        } else {
          RetVal = Value::makeNull();
        }
        return Signal::None;
      }
      case InstrKind::Throw: {
        const auto *T = cast<ThrowInstr>(I);
        Value V = Get(T->src());
        note(I, {V.Inst});
        R.Error = "uncaught exception: " + render(V) +
                  (I->loc().isValid()
                       ? " thrown at line " + std::to_string(I->loc().Line)
                       : "");
        R.FailurePoint = I;
        return Signal::Exception;
      }
      case InstrKind::Phi:
        break; // Unreachable; handled at block entry.
      }
    }
    // A well-formed block ends in a terminator, so we only get here
    // via the goto below.
  NextBlock:
    continue;
  }
}

InterpResult tsl::interpret(const Program &P, const InterpOptions &Options) {
  // Module boundary: nothing escapes as a C++ exception. An injected
  // Throw fault (or an internal error) surfaces as a Crashed result
  // the caller can report and recover from.
  try {
    Interp I(P, Options);
    return I.run();
  } catch (const std::exception &E) {
    InterpResult R;
    R.Crashed = true;
    R.Error = std::string("interpreter crashed: ") + E.what();
    return R;
  }
}
