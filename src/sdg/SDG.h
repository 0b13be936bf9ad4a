//===-- SDG.h - System dependence graph --------------------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The system dependence graph (Horwitz-Reps-Binkley [11]) variant used
/// by both slicers (paper Section 5). Nodes are statements plus — in
/// the context-sensitive variant only — heap formal/actual parameter
/// nodes derived from mod-ref (Section 5.3) and the heap hubs that join
/// them. Edges carry the kind distinctions thin slicing is built on:
///
///  - Flow:     producer flow dependence (value use) — the only
///              intraprocedural kind thin slices follow;
///  - BaseFlow: flow into a base pointer or array index (explainer);
///  - Control:  control dependence, including virtual-dispatch
///              dependence of a call on its receiver (explainer);
///  - ParamIn / ParamOut: interprocedural parameter/return linkage,
///              annotated with the call site for context-sensitive
///              matching.
///
/// Edges are stored in dependence direction: an edge From -> To means
/// "To depends on From"; backward slicing walks inEdges.
///
/// An SDG is immutable and always in its query form: CSR (compressed
/// sparse row) in/out adjacency *partitioned by edge kind*, so a slicer
/// following a set of kinds iterates contiguous neighbor runs with no
/// per-edge branch or edge-record load, plus a statement index
/// addressed by dense instruction rank. Only buildSDG() (through
/// SDGBuilder, which owns every construction-time index) and decode()
/// create one; both end in the same private seal() routine. Tabulation
/// summaries are not graph edges: they live in the SummaryCache
/// (slicer/Tabulation.h).
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SDG_SDG_H
#define THINSLICER_SDG_SDG_H

#include "ir/Instr.h"
#include "ir/Program.h"
#include "support/Budget.h"
#include "support/Serialize.h"

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace tsl {

class ModRefResult;
class PointsToResult;
class SDGBuilder;

enum class SDGNodeKind {
  Stmt,
  /// Scalar actual-in: one per (call, operand). Renders at the call's
  /// source line — parameter passing is a producer statement (the
  /// paper's Figure 1 thin slice includes the call line 17).
  ScalarActualIn,
  HeapFormalIn,
  HeapFormalOut,
  HeapActualIn,
  HeapActualOut,
  /// Heap junction, Flow-wired writer -> hub -> reader: every writer x
  /// reader edge in O(writers + readers) edges. The CS graph has one
  /// per (method, partition), anchored at the method; the coarse
  /// budget fallback one global hub per field / static field /
  /// array-element class. Not a heap parameter.
  HeapHub,
};

enum class SDGEdgeKind {
  Flow,
  BaseFlow,
  Control,
  ParamIn,
  ParamOut,
};

/// Number of edge kinds — the CSR adjacency partition count.
constexpr unsigned NumSDGEdgeKinds = 5;

/// Bit mask over SDGEdgeKind values; the unit slicers select their
/// followed-edge set with.
using EdgeKindMask = unsigned;

constexpr EdgeKindMask edgeKindMask(SDGEdgeKind K) {
  return 1u << static_cast<unsigned>(K);
}

/// CSR partition slot of each edge kind. Slots order the kinds so the
/// unit slicers' masks select one contiguous run per node: Flow,
/// ParamIn, ParamOut first (the thin mask is slots [0,3)), then
/// BaseFlow, Control (traditional is [0,5)).
constexpr unsigned sdgKindSlot(SDGEdgeKind K) {
  constexpr unsigned Slot[NumSDGEdgeKinds] = {
      /*Flow*/ 0, /*BaseFlow*/ 3, /*Control*/ 4,
      /*ParamIn*/ 1, /*ParamOut*/ 2};
  return Slot[static_cast<unsigned>(K)];
}

/// The contiguous slot runs a kind mask selects, precomputed once per
/// traversal so the per-node cost of a masked neighbor scan is two
/// offset loads per run (both slicing masks are a single run).
struct EdgeKindRuns {
  struct Run {
    unsigned Begin, End; ///< Slot interval [Begin, End).
  };
  Run Runs[NumSDGEdgeKinds];
  unsigned NumRuns = 0;
};

inline EdgeKindRuns edgeKindRuns(EdgeKindMask Mask) {
  bool Sel[NumSDGEdgeKinds] = {};
  for (unsigned K = 0; K != NumSDGEdgeKinds; ++K)
    if (Mask & (1u << K))
      Sel[sdgKindSlot(static_cast<SDGEdgeKind>(K))] = true;
  EdgeKindRuns R;
  for (unsigned S = 0; S != NumSDGEdgeKinds; ++S) {
    if (!Sel[S])
      continue;
    unsigned B = S;
    while (S + 1 != NumSDGEdgeKinds && Sel[S + 1])
      ++S;
    R.Runs[R.NumRuns++] = {B, S + 1};
  }
  return R;
}

/// Returns a short printable edge-kind name.
const char *sdgEdgeKindName(SDGEdgeKind K);

/// One SDG node.
///
/// In the context-insensitive graph (paper Sec. 5.2), statements are
/// cloned per analysis context of their method — exactly as WALA's SDG
/// keys statements by call-graph node — so the object-sensitive
/// container precision survives into the dependence graph. Ctx is 0
/// everywhere in the context-sensitive (heap-parameter) variant, which
/// models calling contexts with the tabulation instead.
struct SDGNode {
  SDGNodeKind K;
  /// Stmt: the instruction. HeapActual*: the call instruction.
  const Instr *I;
  /// The owning method (for formal nodes and statements alike).
  const Method *M;
  /// Heap partition id (heap parameter nodes, CS hubs), field id
  /// (coarse hubs), or operand index (scalar actual-in nodes).
  unsigned Part;
  /// Analysis context of the owning method's clone.
  unsigned Ctx;
  unsigned Id;

  bool isStmt() const { return K == SDGNodeKind::Stmt; }

  /// True for nodes a user inspects as a source statement: plain
  /// statements and scalar parameter passing at call sites. These are
  /// what the paper's "SDG Statements" metric counts (heap parameter
  /// nodes are excluded).
  bool isSourceStmt() const {
    return K == SDGNodeKind::Stmt || K == SDGNodeKind::ScalarActualIn;
  }

  bool isFormalIn() const {
    return K == SDGNodeKind::HeapFormalIn ||
           (K == SDGNodeKind::Stmt && I && I->kind() == InstrKind::Param);
  }
  bool isFormalOut() const {
    return K == SDGNodeKind::HeapFormalOut ||
           (K == SDGNodeKind::Stmt && I && I->kind() == InstrKind::Ret);
  }
};

/// One SDG edge (From -> To: "To depends on From").
struct SDGEdge {
  unsigned From;
  unsigned To;
  SDGEdgeKind K;
  /// Call site for ParamIn/ParamOut edges; null otherwise.
  const CallInstr *Site;
};

/// Lightweight view of a contiguous run of unsigned ids (node ids,
/// edge ids, statement-clone ids). Valid as long as the graph lives:
/// a sealed SDG never changes.
class IdRange {
public:
  IdRange() = default;
  IdRange(const unsigned *B, const unsigned *E) : B(B), E(E) {}

  const unsigned *begin() const { return B; }
  const unsigned *end() const { return E; }
  std::size_t size() const { return static_cast<std::size_t>(E - B); }
  bool empty() const { return B == E; }
  unsigned operator[](std::size_t I) const { return B[I]; }
  unsigned front() const { return *B; }

private:
  const unsigned *B = nullptr;
  const unsigned *E = nullptr;
};

/// The dependence graph in its immutable query form. Read-only for
/// every caller; SDGBuilder fills it and decode() restores it.
///
/// A built graph lays its statement nodes out as one block per clone,
/// in clone order and ahead of every other node: the statement node of
/// instruction I in a clone whose block starts at node id Base is
/// Base + I->id() (Method::renumber() order).
class SDG {
  friend class SDGBuilder;

public:
  const Program &program() const { return P; }

  //===------------------------------------------------------------------===//
  // Queries
  //===------------------------------------------------------------------===//

  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const SDGNode &node(unsigned Id) const { return Nodes[Id]; }
  const std::vector<SDGNode> &nodes() const { return Nodes; }

  unsigned numEdges() const { return static_cast<unsigned>(Edges.size()); }
  const SDGEdge &edge(unsigned Id) const { return Edges[Id]; }

  /// Edge ids whose To is \p Node (the node's dependences), grouped by
  /// edge kind in sdgKindSlot order.
  IdRange inEdges(unsigned Node) const {
    return rowEdges(InOff, InEdgeId, Node);
  }
  /// Edge ids whose From is \p Node (the node's dependents).
  IdRange outEdges(unsigned Node) const {
    return rowEdges(OutOff, OutEdgeId, Node);
  }

  /// In-edge ids of \p Node of exactly kind \p K (a contiguous CSR
  /// segment).
  IdRange inEdgesOfKind(unsigned Node, SDGEdgeKind K) const {
    return kindEdges(InOff, InEdgeId, Node, K);
  }
  IdRange outEdgesOfKind(unsigned Node, SDGEdgeKind K) const {
    return kindEdges(OutOff, OutEdgeId, Node, K);
  }

  /// Calls \p Fn(NeighborNode) for every in-edge of \p Node whose kind
  /// is in \p Mask — the slicing hot path. The partition slot order
  /// makes both slicing masks one contiguous run, so the scan is a
  /// tight loop over the neighbor array (no edge-record loads). Hot
  /// loops should precompute edgeKindRuns(Mask) once and use the runs
  /// overload; the mask overloads recompute the runs per call.
  template <typename Fn>
  void forEachInNeighbor(unsigned Node, EdgeKindMask Mask, Fn F) const {
    forEachNeighborRow(InOff, InNbr, Node, edgeKindRuns(Mask), F);
  }
  template <typename Fn>
  void forEachOutNeighbor(unsigned Node, EdgeKindMask Mask, Fn F) const {
    forEachNeighborRow(OutOff, OutNbr, Node, edgeKindRuns(Mask), F);
  }
  template <typename Fn>
  void forEachInNeighbor(unsigned Node, const EdgeKindRuns &Runs,
                         Fn F) const {
    forEachNeighborRow(InOff, InNbr, Node, Runs, F);
  }
  template <typename Fn>
  void forEachOutNeighbor(unsigned Node, const EdgeKindRuns &Runs,
                          Fn F) const {
    forEachNeighborRow(OutOff, OutNbr, Node, Runs, F);
  }

  /// Out-neighbor node ids of one slot run [SlotBegin, SlotEnd) as a
  /// contiguous indexable range — for algorithms that need resumable
  /// masked adjacency (e.g. an explicit-stack DFS over the masked
  /// subgraph), which a callback can't provide.
  IdRange outNeighborRun(unsigned Node, unsigned SlotBegin,
                         unsigned SlotEnd) const {
    return neighborRun(OutOff, OutNbr, Node, SlotBegin, SlotEnd);
  }

  /// One node of the instruction (the first clone), or -1 when the
  /// instruction has no node.
  int nodeFor(const Instr *I) const {
    IdRange R = nodesFor(I);
    return R.empty() ? -1 : static_cast<int>(R.front());
  }

  /// All clones of the instruction (one per analysis context), in
  /// ascending node id. A source-statement seed means slicing from
  /// every clone. O(1): two offset loads at the instruction's rank.
  IdRange nodesFor(const Instr *I) const;

  /// The clone of \p I in context \p Ctx, or -1.
  int nodeFor(const Instr *I, unsigned Ctx) const;

  /// Statement count excluding parameter-passing machinery, matching
  /// the paper's Table 1 "SDG Statements" metric.
  unsigned numStmtNodes() const { return NumStmts; }

  /// Number of heap formal/actual parameter nodes (the CS blowup
  /// statistic); hubs are not counted.
  unsigned numHeapParamNodes() const { return NumHeapParams; }

  /// Budget status of construction: Complete, or Degraded with the
  /// merged-clone / coarse-heap fallback.
  const StageReport &report() const { return Report; }

  //===------------------------------------------------------------------===//
  // Snapshot codec (DESIGN.md section 14)
  //===------------------------------------------------------------------===//

  /// Writes the SDG section payload: nodes and edges, everything
  /// identified by dense ids.
  void encode(ByteWriter &W) const;

  /// Rebuilds a graph from an encode() payload against \p P with the
  /// validation a cold build guarantees (anchor resolution, bounds, no
  /// repeated node identity or edge). Nodes and edges are filled in
  /// stream order and sealed like a cold build, so ids, CSR order and
  /// the statement index reproduce exactly. Throws SerializeError on
  /// malformed input.
  static std::unique_ptr<SDG> decode(ByteReader &R, const Program &P);

private:
  explicit SDG(const Program &P) : P(P) {}

  /// Turns the filled node and edge lists into the query form, in
  /// time linear in the graph: builds the CSR adjacency (edge ids are
  /// the insertion ranks) and counting-sorts the statement index. Runs
  /// exactly once per graph.
  void seal();

  /// The number of repeated edges, in one pass over the out-CSR of a
  /// sealed graph. The builder never emits one, so only decode(), whose
  /// input comes from outside the program, always runs this; buildSDG
  /// asserts zero in builds without NDEBUG.
  std::size_t countRepeatedEdges() const;

  /// Sizes the node and edge lists, and the degree counts, for about
  /// \p NumNodes nodes and \p NumEdges edges.
  void reserve(std::size_t NumNodes, std::size_t NumEdges) {
    Nodes.reserve(NumNodes);
    Edges.reserve(NumEdges);
    InOff.reserve(NumNodes * NumSDGEdgeKinds + 1);
    OutOff.reserve(NumNodes * NumSDGEdgeKinds + 1);
  }

  /// Appends an edge and counts it into its (node, kind) in- and
  /// out-degree slots, so seal() lays out the CSR without a second
  /// pass over the edge list. Both constructors emit through this.
  void addEdge(unsigned From, unsigned To, SDGEdgeKind K,
               const CallInstr *Site) {
    Edges.push_back({From, To, K, Site});
    const std::size_t Need =
        (std::size_t(From > To ? From : To) + 1) * NumSDGEdgeKinds + 1;
    if (InOff.size() < Need) {
      InOff.resize(Need);
      OutOff.resize(Need);
    }
    ++InOff[std::size_t(To) * NumSDGEdgeKinds + sdgKindSlot(K)];
    ++OutOff[std::size_t(From) * NumSDGEdgeKinds + sdgKindSlot(K)];
  }

  /// Records statement node \p Node of local instruction \p Instr of
  /// method \p Method, extending the last run when it continues it.
  void addStmtRun(unsigned Node, unsigned Method, unsigned Instr,
                  unsigned Count = 1) {
    if (!StmtRuns.empty()) {
      StmtRun &Last = StmtRuns.back();
      if (Last.Method == Method && Last.FirstNode + Last.Count == Node &&
          Last.FirstInstr + Last.Count == Instr) {
        Last.Count += Count;
        return;
      }
    }
    StmtRuns.push_back({Node, Method, Instr, Count});
  }

  /// Prefix-sums the degrees addEdge() counted and scatters the edge
  /// list once into the kind-partitioned CSR in/out adjacency.
  void buildCSR();

  IdRange rowEdges(const std::vector<unsigned> &Off,
                   const std::vector<unsigned> &Ids, unsigned Node) const {
    const std::size_t Row = std::size_t(Node) * NumSDGEdgeKinds;
    return {Ids.data() + Off[Row], Ids.data() + Off[Row + NumSDGEdgeKinds]};
  }
  IdRange kindEdges(const std::vector<unsigned> &Off,
                    const std::vector<unsigned> &Ids, unsigned Node,
                    SDGEdgeKind K) const {
    const std::size_t Slot =
        std::size_t(Node) * NumSDGEdgeKinds + sdgKindSlot(K);
    return {Ids.data() + Off[Slot], Ids.data() + Off[Slot + 1]};
  }
  IdRange neighborRun(const std::vector<unsigned> &Off,
                      const std::vector<unsigned> &Nbr, unsigned Node,
                      unsigned SlotBegin, unsigned SlotEnd) const {
    const std::size_t Row = std::size_t(Node) * NumSDGEdgeKinds;
    return {Nbr.data() + Off[Row + SlotBegin], Nbr.data() + Off[Row + SlotEnd]};
  }

  template <typename Fn>
  void forEachNeighborRow(const std::vector<unsigned> &Off,
                          const std::vector<unsigned> &Nbr, unsigned Node,
                          const EdgeKindRuns &Runs, Fn F) const {
    // Raw pointers hoisted into locals: F's stores (visited words,
    // worklist pushes) could alias vector-element loads, so indexing
    // through the vectors re-reads their data pointers every
    // iteration and the loop never tightens.
    const unsigned *O = Off.data() + std::size_t(Node) * NumSDGEdgeKinds;
    const unsigned *N = Nbr.data();
    for (unsigned R = 0; R != Runs.NumRuns; ++R) {
      unsigned End = O[Runs.Runs[R].End];
      for (unsigned I = O[Runs.Runs[R].Begin]; I != End; ++I)
        F(N[I]);
    }
  }

  const Program &P;
  std::vector<SDGNode> Nodes;
  std::vector<SDGEdge> Edges;
  /// The statement nodes as runs of consecutive nodes holding
  /// consecutive instructions of one method, in node order, so seal()
  /// indexes them without loading an instruction. A built graph has one
  /// run per clone. Released by seal().
  struct StmtRun {
    unsigned FirstNode, Method, FirstInstr, Count;
  };
  std::vector<StmtRun> StmtRuns;
  unsigned NumStmts = 0;
  unsigned NumHeapParams = 0;
  StageReport Report{"sdg", StageStatus::Complete, "", "", 0, 0};

  //===------------------------------------------------------------------===//
  // Query form (built by seal())
  //===------------------------------------------------------------------===//

  /// Per-(node, kind) offset tables, numNodes * NumSDGEdgeKinds + 1
  /// entries: the in-edges of node n with kind k occupy
  /// [InOff[n*NK+k], InOff[n*NK+k+1]) of InNbr/InEdgeId. Before
  /// seal(), entry n*NK+k holds the degree addEdge() counted.
  std::vector<unsigned> InOff, OutOff;
  /// Neighbor node id per CSR slot (From for in-edges, To for
  /// out-edges) — all the BFS slicers touch.
  std::vector<unsigned> InNbr, OutNbr;
  /// Parallel edge ids, for callers that need Site or kind details.
  std::vector<unsigned> InEdgeId, OutEdgeId;
  /// Statement index by dense instruction rank: instruction I of
  /// method M has rank MethodRank[M->id()] + I->id() (MethodRank holds
  /// numMethods + 1 prefix sums of the methods' instruction counts),
  /// and its clones are StmtClones[StmtCloneOff[rank] ..
  /// StmtCloneOff[rank+1]) in ascending node id.
  std::vector<unsigned> MethodRank;
  std::vector<unsigned> StmtCloneOff;
  std::vector<unsigned> StmtClones;
};

/// SDG construction options.
struct SDGOptions {
  /// Build the context-sensitive representation: heap formal/actual
  /// parameter nodes from mod-ref (paper Section 5.3) instead of
  /// direct interprocedural heap edges (Section 5.2).
  bool ContextSensitive = false;
  /// Optional resource budget. Exhaustion degrades construction
  /// soundly: the node cap merges per-context clones into one clone
  /// per method (with context-merged aliasing, an over-approximation),
  /// and the heap-edge cap / deadline replaces the remaining precise
  /// pairwise heap wiring with coarse per-field hub nodes.
  const AnalysisBudget *Budget = nullptr;
};

/// What every clone of one method contributes to an SDG that depends
/// on the method's body alone: not on points-to, mod-ref, the clone
/// set or the variant. Statements are named by method-local id
/// (Instr::id()); a clone adds its Base. A view into the runs an
/// SDGShapeCache stores, valid until that cache next derives or forgets
/// a shape.
struct MethodShape {
  /// An intraprocedural edge between method-local statement ids.
  struct LocalEdge {
    unsigned From, To;
    SDGEdgeKind K;
    bool operator==(const LocalEdge &) const = default;
  };
  /// One heap access, in block order. Its bucket key is (class, id):
  /// class 0 is an instance field and 1 a static field, both with the
  /// field's id; class 2 is the array-element class with id ~0u.
  struct HeapAccess {
    unsigned Stmt;
    unsigned FieldId;
    uint8_t Class;
    bool Store;
    /// The base pointer; null for a static access.
    const Local *Base;
    bool operator==(const HeapAccess &) const = default;
  };
  /// One call: its statement, whether it defines a result, and its
  /// operands, Args[FirstArg .. FirstArg + NumArgs).
  struct CallSite {
    unsigned Stmt;
    unsigned FirstArg;
    unsigned NumArgs;
    bool HasDest;
    bool operator==(const CallSite &) const = default;
  };
  /// One call operand: the formal it binds and the statement defining
  /// it (~0u when nothing does).
  struct CallArg {
    unsigned FormalIdx;
    unsigned ActualDef;
    bool operator==(const CallArg &) const = default;
  };
  /// The method's intraprocedural edges, in emission order: SSA flow
  /// dependences, then control dependences.
  std::span<const LocalEdge> Intra;
  /// The calls, by ascending statement.
  std::span<const CallSite> Calls;
  std::span<const CallArg> Args;
  /// The Param statement of each formal index (~0u for a gap).
  std::span<const unsigned> Formals;
  /// The value-returning Ret terminators, in block order.
  std::span<const unsigned> Returns;
  std::span<const HeapAccess> Accesses;

  /// Same parts, element by element.
  bool sameAs(const MethodShape &O) const;
};

/// Method shapes kept across SDG builds of one program (DESIGN.md
/// section 13). A shape reads only its method's body, so it stays valid
/// while that body does: the owner forgets every shape when it replaces
/// the program and the shapes of the bodies an edit relowers, and
/// nothing else. Identity is the method id, never an address a later
/// program could reuse. Points-to sets are not cached: they are looked
/// up at every build, since an update may change them.
///
/// Each shape part lives in one pool per part, so the cache is a few
/// large blocks rather than thousands of small ones: the daemon frees
/// a session on another thread than the one that built it, and with
/// one small block per shape part perfbench's edit-slice daemon peaked
/// ~11 MB higher (DESIGN.md section 13). A re-derived shape appends to
/// the pools; a build compacts them once garbage and growth slack pass
/// an eighth of what they hold.
class SDGShapeCache {
public:
  /// Forgets every shape: the program was replaced.
  void clear();
  /// Forgets the shapes of \p Relowered, whose bodies changed.
  void invalidate(const std::vector<Method *> &Relowered);

  /// Shapes derived from a body, and shapes a build took from the
  /// cache instead, over the cache's lifetime (clear() keeps them).
  uint64_t derived() const { return Derived; }
  uint64_t reused() const { return Reused; }

private:
  friend class SDGBuilder;

  /// One shape part's run in its pool.
  struct Run {
    uint32_t Begin = 0, Count = 0;
  };
  struct Entry {
    bool Valid = false;
    Run Intra, Calls, Args, Formals, Returns, Accesses;
  };

  bool has(unsigned MethodId) const {
    return MethodId < Entries.size() && Entries[MethodId].Valid;
  }
  /// The shape of a method has() holds.
  MethodShape view(unsigned MethodId) const;
  /// Derives \p M's shape from its body into the pools (SDGBuilder.cpp).
  void derive(const Method &M);
  /// Rewrites the pools with only the valid runs, when garbage and
  /// slack have grown past an eighth of the live parts.
  void compactIfSparse();

  /// By method id.
  std::vector<Entry> Entries;
  std::vector<MethodShape::LocalEdge> IntraPool;
  std::vector<MethodShape::CallSite> CallPool;
  std::vector<MethodShape::CallArg> ArgPool;
  std::vector<unsigned> FormalPool, ReturnPool;
  std::vector<MethodShape::HeapAccess> AccessPool;
  /// Intraprocedural edges of the valid shapes (the largest part).
  std::size_t LiveIntra = 0;
  uint64_t Derived = 0;
  uint64_t Reused = 0;
};

/// Builds the dependence graph (SDGBuilder.cpp), sealed into the CSR
/// query form.
/// \p ModRef may be null unless \p Options.ContextSensitive is set.
/// \p Shapes, when given, supplies the method shapes derived by earlier
/// builds of the same program and keeps the ones this build derives;
/// without it the build derives every shape it needs. The graph is the
/// same either way.
std::unique_ptr<SDG> buildSDG(const Program &P, const PointsToResult &PTA,
                              const ModRefResult *ModRef,
                              const SDGOptions &Options = {},
                              SDGShapeCache *Shapes = nullptr);

} // namespace tsl

#endif // THINSLICER_SDG_SDG_H
