//===-- Worklist.h - Deduplicating FIFO worklist ----------------*- C++ -*-==//
//
// Part of ThinSlicer, a reproduction of "Thin Slicing" (PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FIFO and priority worklists over densely numbered ids that never
/// hold the same id twice. The points-to solver and CHA are fixed-point
/// worklist algorithms over dense id spaces.
///
//===----------------------------------------------------------------------===//

#ifndef THINSLICER_SUPPORT_WORKLIST_H
#define THINSLICER_SUPPORT_WORKLIST_H

#include "support/BitSet.h"

#include <cstdint>
#include <deque>
#include <queue>
#include <utility>
#include <vector>

namespace tsl {

/// FIFO queue of unsigned ids; enqueueing an id already in the queue is
/// a no-op. Ids may be re-enqueued after being popped.
class Worklist {
public:
  /// Enqueues \p Id unless it is already pending; returns true if added.
  bool push(unsigned Id) {
    if (!Pending.insert(Id))
      return false;
    Queue.push_back(Id);
    return true;
  }

  unsigned pop() {
    assert(!Queue.empty() && "pop from empty worklist");
    unsigned Id = Queue.front();
    Queue.pop_front();
    Pending.erase(Id);
    return Id;
  }

  bool empty() const { return Queue.empty(); }
  size_t size() const { return Queue.size(); }

private:
  std::deque<unsigned> Queue;
  BitSet Pending;
};

/// Deduplicating min-priority worklist over densely numbered ids.
/// Each id carries a mutable priority (default 0); pop returns the
/// pending id with the smallest priority. Priorities can be updated
/// at any time — including while an id is pending — via lazily
/// invalidated heap entries: an entry whose recorded priority no
/// longer matches the id's current priority is discarded on pop,
/// because setPriority pushed a fresh entry when it changed.
class PriorityWorklist {
public:
  /// Enqueues \p Id at its current priority unless it is already
  /// pending; returns true if added.
  bool push(unsigned Id) {
    if (!Pending.insert(Id))
      return false;
    ++NumPending;
    Heap.push({priority(Id), Id});
    return true;
  }

  /// Pops the pending id with the smallest priority (FIFO on ties by
  /// virtue of heap insertion order being irrelevant to correctness).
  unsigned pop() {
    assert(NumPending && "pop from empty worklist");
    while (true) {
      assert(!Heap.empty() && "pending id lost from heap");
      auto [P, Id] = Heap.top();
      Heap.pop();
      if (!Pending.test(Id))
        continue; // Already popped; duplicate entry.
      if (P != priority(Id))
        continue; // Stale: setPriority reinserted a fresh entry.
      Pending.erase(Id);
      --NumPending;
      return Id;
    }
  }

  /// Sets \p Id's priority for this and future enqueues. When \p Id
  /// is pending, its position is updated immediately.
  void setPriority(unsigned Id, uint64_t P) {
    if (Id >= Prio.size())
      Prio.resize(Id + 1, 0);
    if (Prio[Id] == P)
      return;
    Prio[Id] = P;
    if (Pending.test(Id))
      Heap.push({P, Id});
  }

  uint64_t priority(unsigned Id) const {
    return Id < Prio.size() ? Prio[Id] : 0;
  }

  bool empty() const { return NumPending == 0; }
  size_t size() const { return NumPending; }

private:
  using Entry = std::pair<uint64_t, unsigned>; ///< (priority, id).
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> Heap;
  std::vector<uint64_t> Prio;
  BitSet Pending;
  size_t NumPending = 0;
};

} // namespace tsl

#endif // THINSLICER_SUPPORT_WORKLIST_H
