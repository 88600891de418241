"""Incremental candidate-evaluation caching for the list schedulers.

The SynDEx-style greedy loop (:mod:`repro.core.list_scheduler`) is
O(steps x candidates x processors): at *every* step it re-evaluates
``S(n)(o, p)`` for every candidate operation on every capable
processor, even though committing one operation only moves the
frontiers of the processors and links it actually touched.
:class:`EvaluationCache` makes that observation exploitable: it
memoizes one :class:`~repro.core.list_scheduler.PlacementEvaluation`
per ``(operation, processor)`` pair together with the resource keys
the evaluation read, and invalidates exactly the entries whose read
set intersects a commit's write set.

Resource keys are ``("proc", name)`` for a computation unit's frontier
and ``("link", name)`` for a link's frontier.  No other part of the
state can make an entry stale: once ``op`` is a candidate all its
predecessors are committed, their replica completions are final, and
the arrivals of ``op``'s own inputs are written only when ``op`` itself
is committed (its entries are then retired by :meth:`drop_op`).  An
evaluation of ``(op, p)`` therefore reads ``("proc", p)`` plus the
links whose frontiers its tentative transfers consulted, and a commit
writes the processors of its placements plus the links of its comm
slots (:func:`commit_writes`).  Cached and uncached runs produce
bitwise-identical decision logs and makespans, the property
``tests/test_evalcache.py`` asserts across random problems.  See
``docs/performance.md`` for the full design.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from .schedule import CommSlot, ReplicaPlacement

__all__ = ["ResourceKey", "EvaluationCache", "commit_writes"]

#: ``(tag, key)`` — one mutable frontier of the scheduling state.
ResourceKey = Tuple[str, object]

#: Entry key of the cache: one (operation, processor) pair.
EntryKey = Tuple[str, str]


def commit_writes(
    placements: Iterable[ReplicaPlacement], comms: Iterable[CommSlot]
) -> Set[ResourceKey]:
    """The resource keys one commit moved, read off its output.

    Every ``proc_free`` write comes with a placement and every
    ``link_free`` write with a comm slot.
    """
    written: Set[ResourceKey] = {("proc", r.processor) for r in placements}
    written.update(("link", slot.link) for slot in comms)
    return written


class EvaluationCache:
    """Memoized placement evaluations with dependency-set invalidation.

    ``lookup``/``store`` keep one evaluation per (op, processor) pair
    plus the resource keys it read; ``invalidate`` drops every entry
    whose read set intersects a commit's write set (via a reverse
    index, so the cost is proportional to the entries actually
    invalidated, not to the cache size); ``drop_op`` retires the
    entries of an operation once it is scheduled.

    The counters (:attr:`hits`, :attr:`misses`, :attr:`invalidated`)
    are the scheduler's cache-effectiveness telemetry — surfaced as the
    ``evalcache.*`` obs counters and gated by the benchmark suite.
    """

    __slots__ = ("_entries", "_readers", "_by_op", "hits", "misses",
                 "invalidated")

    def __init__(self) -> None:
        self._entries: Dict[EntryKey, Tuple[object, frozenset]] = {}
        self._readers: Dict[ResourceKey, Set[EntryKey]] = {}
        self._by_op: Dict[str, Set[EntryKey]] = {}
        self.hits = 0
        self.misses = 0
        self.invalidated = 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, op: str, proc: str):
        """The cached evaluation for (op, proc), or None on a miss."""
        entry = self._entries.get((op, proc))
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[0]

    def store(
        self, op: str, proc: str, evaluation, reads: Iterable[ResourceKey]
    ) -> None:
        """Remember ``evaluation`` together with the keys it read."""
        key = (op, proc)
        read_set = frozenset(reads)
        self._entries[key] = (evaluation, read_set)
        for resource in read_set:
            self._readers.setdefault(resource, set()).add(key)
        self._by_op.setdefault(op, set()).add(key)

    def invalidate(self, written: Iterable[ResourceKey]) -> int:
        """Drop entries whose read set intersects ``written``."""
        stale: Set[EntryKey] = set()
        for resource in written:
            readers = self._readers.get(resource)
            if readers:
                stale.update(readers)
        for key in stale:
            self._discard(key)
        self.invalidated += len(stale)
        return len(stale)

    def drop_op(self, op: str) -> None:
        """Retire every entry of ``op`` (it has just been scheduled)."""
        for key in list(self._by_op.get(op, ())):
            self._discard(key)

    def entries_for(self, op: str) -> List[EntryKey]:
        """The live (op, proc) entries of ``op`` (test introspection)."""
        return sorted(self._by_op.get(op, ()))

    def reads_of(self, op: str, proc: str) -> frozenset:
        """The recorded read set of a live entry (test introspection)."""
        return self._entries[(op, proc)][1]

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def _discard(self, key: EntryKey) -> None:
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        for resource in entry[1]:
            readers = self._readers.get(resource)
            if readers is not None:
                readers.discard(key)
                if not readers:
                    del self._readers[resource]
        by_op = self._by_op.get(key[0])
        if by_op is not None:
            by_op.discard(key)
            if not by_op:
                del self._by_op[key[0]]
