"""Static routing over the architecture network (paper Section 5.5).

The paper argues for *static* routing: every inter-processor transfer
follows a route fixed at compile time, which is what allows the
computation of a worst-case upper bound per communication (and hence of
the Solution-1 timeouts).  This module computes, for each ordered
processor pair, a deterministic route expressed as the sequence of
links to traverse.

Routes are shortest first by hop count, then by a deterministic
tie-break on link names, so repeated runs produce identical schedules.
A per-dependency variant picks, among the minimum-hop routes, the one
minimizing the dependency's total transfer time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .architecture import Architecture, ArchitectureError, Link
from .constraints import CommunicationTable, DependencyKey

__all__ = ["Route", "RoutingTable", "RoutingError", "HopPlan", "FramePlan"]

#: A unicast transfer's hops: ``(from, to, link, duration)`` each.
HopPlan = Tuple[Tuple[str, str, str, float], ...]

#: A send's frames: ``((bus, served destinations), ...)`` and the
#: destinations left to unicast routes.
FramePlan = Tuple[Tuple[Tuple[str, Tuple[str, ...]], ...], Tuple[str, ...]]


class RoutingError(ArchitectureError):
    """Raised when no route exists between two processors."""


@dataclass(frozen=True)
class Route:
    """A static route: the processors visited and the links hopped.

    ``processors`` has one more element than ``links``; hop ``i`` goes
    from ``processors[i]`` to ``processors[i + 1]`` over ``links[i]``.
    A route between co-located endpoints has a single processor and no
    link (intra-processor "communication" is free and immediate in the
    AAA model, since operations share the processor's RAM).
    """

    processors: Tuple[str, ...]
    links: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.processors) != len(self.links) + 1:
            raise RoutingError(
                f"malformed route: {len(self.processors)} processors for "
                f"{len(self.links)} links"
            )

    @property
    def source(self) -> str:
        return self.processors[0]

    @property
    def destination(self) -> str:
        return self.processors[-1]

    @property
    def hop_count(self) -> int:
        return len(self.links)

    @property
    def is_local(self) -> bool:
        """True for an intra-processor route (no link traversed)."""
        return not self.links

    def hops(self) -> List[Tuple[str, str, str]]:
        """The (from_processor, to_processor, link) triples in order."""
        return [
            (self.processors[i], self.processors[i + 1], self.links[i])
            for i in range(len(self.links))
        ]

    def transfer_time(
        self, dep: DependencyKey, comm_table: CommunicationTable
    ) -> float:
        """Total store-and-forward transfer time of ``dep`` over the route."""
        return sum(comm_table.duration(dep, link) for link in self.links)

    def traverses(self, proc: str) -> bool:
        """True when ``proc`` is an intermediate relay of the route.

        Routes through a crashed processor are dead (Section 5.5: a
        processor failure takes all its communication units with it),
        which is why this predicate matters for fault analysis.
        """
        return proc in self.processors[1:-1]

    def __str__(self) -> str:
        if self.is_local:
            return f"{self.source} (local)"
        parts = [self.processors[0]]
        for (_, to_proc, link) in self.hops():
            parts.append(f"-[{link}]->{to_proc}")
        return "".join(parts)


class RoutingTable:
    """All-pairs static routes for an architecture: the compiled network.

    The table is computed eagerly at construction (every ordered
    processor pair: 380 pairs for 20 processors) and then queried in
    O(1).  Besides the routes it records each processor's bus links
    and the pairs with a single candidate route, for which
    :meth:`route_for_dependency` has nothing to rank.  It also holds
    the problem's static comm plan, filled on first use: the
    per-dependency routes, their hops (:meth:`hop_plan`) and the
    bus-or-unicast frame choices (:meth:`frame_plan`), which the
    planner, the simulator's network and the prover's automaton read.
    """

    def __init__(self, architecture: Architecture) -> None:
        architecture.check()
        self._architecture = architecture
        # processor -> neighbour -> sorted names of the joining links
        self._adjacency = architecture.adjacency()
        self._routes: Dict[Tuple[str, str], Route] = {}
        # Min-hop processor paths per ordered pair, enumerated once at
        # construction; route_for_dependency only re-ranks these small
        # lists instead of re-running a shortest-path search per call.
        self._min_hop_paths: Dict[Tuple[str, str], Tuple[Tuple[str, ...], ...]] = {}
        # The static comm plan, valid for one CommunicationTable at a
        # time (flushed on identity change — problems swap tables only
        # when a new Problem is built, so in practice it sticks): the
        # per-dependency routes, their duration-annotated hops, and the
        # bus-or-unicast frame choices.
        self._plan_table: Optional[CommunicationTable] = None
        self._dep_routes: Dict[Tuple[str, str, DependencyKey], Route] = {}
        self._hop_plans: Dict[Tuple[DependencyKey, str, str], HopPlan] = {}
        self._frame_plans: Dict[
            Tuple[DependencyKey, str, Tuple[str, ...]], FramePlan
        ] = {}
        # Per processor, its bus links in ``links_of`` order.
        self._bus_links: Dict[str, Tuple[Link, ...]] = {}
        # Ordered pairs with exactly one min-hop path and one link per
        # hop: their only candidate is ``route(src, dst)`` whatever the
        # dependency, so route_for_dependency returns it unranked.
        self._single_route: Set[Tuple[str, str]] = set()
        self._compute_all()

    @property
    def architecture(self) -> Architecture:
        return self._architecture

    def _compute_all(self) -> None:
        adjacency = self._adjacency
        names = self._architecture.processor_names
        for proc in names:
            self._routes[(proc, proc)] = Route((proc,), ())
        for src in names:
            reached = _min_hop_paths(adjacency, src)
            for dst in names:
                if dst == src:
                    continue
                paths = reached.get(dst)
                if not paths:
                    raise RoutingError(f"no route from {src!r} to {dst!r}")
                self._min_hop_paths[(src, dst)] = paths
                self._routes[(src, dst)] = self._best_route(src, dst)
                if len(paths) == 1 and all(
                    len(adjacency[proc_a][proc_b]) == 1
                    for proc_a, proc_b in zip(paths[0], paths[0][1:])
                ):
                    self._single_route.add((src, dst))
        for proc in names:
            self._bus_links[proc] = tuple(
                link for link in self._architecture.links_of(proc) if link.is_bus
            )

    def _best_route(self, src: str, dst: str) -> Route:
        """Deterministically pick a minimum-hop route from src to dst.

        Among the minimum-hop processor paths, each hop takes the
        lexicographically smallest link available between the
        consecutive processors; the path whose (processors, links) pair
        is smallest wins.
        """
        adjacency = self._adjacency
        candidates: List[Tuple[Tuple[str, ...], Tuple[str, ...]]] = [
            (path, tuple(adjacency[a][b][0] for a, b in zip(path, path[1:])))
            for path in self._min_hop_paths[(src, dst)]
        ]
        if not candidates:  # pragma: no cover - guarded by caller
            raise RoutingError(f"no route from {src!r} to {dst!r}")
        processors, links = min(candidates)
        return Route(processors, links)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> Route:
        """The static route from ``src`` to ``dst``."""
        try:
            return self._routes[(src, dst)]
        except KeyError:
            raise RoutingError(f"no route from {src!r} to {dst!r}") from None

    def bus_links(self, proc: str) -> Tuple[Link, ...]:
        """The bus links ``proc`` is attached to, in ``links_of`` order.

        Raises :class:`~repro.graphs.architecture.ArchitectureError`
        for an unknown processor, as ``links_of`` does.
        """
        try:
            return self._bus_links[proc]
        except KeyError:
            self._architecture.processor(proc)  # raises for an unknown name
            raise

    def route_for_dependency(
        self, src: str, dst: str, dep: DependencyKey, comm_table: CommunicationTable
    ) -> Route:
        """Minimum-hop route minimizing the transfer time of ``dep``.

        When several minimum-hop routes exist (e.g. parallel links),
        the one with the smallest total transfer time for this
        dependency is chosen, falling back to the deterministic
        tie-break of :meth:`route`.  A pair with a single candidate
        (one min-hop path, one link per hop) gets :meth:`route`
        directly: the minimum over one candidate is that candidate.

        The chosen route depends only on (src, dst, dep) and the
        communication table, all static for a given problem, so the
        answer is memoized; the cache is flushed whenever a different
        table object is passed.
        """
        if src == dst or (src, dst) in self._single_route:
            return self._routes[(src, dst)]
        if comm_table is not self._plan_table:
            self._use_table(comm_table)
        cache_key = (src, dst, dep)
        cached = self._dep_routes.get(cache_key)
        if cached is not None:
            return cached
        adjacency = self._adjacency
        best: Optional[Tuple[float, Tuple[str, ...], Tuple[str, ...]]] = None
        for path in self._min_hop_paths[(src, dst)]:
            links = []
            for proc_a, proc_b in zip(path, path[1:]):
                links.append(
                    min(
                        adjacency[proc_a][proc_b],
                        key=lambda name: (comm_table.duration(dep, name), name),
                    )
                )
            route = Route(path, tuple(links))
            cost = route.transfer_time(dep, comm_table)
            key = (cost, route.processors, route.links)
            if best is None or key < best:
                best = key
        assert best is not None
        route = Route(best[1], best[2])
        self._dep_routes[cache_key] = route
        return route

    def hop_plan(
        self, dep: DependencyKey, sender: str, dest: str, comm_table: CommunicationTable
    ) -> HopPlan:
        """The hops of ``dep``'s route from ``sender`` to ``dest``, each
        with the dependency's duration on its link (memoized, as
        :meth:`route_for_dependency`)."""
        if comm_table is not self._plan_table:
            self._use_table(comm_table)
        key = (dep, sender, dest)
        plan = self._hop_plans.get(key)
        if plan is None:
            route = self.route_for_dependency(sender, dest, dep, comm_table)
            processors = route.processors
            plan = self._hop_plans[key] = tuple(
                zip(
                    processors,
                    processors[1:],
                    route.links,
                    [comm_table.duration(dep, link) for link in route.links],
                )
            )
        return plan

    def frame_plan(
        self,
        dep: DependencyKey,
        sender: str,
        dests: Sequence[str],
        comm_table: CommunicationTable,
    ) -> FramePlan:
        """Partition destinations into bus broadcasts and unicast routes.

        A destination is grouped onto one of the sender's buses only
        when the bus is no slower (for this dependency) than the
        destination's best unicast route — otherwise a dedicated fast
        link would be wasted on it (e.g. an express point-to-point link
        shunting a slow backbone bus).  Ties go to the bus: one
        broadcast frame beats several unicasts.  Returns ``(((bus,
        (dest, ...)), ...), (unicast dest, ...))`` with deterministic
        ordering; the sender and repeated destinations are dropped.
        Memoized per ``(dep, sender, dests)``, as
        :meth:`route_for_dependency`, except for a sender on no bus,
        whose answer is all unicast and needs no memo.
        """
        buses = self.bus_links(sender)
        if not buses:
            return (), tuple(d for d in dict.fromkeys(dests) if d != sender)
        if comm_table is not self._plan_table:
            self._use_table(comm_table)
        key = (dep, sender, tuple(dests))
        plan = self._frame_plans.get(key)
        if plan is not None:
            return plan
        pending = [d for d in dict.fromkeys(key[2]) if d != sender]
        groups = []
        for link in buses:
            if not pending:
                break
            bus_cost = comm_table.duration(dep, link.name)
            served = []
            for dest in pending:
                if dest not in link.endpoints:
                    continue
                best = self.route_for_dependency(
                    sender, dest, dep, comm_table
                ).transfer_time(tuple(dep), comm_table)
                if bus_cost <= best + 1e-12:
                    served.append(dest)
            if served:
                groups.append((link.name, tuple(served)))
                pending = [d for d in pending if d not in served]
        plan = self._frame_plans[key] = (tuple(groups), tuple(pending))
        return plan

    def _use_table(self, comm_table: CommunicationTable) -> None:
        """Flush the comm-plan memos: another table was passed."""
        self._dep_routes.clear()
        self._hop_plans.clear()
        self._frame_plans.clear()
        self._plan_table = comm_table

    def all_routes(self) -> Dict[Tuple[str, str], Route]:
        """A copy of the full (src, dst) -> route mapping."""
        return dict(self._routes)

    def max_hops(self) -> int:
        """The diameter of the network, in hops."""
        return max(route.hop_count for route in self._routes.values())

    def routes_surviving(self, failed: Iterable[str]) -> Dict[Tuple[str, str], Route]:
        """Routes whose endpoints and relays all survive ``failed``."""
        failed_set = set(failed)
        return {
            key: route
            for key, route in self._routes.items()
            if not failed_set.intersection(route.processors)
        }


def _min_hop_paths(
    adjacency: Dict[str, Dict[str, Tuple[str, ...]]], src: str
) -> Dict[str, Tuple[Tuple[str, ...], ...]]:
    """Every minimum-hop processor path out of ``src``, by one BFS.

    Maps each reachable processor to its paths, sorted.  The BFS goes
    layer by layer; a processor first met in a layer extends every path
    of each of its neighbours in the layer before.
    """
    paths: Dict[str, Tuple[Tuple[str, ...], ...]] = {src: ((src,),)}
    layer = [src]
    while layer:
        parents: Dict[str, List[str]] = {}
        for proc in layer:
            for nbr in adjacency[proc]:
                if nbr not in paths:
                    parents.setdefault(nbr, []).append(proc)
        for proc, nearer in parents.items():
            paths[proc] = tuple(
                sorted(path + (proc,) for parent in nearer for path in paths[parent])
            )
        layer = list(parents)
    return paths
