"""Runtime network model: serializing links, broadcast, routed relays.

The static schedulers plan comms on links; at runtime this module
actually carries them, under the failure scenario's rules:

* every link is half-duplex and serializes its frames (the arbiter of
  Section 4.3) — frames are granted in submission order;
* a frame whose sender is dead at grant time is never transmitted; a
  sender crashing *mid-frame* loses the frame (fail-stop processors
  abort everything, Section 3.1);
* a frame on a **bus** is physically seen by every attached processor:
  its destinations receive the data, everyone else can snoop it — this
  is what lets Solution-1 backups watch the main replica's activity;
* multi-hop transfers are store-and-forward: each relay re-emits the
  frame on the next link of the static route, provided the relay is
  alive when the frame reaches it (Section 5.5's Figure 10 behaviour).

Because failure scenarios are known statically (crash dates are input
data, not random variables), aliveness during a transmission can be
decided at grant time, keeping the simulation deterministic.
"""

from __future__ import annotations

import copy
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..graphs.problem import Problem
from ..graphs.routing import HopPlan
from .engine import Simulator
from .faults import FailureScenario
from .trace import FrameRecord, IterationTrace

__all__ = ["NetworkRuntime"]

DependencyKey = Tuple[str, str]

#: Callback fired when a frame's data reaches a destination processor:
#: (dependency, destination, time, payload).
DeliverCallback = Callable[[DependencyKey, str, float, object], None]

#: Callback fired when a frame transmission completes on a link (for
#: bus snooping): (dependency, sender, link, time).
ObserveCallback = Callable[[DependencyKey, str, str, float], None]


class NetworkRuntime:
    """Carries frames over the architecture during one iteration."""

    def __init__(
        self,
        sim: Simulator,
        problem: Problem,
        scenario: FailureScenario,
        trace: IterationTrace,
        on_deliver: DeliverCallback,
        on_observe: ObserveCallback,
    ) -> None:
        self._sim = sim
        self._problem = problem
        self._scenario = scenario
        self._trace = trace
        self._arch = problem.architecture
        self._comm = problem.communication
        self._routing = problem.routing
        self._busy_until: Dict[str, float] = {
            link: 0.0 for link in self._arch.link_names
        }
        self._on_deliver = on_deliver
        self._on_observe = on_observe

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def sibling(
        self,
        trace: IterationTrace,
        on_deliver: DeliverCallback,
        on_observe: ObserveCallback,
    ) -> "NetworkRuntime":
        """A runtime for another iteration on the same simulator and
        links: the frames of both serialize on each link."""
        other = copy.copy(self)
        other._trace, other._on_deliver, other._on_observe = (
            trace, on_deliver, on_observe
        )
        return other

    def dispatch(
        self,
        dep: DependencyKey,
        sender: str,
        dests: Sequence[str],
        takeover: bool = False,
        payload: object = None,
    ) -> None:
        """Send ``dep``'s data from ``sender`` to every destination.

        Grouping mirrors the static planner exactly (the same
        :meth:`~repro.graphs.routing.RoutingTable.frame_plan`), so the
        runtime frame structure matches the plan.  The call is
        non-blocking — transmissions complete on their own through
        scheduled callbacks.
        """
        groups, unicast = self._routing.frame_plan(dep, sender, dests, self._comm)
        for link_name, served in groups:
            self._emit(dep, sender, served, link_name, takeover, payload)
        for dest in unicast:
            self._start_routed(dep, sender, dest, takeover, payload)

    # ------------------------------------------------------------------
    # Frame emission on one link
    # ------------------------------------------------------------------
    def _emit(
        self,
        dep: DependencyKey,
        sender: str,
        dests: Tuple[str, ...],
        link: str,
        takeover: bool,
        payload: object = None,
        route: Optional[Tuple[HopPlan, int]] = None,
    ) -> None:
        """Queue one frame on ``link``; deliver (or lose) it when done.

        ``route`` (hops, next index) continues a multi-hop route after
        delivery.
        """
        duration = self._comm.duration(dep, link)
        start = max(self._sim.now, self._busy_until[link])
        if not self._scenario.alive_at(sender, start):
            # Fail-stop before transmission: the frame never exists and
            # the link is not occupied.
            return
        end = start + duration
        self._busy_until[link] = end
        delivered = self._scenario.alive_through(
            sender, start, end
        ) and self._scenario.link_alive_through(link, start, end)
        self._trace.frames.append(
            FrameRecord(
                dependency=tuple(dep),
                sender=sender,
                destinations=dests,
                link=link,
                start=start,
                end=end,
                delivered=delivered,
                takeover=takeover,
            )
        )
        if delivered:
            self._sim.at(
                end, self._complete,
                (dep, sender, dests, link, takeover, payload, route), end,
            )

    def _complete(self, frame: tuple, end: float) -> None:
        """A frame finished transmission: observe, deliver, relay on."""
        dep, sender, dests, link, takeover, payload, route = frame
        # The executive decides what is observable (bus snooping vs.
        # oracle detection), so every completed frame is reported
        # together with its carrying link.
        self._on_observe(dep, sender, link, end)
        for dest in dests:
            if self._scenario.alive_at(dest, end):
                self._on_deliver(dep, dest, end, payload)
        if route is not None:
            # The relay forwards only if alive when the data reached it
            # (checked by _emit's alive_at on the next hop's sender).
            self._forward(dep, route[0], route[1], takeover, payload)

    def is_bus(self, link: str) -> bool:
        """True when ``link`` is a multi-point link."""
        return self._arch.link(link).is_bus

    # ------------------------------------------------------------------
    # Multi-hop transfers
    # ------------------------------------------------------------------
    def _start_routed(
        self,
        dep: DependencyKey,
        sender: str,
        dest: str,
        takeover: bool,
        payload: object = None,
    ) -> None:
        hops = self._routing.hop_plan(dep, sender, dest, self._comm)
        self._forward(dep, hops, 0, takeover, payload)

    def _forward(
        self,
        dep: DependencyKey,
        hops: HopPlan,
        index: int,
        takeover: bool,
        payload: object = None,
    ) -> None:
        if index >= len(hops):
            return
        hop_from, hop_to, link, _duration = hops[index]
        is_last = index == len(hops) - 1
        self._emit(
            dep,
            hop_from,
            (hop_to,),
            link,
            takeover,
            payload,
            route=None if is_last else (hops, index + 1),
        )
