"""Max-min fair bandwidth allocation (progressive filling).

Every active transfer and background flow is a :class:`FlowSpec`: the set
of directed link resources it crosses plus an optional per-flow rate
ceiling (the TCP loss ceiling, or an application pacing limit).  The
allocator water-fills: all unfrozen flows grow at the same rate; a flow
freezes when a link it crosses saturates or it hits its ceiling.

Each round costs O(resources still in use + flows frozen that round): a
per-resource count of unfrozen users is decremented as flows freeze
(instead of re-summing every resource's user set), and because every
unfrozen flow holds the same water level, the tightest ceiling is the
lowest unfrozen ceiling.  The rounds do the float operations of plain
water-filling in the same order, so rates are bit-identical to it
(``tests/flows_oracle.py`` keeps that reference as a differential
oracle).  Resources are any hashable keys; the network engine passes
dense ``int`` link ids with a list of capacities indexed by id.

Invariants (property-tested):

* no link's capacity is exceeded,
* no flow exceeds its ceiling,
* every flow is bottlenecked — it either sits at its ceiling or crosses a
  saturated link where it gets a maximal share (the max-min condition).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, Hashable, Iterable, List, Mapping, Sequence, Tuple, Union

__all__ = ["FlowSpec", "max_min_allocation"]

ResourceId = Hashable


@dataclass(frozen=True)
class FlowSpec:
    """One flow competing for bandwidth."""

    flow_id: Hashable
    resources: Tuple[ResourceId, ...]
    ceiling_bps: float = inf

    def __post_init__(self) -> None:
        if self.ceiling_bps <= 0:
            raise ValueError(f"flow {self.flow_id!r}: ceiling must be positive")
        if not self.resources and self.ceiling_bps is inf:
            raise ValueError(f"flow {self.flow_id!r}: needs resources or a finite ceiling")


def max_min_allocation(
    flows: Iterable[FlowSpec],
    capacities_bps: Union[Mapping[ResourceId, float], Sequence[float]],
    epsilon: float = 1e-9,
) -> Dict[Hashable, float]:
    """Water-filling max-min fair rates for *flows* over shared resources.

    Parameters
    ----------
    flows:
        The competing flows.  A flow referencing a resource missing from
        *capacities_bps* raises ``KeyError`` (construction bug upstream).
    capacities_bps:
        Capacity of each resource (bits/second): a mapping, or a sequence
        indexed by ``int`` resource ids.
    epsilon:
        Numerical slack when deciding saturation.

    Returns
    -------
    dict
        ``{flow_id: allocated rate}``.
    """
    flow_list = list(flows)
    n = len(flow_list)
    ids = [f.flow_id for f in flow_list]
    if len(set(ids)) != n:
        raise ValueError("duplicate flow ids in allocation request")

    room: Dict[ResourceId, float] = {}
    users: Dict[ResourceId, List[int]] = {}
    #: per flow, the resources whose user count it holds (each once)
    held = [f.resources for f in flow_list]
    for i, f in enumerate(flow_list):
        for r in f.resources:
            on_r = users.get(r)
            if on_r is None:
                cap = capacities_bps[r]
                if cap <= 0:
                    raise ValueError(f"resource {r!r} has non-positive capacity")
                room[r] = float(cap)
                users[r] = [i]
            elif on_r[-1] != i:
                on_r.append(i)
            else:
                # listed twice in this flow: it still counts as one user
                held[i] = tuple(dict.fromkeys(f.resources))
    count = {r: len(on_r) for r, on_r in users.items()}
    active = list(room)  # resources with unfrozen users, first-use order

    ceilings = [f.ceiling_bps for f in flow_list]
    by_ceiling = sorted(range(n), key=ceilings.__getitem__)
    lowest = 0  # position in by_ceiling of the lowest unfrozen ceiling
    alloc = [0.0] * n
    frozen = [False] * n
    newly: List[int] = []
    # Every unfrozen flow sits at the same water level, grown by the same
    # deltas; a flow's rate is the level at which it froze.
    level = 0.0
    left = n

    # Each iteration freezes at least one flow, so it terminates.
    while left:
        while frozen[by_ceiling[lowest]]:
            lowest += 1
        # Largest uniform increment all unfrozen flows can take.
        delta = inf
        for r in active:
            share = room[r] / count[r]
            if share < delta:
                delta = share
        to_ceiling = ceilings[by_ceiling[lowest]] - level
        if to_ceiling < delta:
            delta = to_ceiling
        if delta is inf:
            raise ValueError("unbounded allocation: flow with no resources and no ceiling")
        if delta < 0.0:
            delta = 0.0
        level += delta

        # Freeze flows on saturated resources and ceiling-bound flows.
        for r in active:
            left_r = room[r] - delta * count[r]
            room[r] = left_r
            if left_r <= epsilon:
                for i in users[r]:
                    if not frozen[i]:
                        frozen[i] = True
                        newly.append(i)
        for pos in range(lowest, n):
            i = by_ceiling[pos]
            if frozen[i]:
                continue
            if level < ceilings[i] - epsilon:
                break
            frozen[i] = True
            newly.append(i)
        if not newly:
            # Numerical corner: freeze the flow closest to its limit.
            i = min(
                (i for i in range(n) if not frozen[i]),
                key=lambda i: min(
                    [ceilings[i] - level] + [room[r] for r in flow_list[i].resources]
                ),
            )
            frozen[i] = True
            newly.append(i)

        emptied = False
        for i in newly:
            alloc[i] = level
            for r in held[i]:
                count[r] -= 1
                if not count[r]:
                    emptied = True
        left -= len(newly)
        newly.clear()
        if emptied:
            active = [r for r in active if count[r]]

    return dict(zip(ids, alloc))
