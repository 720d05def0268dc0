"""Acyclic sensor networks: targets on a Hasse diagram and their counting.

A network is a finite poset whose nodes carry sensors; targets sit on
nodes or on cover edges of the Hasse diagram, and the sensor at y reports
how many targets lie at or below y (an edge target is seen once its whole
edge is below the sensor).  Integrating the resulting counting function
against the Euler characteristic recovers the exact number of targets,
and corrupting readings at chi-points cannot change that integral.
"""

from __future__ import annotations

import operator
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .calculus import PosetFunction, integrate, integrate_excursion
from .errors import ImpossibleShape
from .poset import ElementSet, Poset, _order_sums
from .reduction import ReductionReport, chi_minimal_model


@dataclass(frozen=True, order=True)
class TargetPosition:
    """A spot on the Hasse diagram: either a node or a cover edge."""

    kind: str
    node: int = -1
    edge: tuple[int, int] = (-1, -1)

    def __post_init__(self):
        if self.kind not in ("node", "edge"):
            raise ValueError(f"target kind {self.kind!r} is neither 'node' nor 'edge'")
        # TypeError for an id that is not an integer
        object.__setattr__(self, "node", operator.index(self.node))
        edge = tuple(map(operator.index, self.edge))
        if len(edge) != 2:
            raise ValueError(f"target edge {edge} does not name two ids")
        object.__setattr__(self, "edge", edge)

    @classmethod
    def at_node(cls, x: int) -> "TargetPosition":
        return cls(kind="node", node=x)

    @classmethod
    def on_edge(cls, lower: int, upper: int) -> "TargetPosition":
        return cls(kind="edge", edge=(lower, upper))


@dataclass(frozen=True)
class TargetSet:
    """A multiset of target positions (several targets may share a spot)."""

    positions: tuple[TargetPosition, ...]

    @classmethod
    def of(cls, positions: Iterable[TargetPosition]) -> "TargetSet":
        return cls(tuple(sorted(positions)))

    def __len__(self) -> int:
        return len(self.positions)

    def counts(self) -> Counter:
        return Counter(self.positions)


@dataclass(frozen=True)
class NoiseSpec:
    """Replacement sensor readings, keyed by element id."""

    corrupted: Mapping[int, int]
    seed: int | None = None

    @classmethod
    def random(
        cls, ids: Iterable[int], seed: int, low: int = -100, high: int = 100
    ) -> "NoiseSpec":
        rng = random.Random(seed)
        return cls({operator.index(x): rng.randint(low, high) for x in ids}, seed=seed)


class SensorNetwork:
    """A poset, a target multiset on it, and the derived counting function."""

    __slots__ = ("poset", "targets", "counting")

    def __init__(self, poset: Poset, targets: TargetSet):
        self.poset = poset
        self.targets = targets
        self.counting = counting_function(poset, targets)  # validates targets

    @property
    def target_count(self) -> int:
        return len(self.targets)


def counting_function(p: Poset, t: TargetSet) -> PosetFunction:
    """Sensor readings: h(y) counts node targets at a <= y plus edge
    targets (a, b) with b <= y (the whole edge below the sensor).

    The targets are counted onto the node each is first seen from and
    carried up the order in one exact product with the poset's operator.
    The first target in ``t``'s order that names no node or no cover
    raises ``ValueError``.
    """
    if not t.positions:
        return PosetFunction(p, np.zeros(p.n, dtype=np.int64))
    seen_from = []
    for pos in t.positions:
        if pos.kind == "node":
            if not 0 <= pos.node < p.n:
                raise ValueError(f"target node {pos.node} does not exist")
            seen_from.append(pos.node)
        else:
            if not p._is_cover(pos.edge):
                raise ValueError(f"target edge {pos.edge} is not a cover of the poset")
            seen_from.append(pos.edge[1])
    return PosetFunction(p, _order_sums(p._operator(), [1] * len(seen_from), seen_from))


def enumerate_targets(net: SensorNetwork) -> int:
    """The exact number of targets, recovered by integrating the readings."""
    return integrate(net.counting)


def corrupt(net: SensorNetwork, noise: NoiseSpec) -> PosetFunction:
    """The counting function with readings replaced at the corrupted nodes.

    The result may be non-monotone; integrate it with the Moebius route.
    A replacement reading outside int64 raises ``OverflowError`` naming
    its element.
    """
    vals = net.counting.values.copy()
    for x, v in noise.corrupted.items():
        x, v = operator.index(x), operator.index(v)
        if not 0 <= x < net.poset.n:
            raise ValueError(f"corrupted element {x} does not exist")
        if not -(2**63) <= v < 2**63:
            raise OverflowError(f"reading {v} for element {x} lies outside int64")
        vals[x] = v
    return PosetFunction(net.poset, vals)


@dataclass(frozen=True)
class ReducedEnumeration:
    """Result of counting on the reduced support network."""

    count: int
    support: Poset
    support_ids: tuple[int, ...]
    model: ReductionReport = field(repr=False)


def enumerate_reduced(
    net: SensorNetwork,
    tie_break: Sequence[int] | None = None,
    readings: PosetFunction | None = None,
) -> ReducedEnumeration:
    """Count targets on the chi-minimal model, zero-support nodes dropped.

    Restricts the readings to the model, drops elements reading zero,
    and integrates the rest by the excursion route on the induced
    subposet.  Must agree with :func:`enumerate_targets` for honest
    readings; corrupted readings may fail the excursion checks, and
    those errors propagate.
    """
    h = net.counting if readings is None else readings
    if h.parent is not net.poset:
        raise ValueError("readings live on a different poset")
    model = chi_minimal_model(net.poset, tie_break)
    ids = np.array(model.mapping, dtype=np.int64)
    support, mapping = net.poset.induced_subposet(ids[h.values[ids] >= 1])
    restricted = PosetFunction(support, h.values[list(mapping)])
    count = integrate_excursion(restricted)
    return ReducedEnumeration(count, support, mapping, model)


def sensor_placement_plan(
    p: Poset, tie_break: Sequence[int] | None = None
) -> ElementSet:
    """The nodes that must carry trusted sensors: the chi-minimal model's
    element set, every node that is not a chi-point."""
    return p.subset(chi_minimal_model(p, tie_break).mapping)


def random_network(
    layer_sizes: Sequence[int],
    density: float,
    target_count: int,
    seed: int,
) -> SensorNetwork:
    """Generate a seeded layered network with uniformly placed targets.

    Covers run only between adjacent layers and are kept independently
    with probability ``density`` (connectivity is not required), which
    makes acyclicity automatic.  Targets land uniformly on nodes and
    cover edges, with replacement.  The same seed always reproduces the
    same network bit for bit.
    """
    if len(layer_sizes) < 1:
        raise ValueError("at least one layer is required")
    if any(s < 0 for s in layer_sizes):
        raise ValueError("layer sizes must be non-negative")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    if target_count < 0:
        raise ValueError("target count must be non-negative")

    n = sum(layer_sizes)
    if n == 0 and target_count > 0:
        raise ImpossibleShape("cannot place targets on a network with no nodes")

    rng = random.Random(seed)
    layers: list[list[int]] = []
    next_id = 0
    for size in layer_sizes:
        layers.append(list(range(next_id, next_id + size)))
        next_id += size

    covers = []
    for lower_layer, upper_layer in zip(layers, layers[1:]):
        for a in lower_layer:
            for b in upper_layer:
                if rng.random() < density:
                    covers.append((a, b))

    poset = Poset.from_covers(n, covers)
    # spot k is node k for k < n, else the (k - n)-th cover in sorted
    # order, which is the row-major order of argwhere
    edges = np.argwhere(poset._hasse())
    positions = []
    for _ in range(target_count):
        k = rng.randrange(n + len(edges))
        positions.append(
            TargetPosition.at_node(k) if k < n else TargetPosition.on_edge(*edges[k - n])
        )
    return SensorNetwork(poset, TargetSet.of(positions))
