"""Small fixture posets and networks shared across the test suite."""

from eulerscan import Poset, SensorNetwork, TargetPosition, TargetSet

# An 11-node, three-layer acyclic network whose counting function is the
# worked end-to-end fixture: integral 6, excursion characteristics
# (0, 2, 3, 1), chi-points exactly {b2, b3}.
TRELLIS_LABELS = ["t1", "t2", "t3", "m1", "m2", "m3", "m4", "b1", "b2", "b3", "b4"]
T1, T2, T3, M1, M2, M3, M4, B1, B2, B3, B4 = range(11)
TRELLIS_COVERS = [
    (M1, T1), (M2, T1),
    (M1, T2), (M2, T2), (M3, T2), (M4, T2),
    (M3, T3), (M4, T3),
    (B1, M1), (B2, M1),
    (B1, M2), (B3, M2),
    (B2, M3), (B4, M3),
    (B3, M4), (B4, M4),
]
TRELLIS_H = [3, 4, 3, 1, 1, 0, 2, 0, 0, 1, 0]

TRELLIS_TARGETS = [
    TargetPosition.on_edge(M1, T1),
    TargetPosition.on_edge(M2, T2),
    TargetPosition.on_edge(M4, T3),
    TargetPosition.on_edge(B1, M1),
    TargetPosition.on_edge(B4, M4),
    TargetPosition.at_node(B3),
]

# A different placement with the same counting function (the m2->t2 target
# slides over to m3->t2; both edges are seen only from t2).
TRELLIS_TARGETS_ALT = [
    TargetPosition.on_edge(M1, T1),
    TargetPosition.on_edge(M3, T2),
    TargetPosition.on_edge(M4, T3),
    TargetPosition.on_edge(B1, M1),
    TargetPosition.on_edge(B4, M4),
    TargetPosition.at_node(B3),
]


def trellis() -> Poset:
    return Poset.from_covers(11, TRELLIS_COVERS, TRELLIS_LABELS)


def trellis_network() -> SensorNetwork:
    return SensorNetwork(trellis(), TargetSet.of(TRELLIS_TARGETS))


# Two incomparable tops over two incomparable bottoms (a circle, chi 0)
# plus an isolated point: chi 1, yet nowhere contractible.
CIRCLE_PLUS_POINT_COVERS = [(2, 0), (3, 0), (2, 1), (3, 1)]


def circle_plus_point() -> Poset:
    return Poset.from_covers(5, CIRCLE_PLUS_POINT_COVERS, ["a", "b", "c", "d", "e"])


def coned_circle_plus_point() -> Poset:
    """circle_plus_point with a new global minimum x (element 5).

    x is a chi-point (the part above it has chi 1) but not a weak
    down-beat point (that part is not contractible).
    """
    covers = CIRCLE_PLUS_POINT_COVERS + [(5, 2), (5, 3), (5, 4)]
    return Poset.from_covers(6, covers, ["a", "b", "c", "d", "e", "x"])


def chain(k: int) -> Poset:
    return Poset.from_covers(k, [(i, i + 1) for i in range(k - 1)])


def antichain(k: int) -> Poset:
    return Poset.from_covers(k, [])


def ordinal_sum_of_antichains(layers: int, width: int) -> Poset:
    """``layers`` antichains of ``width``, every element of each below
    every element of the next; element x lies in layer x // width.  An
    element of layer j has E = R = (-(width - 1))**(layers - 1 - j)."""
    return Poset.from_covers(
        layers * width,
        [
            (k * width + i, (k + 1) * width + j)
            for k in range(layers - 1)
            for i in range(width)
            for j in range(width)
        ],
    )


def diamond() -> Poset:
    """Bottom 0, incomparable middles 1 and 2, top 3."""
    return Poset.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def vee() -> Poset:
    """Minimum 0 under the incomparable tops 1 and 2."""
    return Poset.from_covers(3, [(0, 1), (0, 2)])


def four_cycle() -> Poset:
    """Bottoms 0, 1 under tops 2, 3 with all four covers: chi 0, no
    reducible points of any kind."""
    return Poset.from_covers(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
