"""Reducible points and poset reduction.

Beat points follow the upward convention used throughout this package:
x is a *down-beat* point when its strict up-set has a unique minimal
element, and an *up-beat* point dually (strict down-set with a unique
maximal element).  The minimal elements of a strict up-set are exactly
the upper covers of x (Stong 1966), so down-beat means exactly one upper
cover and up-beat exactly one lower cover.  Several texts attach the
names the other way around; only internal consistency matters for the
theorems exercised here.

The reducibility ladder is
down-beat  =>  weak down-beat (strict up-set contractible)  =>  chi-point
(strict up-set has Euler characteristic 1).  Removing beat points until
none remain yields the core, which is unique up to isomorphism; the
strip starts from a copy of the poset's cover matrix and keeps it
current, since removing x keeps every other cover and can only add pairs
of a lower and an upper cover of x; it ends holding the survivors'
covers and hands them to the core.  A strict up- or down-set is convex,
so its covers are the poset's restricted to it, and its contractibility
test starts from that slice.
Removing chi-points until none remain yields the chi-minimal model, and
that is simply P minus its chi-points, whatever the order.  With R(x)
the Moebius row sum of x (one zeta solve; the strict up-set of x has
chi 1 - R(x)), the chi-points are the elements with R(x) = 0.  Deleting
an element z turns R(x) into R(x) - mu(x, z) R(z), and R(z) = 0 at a
chi-point, so no other element gains or loses chi-point status (Rota
1964).  A caller-chosen total order only orders the reported removal
sequence.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .poset import Poset, _freeze, _mobius_solve

DOWN_BEAT = "down_beat"
UP_BEAT = "up_beat"
CHI_POINT = "chi_point"


@dataclass(frozen=True)
class PointClass:
    """Per-element reducibility verdicts for one poset."""

    parent: Poset
    down_beat: frozenset[int]
    up_beat: frozenset[int]
    weak_down_beat: frozenset[int]
    weak_up_beat: frozenset[int]
    chi_point: frozenset[int]

    def beat_points(self) -> frozenset[int]:
        return self.down_beat | self.up_beat


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of one reduction run.

    ``removal_sequence`` lists (parent id, reason) in removal order;
    ``result`` is the reduced poset and ``mapping[i]`` is the parent id
    of its element i.  Replaying the sequence from the parent reproduces
    ``result`` exactly.
    """

    parent: Poset
    removal_sequence: tuple[tuple[int, str], ...]
    result: Poset
    mapping: tuple[int, ...]

    def removed_ids(self) -> tuple[int, ...]:
        return tuple(x for x, _ in self.removal_sequence)


def _priority(n: int, tie_break: Sequence[int] | None) -> np.ndarray:
    """Turn a total order on ids into a rank array (lower rank goes first)."""
    if tie_break is None:
        return np.arange(n)
    order = [operator.index(x) for x in tie_break]
    if sorted(order) != list(range(n)):
        raise ValueError("tie_break must be a permutation of all element ids")
    return np.argsort(order)  # the inverse permutation


def _strip_beat_points(
    cov: np.ndarray, leq: np.ndarray, rank: np.ndarray
) -> tuple[list[int], list[tuple[int, str]]]:
    """Remove beat points of ``leq`` one at a time until none remain.

    ``cov`` is a writable copy of the cover matrix of ``leq``, which the
    strip updates in place.  The beat point of least rank goes first,
    recorded as down-beat in preference to up-beat.  Returns the
    surviving indices and the (index, reason) removal sequence.  Removing
    x adds as covers exactly the pairs (w, c) of a lower and an upper
    cover of x with no survivor strictly between them (a float32 count,
    exact below 2**24).
    """
    lt = (leq & ~np.eye(leq.shape[0], dtype=bool)).astype(np.float32)
    uppers, lowers = cov.sum(axis=1), cov.sum(axis=0)
    alive = np.ones(leq.shape[0], dtype=bool)
    removal: list[tuple[int, str]] = []
    while True:
        beat = np.flatnonzero(alive & ((uppers == 1) | (lowers == 1)))
        if beat.size == 0:
            return np.flatnonzero(alive).tolist(), removal
        x = beat[np.argmin(rank[beat])]
        removal.append((int(x), DOWN_BEAT if uppers[x] == 1 else UP_BEAT))
        w, c = np.flatnonzero(cov[:, x]), np.flatnonzero(cov[x])
        cov[x] = cov[:, x] = lt[:, x] = alive[x] = False  # x lies between nothing
        new = lt[w] @ lt[:, c] == 0
        cov[np.ix_(w, c)] = new
        uppers[w] += new.sum(axis=1) - 1
        lowers[c] += new.sum(axis=0) - 1


def _contractible(cov: np.ndarray, leq: np.ndarray) -> bool:
    """True iff the strip leaves one point of the order ``leq``, from a
    writable copy ``cov`` of its covers; the empty order is not one."""
    members, _ = _strip_beat_points(cov, leq, np.arange(leq.shape[0]))
    return len(members) == 1


def classify_points(p: Poset) -> PointClass:
    """Flag every element as (weak) beat point and/or chi-point.

    Beat flags are cover degrees, and the chi-points are the elements
    whose Moebius row sum R is 0, since chi of the strict up-set is
    1 - R.  The weak flags follow the reducibility ladder: the strict
    up-set of a down-beat point has a least element, so it is
    contractible, and a contractible set has chi 1.  So the weak
    down-beat points are the down-beat points plus the other chi-points
    whose strict up-set passes the contractibility test, and weak up-beat
    is the dual, with the Moebius column sums (one more solve) in place
    of R.  The test runs on the strict up-set or down-set as it stands,
    its covers sliced from the poset's, since contractibility does not
    depend on the direction of the order.
    """
    cov = p._hasse()
    down, up = cov.sum(axis=1) == 1, cov.sum(axis=0) == 1
    is_chi_point = p._row_sums() == 0
    ones = np.ones((1, p.n), dtype=object)
    is_dual_chi_point = _mobius_solve(p.leq, ones, p._level_sets())[0] == 0
    lt = p.leq & ~np.eye(p.n, dtype=bool)

    def weak(beat, chi_point, side) -> frozenset[int]:
        # row x of ``side`` masks the strict up-set (or down-set) of x
        tested = np.flatnonzero(chi_point & ~beat).tolist()
        cuts = (np.ix_(side[x], side[x]) for x in tested)
        passed = [x for x, m in zip(tested, cuts) if _contractible(cov[m], p.leq[m])]
        return frozenset(np.flatnonzero(beat).tolist() + passed)

    return PointClass(
        parent=p,
        down_beat=frozenset(np.flatnonzero(down).tolist()),
        up_beat=frozenset(np.flatnonzero(up).tolist()),
        weak_down_beat=weak(down, is_chi_point, lt),
        weak_up_beat=weak(up, is_dual_chi_point, lt.T),
        chi_point=frozenset(np.flatnonzero(is_chi_point).tolist()),
    )


def core(p: Poset, tie_break: Sequence[int] | None = None) -> ReductionReport:
    """Remove beat points one at a time until none remain.

    At every step the surviving beat point least in the tie-break order
    is removed (down-beat recorded in preference to up-beat when an
    element is both).  By Stong's classification the result is unique up
    to isomorphism whatever the order.
    """
    rank = _priority(p.n, tie_break)
    cov = p._hasse().copy()
    members, removal = _strip_beat_points(cov, p.leq, rank)
    result, mapping = p.induced_subposet(members)
    result._cov = _freeze(cov[np.ix_(members, members)])
    return ReductionReport(p, tuple(removal), result, mapping)


def is_contractible(p: Poset) -> bool:
    """True iff the core is a single point; the empty poset is not."""
    return _contractible(p._hasse().copy(), p.leq)


def chi_minimal_model(
    p: Poset, tie_break: Sequence[int] | None = None
) -> ReductionReport:
    """Remove every chi-point: the elements whose Moebius row sum is 0.

    Removing a chi-point leaves the chi-point status of every other
    element unchanged, so removing chi-points one at a time until none
    remain deletes exactly the chi-points of p, in any order.  The model
    is therefore the same for every tie-break; the order only sorts the
    reported removal sequence (ascending ids by default).
    """
    rank = _priority(p.n, tie_break)
    is_chi_point = p._row_sums() == 0
    chi_points = np.flatnonzero(is_chi_point)
    removal = tuple(
        (int(x), CHI_POINT) for x in chi_points[np.argsort(rank[chi_points])]
    )
    result, mapping = p.induced_subposet(np.flatnonzero(~is_chi_point).tolist())
    return ReductionReport(p, removal, result, mapping)
