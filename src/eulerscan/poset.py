"""Finite posets stored as dense order matrices.

Elements are always the integers ``0..n-1``, optionally carrying labels.
A poset is built from Hasse-diagram cover pairs; the full order is the
reflexive-transitive closure of the covers and lives in a read-only
``n x n`` boolean matrix ``leq``, with ``leq[x, y]`` meaning ``x <= y``.
One Kahn pass over the given pairs finds a cycle or sorts the elements
into antichain levels, and one walk down those levels builds the order
and tells the kept covers from pairs implied by a longer path.

Two independent Euler-characteristic routes are provided, each one pass
over a start vector: a solve against the zeta matrix (``_mobius_solve``
gives ``v @ mu`` for any rows v; chi is the sum of the Moebius row sums),
and an alternating count of strict chains, optionally weighted by their
bottoms (``_chi_by_chains``).  They must agree on every poset, and the
test suite leans on that redundancy.  Each poset keeps three derived
facts in frozen cache slots, each filled once when first needed: its
boolean cover matrix (kept by :meth:`Poset.from_covers` and the core,
derived from the order only for subposets and opposites whose maker
does not hold it), which every reader of the covers and every cover
degree comes from; its antichain levels (which every solve on the poset
reads, reversed for the opposite order); and its Moebius row sums R.
Every reader of R (chi, integrals, chi-points, point classes,
chi-distinguished maps) shares that vector.  Only :meth:`Poset.mobius`
builds the full table.

All counting arithmetic is exact.  A solve runs one antichain level at
a time in float64 BLAS, and its answer is kept only when one exact check
of the result certifies it: |v| < 2**53, sum(|c|) < 2**53 along each row
of the answer c, and ``c + c @ lt == v`` in float64, which under those
bounds is the integer identity ``c @ zeta == v``.  Otherwise the same
recursion runs on Python ints, the only path for answers past 2**53.
The solves and the zeta and Moebius matrices hand out Python-int object
arrays at every size.  A 0/1 matrix times an integer vector (a chain
count step, a transport) runs in float64 BLAS when the vector's absolute
values sum below 2**53, tested on the exact values before any float
conversion: then every entry and partial sum of the product is the sum
of some of the vector's entries, an integer float64 holds exactly.
Otherwise it runs on Python ints.  Transports make one such exact
``_zero_one_product``; the chain count keeps its vector in float64 while
the bound holds and turns it into Python ints the first time it fails.
The counting products of the order walk and the cover matrix run in
float32, where every entry is a count below 2**24.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CycleDetected, SizeLimitExceeded

def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _bool_square(a: np.ndarray) -> np.ndarray:
    """The boolean product ``a @ a``, taken in float32 and tested ``> 0``.

    NumPy multiplies boolean matrices without BLAS.  In float32 each
    entry counts at most n middle elements, exact while n < 2**24.
    """
    f = a.astype(np.float32)
    return (f @ f) > 0


_FLOAT_EXACT = 2**53  # float64 holds every integer of smaller magnitude
_CHECK_COLUMNS = 64  # columns per product of the residual check


def _check_cover(a: int, b: int, n: int) -> tuple[int, int]:
    """One given pair of ids, or the error that names it."""
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"cover ({a}, {b}) references ids outside 0..{n - 1}")
    if a == b:
        raise CycleDetected(f"self-loop at element {a}")
    return a, b


def _cover_ends(pairs: list, n: int) -> np.ndarray:
    """The given pairs as a checked k x 2 int64 array.

    When every pair holds two plain integers (or bools), the ids become
    one array in one conversion and are checked in one vector pass, the
    first bad pair in input order raising.  Anything else goes pair by
    pair through ``operator.index``, in order.
    """
    ends = None
    try:
        if set(map(len, pairs)) == {2}:
            flat = np.array([x for pair in pairs for x in pair])
            if flat.ndim == 1 and flat.dtype.kind in "biu":
                ends = flat.reshape(-1, 2)
    except (TypeError, ValueError):  # a pair with no length, or nested ids
        pass
    if ends is None:
        checked = [_check_cover(operator.index(a), operator.index(b), n) for a, b in pairs]
        return np.array(checked, dtype=np.int64).reshape(-1, 2)
    bad = ((ends < 0) | (ends >= n)).any(axis=1) | (ends[:, 0] == ends[:, 1])
    if bad.any():
        a, b = map(int, ends[bad.argmax()])
        _check_cover(a, b, n)
    return ends.astype(np.int64, copy=False)


def _levels(rel: np.ndarray, relation: str = "order") -> tuple[np.ndarray, ...]:
    """The elements of the acyclic relation ``rel`` in antichain levels,
    by a Kahn pass: each level holds the unplaced elements with no
    unplaced element related below them, so level k holds the elements
    whose longest path from below has k steps.  A pass that runs out of
    such elements has met a directed cycle and raises
    :class:`CycleDetected`."""
    pending = rel.sum(axis=0)  # unplaced lower elements of each y
    levels, left = [], rel.shape[0]
    while left:
        level = np.flatnonzero(pending == 0)
        if not level.size:
            raise CycleDetected(f"{relation} relation contains a directed cycle")
        levels.append(_freeze(level))
        left -= level.size
        pending[level] = -1
        pending -= rel[level].sum(axis=0)
    return tuple(levels)


def _close(adj: np.ndarray, levels) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """The order generated by the arcs ``adj`` of an acyclic digraph, and
    the arcs implied by a longer path, sorted, in one walk down its
    ``levels``.

    The row of x in the order is x's own bit or the rows of its arc
    heads, all in higher levels.  Each level is one float32 product: entry
    (x, z) of ``up`` counts the heads of x at or below z, so it is
    positive exactly when x < z, and above 1 on an arc (x, c) exactly
    when another head of x lies below c.  Counts stay below n, exact
    while n < 2**24.
    """
    reach = np.eye(adj.shape[0], dtype=np.float32)
    implied = []
    for level in reversed(levels):
        arcs = adj[level]
        heads = np.flatnonzero(np.logical_or.reduce(arcs, axis=0))
        if heads.size:
            up = arcs[:, heads].astype(np.float32) @ reach[heads]
            reach[level] = up > 0
            reach[level, level] = 1
            rows, cols = np.nonzero(arcs & (up > 1))
            implied += zip(level[rows].tolist(), cols.tolist())
    return reach > 0, sorted(implied)


def _mobius_solve(leq: np.ndarray, v: np.ndarray, levels) -> np.ndarray:
    """``v @ mu`` for each row of ``v``, with mu the Moebius matrix of
    ``leq``, as Python ints.

    Solves ``c @ zeta = v``: c[:, y] = v[:, y] - sum(c[:, z] for z < y),
    one antichain level of ``levels`` at a time, where every element
    strictly below a level lies in an earlier one (``_levels`` of the
    strict order, or those of the opposite order reversed).  On the
    identity this is the recursion mu(x, y) = -sum(mu(x, z) for x <= z <
    y) that defines the table.  The levels are solved in float64 BLAS and
    the answer kept only when certified exact (``_solve_in_float``); else
    the same recursion runs again on Python ints.
    """
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    c = _solve_in_float(lt, levels, v)
    return c if c is not None else _solve_exact(lt, levels, v)


def _solve_in_float(lt, levels, v) -> np.ndarray | None:
    """The level solve in float64, or None when its result is not
    certified exact.

    The certificate checks the result, not the arithmetic that found
    it: |v| < 2**53, sum(|c|) < 2**53 along every row of c, and
    ``c + c @ lt == v`` in float64.  Under the bound each entry of
    ``c @ lt``, and each partial sum formed on the way in any order, is
    the sum of some entries of one row of c, an integer below 2**53,
    so the float equality is the exact one, ``c @ zeta == v``; zeta is
    unitriangular, so c is ``v @ mu``.
    """
    v = np.asarray(v)
    # bounded from both sides, since np.abs of int64's minimum is negative;
    # this also keeps Python ints past float64's range out of astype
    if not ((v > -_FLOAT_EXACT) & (v < _FLOAT_EXACT)).all():
        return None
    c = v.astype(np.float64)
    for level in levels:
        c[:, level] -= c @ lt[:, level].astype(np.float64)
    # a few columns at a time, to keep the temporaries small
    total = np.zeros(c.shape[0])
    for j in range(0, c.shape[1], _CHECK_COLUMNS):
        cols = slice(j, j + _CHECK_COLUMNS)
        block = c[:, cols]
        total += np.abs(block).sum(axis=1)
        if not np.array_equal(block + c @ lt[:, cols].astype(np.float64), v[:, cols]):
            return None
    if not (total < _FLOAT_EXACT).all():  # also false on inf and nan
        return None
    exact = c.astype(np.int64)
    del c  # one float copy fewer alive beside the object array
    return exact.astype(object)


def _solve_exact(lt, levels, v) -> np.ndarray:
    """The column recursion of ``_mobius_solve`` on Python ints."""
    c = np.array(v, dtype=object)
    for level in levels:
        for y in level:
            below = lt[:, y]
            if below.any():
                c[:, y] -= c[:, below].sum(axis=1)
    return c


def _zero_one_product(a: np.ndarray, x) -> list[int]:
    """``a @ x`` for a 0/1 matrix ``a`` and a vector ``x`` of Python ints,
    exact, as a list of Python ints.

    Runs in float64 BLAS when sum(|x|) < 2**53: every entry of the
    product, and every partial sum formed on the way in any order, is
    the sum of a subset of x's entries, an integer float64 holds
    exactly.  The bound is tested on the Python ints, before any float
    conversion.  Otherwise runs on Python ints.
    """
    if sum(map(abs, x)) < _FLOAT_EXACT:
        y = a.astype(np.float64) @ np.array(x, dtype=np.float64)
        return y.astype(np.int64).tolist()
    return _int_product(a, x)


def _int_product(a: np.ndarray, x) -> list[int]:
    """``a @ x`` on Python ints, exact at any size."""
    return (a.astype(object) @ np.array(x, dtype=object)).tolist()


def _chi_by_chains(leq: np.ndarray, weights) -> int:
    """The sum over strict chains x0 < ... < xk of (-1)**k * weights[x0].
    With unit weights it is the Euler characteristic (P. Hall's theorem),
    with no Moebius function involved.

    Entry y of the vector ``r`` sums the weights of the chains of the
    current length whose top is y; ``r @ lt``, with column y of the
    strict order ``lt`` marking the elements strictly below y, extends
    each by a step up.  While sum(|r|) < 2**53, ``r`` stays a float64
    array and each step is one BLAS product: every entry of the step,
    and every partial sum formed on the way, is the sum of a subset of
    r's entries, an integer float64 holds exactly, and so is the level
    sum.  The first time the bound fails, ``r`` (still exact, each entry
    below 2**53) turns into Python ints, and the steps go on there.  A
    strict chain has at most n elements, so a vector still non-zero
    after n steps proves a cycle in a trusted ``leq`` and raises
    :class:`CycleDetected`.
    """
    n = leq.shape[0]
    r = [operator.index(w) for w in weights]
    chi, sign, steps = 0, 1, n + 1
    # tested on the Python ints, so a weight past float64's range cannot raise
    if sum(map(abs, r)) < _FLOAT_EXACT:
        lt = leq.astype(np.float64)
        np.fill_diagonal(lt, 0)
        r = np.array(r, dtype=np.float64)
        while steps:
            # exact below 2**53, and at least 2**53 whenever the true sum is
            size = np.abs(r).sum()
            if not size:
                return chi
            if size >= _FLOAT_EXACT:
                break
            chi += sign * int(r.sum())
            sign = -sign
            r = r @ lt
            steps -= 1
        r = r.astype(np.int64).tolist()
    below = (leq & ~np.eye(n, dtype=bool)).T
    for _ in range(steps):
        if not any(r):
            return chi
        chi += sign * sum(r)
        sign = -sign
        r = _int_product(below, r)
    raise CycleDetected("order relation contains a directed cycle")


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """Transitive reduction: ``cov[x, y]`` iff x < y with nothing strictly
    in between.  Row x holds the upper covers of x, column x its lower
    covers; this is the one place covers are derived from an order."""
    lt = leq & ~np.eye(leq.shape[0], dtype=bool)
    return lt & ~_bool_square(lt)


@dataclass(frozen=True)
class ElementSet:
    """A subset of one poset's elements, tied to that poset by identity."""

    parent: "Poset"
    members: frozenset[int]

    def __post_init__(self):
        # TypeError for a member that is not an integer
        members = frozenset(map(operator.index, self.members))
        bad = [x for x in members if not 0 <= x < self.parent.n]
        if bad:
            raise ValueError(f"element ids out of range: {sorted(bad)}")
        object.__setattr__(self, "members", members)

    def __contains__(self, x: int) -> bool:
        return x in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def mask(self) -> np.ndarray:
        m = np.zeros(self.parent.n, dtype=bool)
        m[list(self.members)] = True
        return m

    def union(self, other: "ElementSet") -> "ElementSet":
        self._check_same(other)
        return ElementSet(self.parent, self.members | other.members)

    def intersection(self, other: "ElementSet") -> "ElementSet":
        self._check_same(other)
        return ElementSet(self.parent, self.members & other.members)

    def _check_same(self, other: "ElementSet"):
        if other.parent is not self.parent:
            raise ValueError("element sets belong to different posets")

    def labels(self) -> tuple[str, ...]:
        return tuple(self.parent.label(x) for x in self)


@dataclass(frozen=True, eq=False)
class MobiusTable:
    """The integer Moebius matrix of one poset (inverse of its zeta matrix).
    Compared and hashed by identity, as :class:`Poset` is."""

    parent: "Poset"
    mu: np.ndarray

    def __getitem__(self, pair: tuple[int, int]) -> int:
        x, y = pair
        return int(self.mu[self.parent._element(x), self.parent._element(y)])

    def chi(self) -> int:
        """Euler characteristic: the sum of every Moebius entry."""
        return int(self.mu.sum())

    def chi_above(self) -> np.ndarray:
        """chi of the strict up-set of each element, as an int array.

        For any x, chi({y : y > x}) = 1 - sum(mu[x, :]): adjoin a top
        element t; the recursion forces mu(x, t) = -sum(mu[x, :]), and that
        entry is the reduced Euler characteristic of the open interval
        (x, t), which is exactly the strict up-set.  Cross-checked against
        the direct subposet route in the test suite.
        """
        return 1 - self.mu.sum(axis=1)

    def chi_below(self) -> np.ndarray:
        """chi of the strict down-set of each element (dual of chi_above)."""
        return 1 - self.mu.sum(axis=0)


class Poset:
    """A finite partial order on the elements ``0..n-1``.

    Instances are immutable after construction and safe to share between
    any number of concurrent readers.  Three facts derived from the order
    are cached, each filled idempotently on first use (racing readers
    store equal frozen values): the boolean cover matrix, the antichain
    levels and the Moebius row sums.  Use :meth:`from_covers` to build
    one; the plain constructor trusts its arguments, turns the given
    cover pairs into the matrix, and with ``covers=None`` leaves the
    matrix to be derived from ``leq`` when first read.
    """

    __slots__ = ("n", "labels", "leq", "dropped_covers", "_cov", "_lv", "_r")

    def __init__(
        self,
        n: int,
        covers: frozenset[tuple[int, int]] | None,
        leq: np.ndarray,
        labels: tuple[str, ...] | None = None,
        dropped_covers: tuple[tuple[int, int], ...] = (),
    ):
        self.n = n
        self._cov: np.ndarray | None = None
        if covers is not None:
            ends = np.array(list(covers), dtype=np.int64).reshape(-1, 2)
            cov = np.zeros((n, n), dtype=bool)
            cov[ends[:, 0], ends[:, 1]] = True
            self._cov = _freeze(cov)
        self.leq = _freeze(leq)
        self.labels = labels
        self.dropped_covers = dropped_covers
        self._lv: tuple[np.ndarray, ...] | None = None
        self._r: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_covers(
        cls,
        n: int,
        covers: Iterable[tuple[int, int]],
        labels: Sequence[str] | None = None,
    ) -> "Poset":
        """Build a poset from Hasse-diagram pairs ``(lower, upper)``.

        Duplicate pairs are ignored.  Pairs already implied by a longer
        path are dropped and reported on ``dropped_covers`` rather than
        rejected; a directed cycle raises :class:`CycleDetected`.  One
        Kahn pass over the pairs finds the cycle or the antichain levels,
        and one walk down the levels (``_close``) yields the order and
        the implied pairs.
        """
        ends = _cover_ends(list(covers), n)
        adj = np.zeros((n, n), dtype=bool)
        adj[ends[:, 0], ends[:, 1]] = True
        levels = _levels(adj, "cover")
        leq, dropped = _close(adj, levels)

        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise ValueError("labels must have one entry per element")
        # the covers are the pairs no longer path implies, and the longest
        # paths are chains of covers, so the levels are those of the order
        if dropped:
            adj[tuple(zip(*dropped))] = False
        p = cls(n, None, leq, labels, tuple(dropped))
        p._cov = _freeze(adj)
        p._lv = levels
        return p

    @property
    def covers(self) -> frozenset[tuple[int, int]]:
        """The Hasse-diagram pairs ``(lower, upper)``: a frozenset view
        built from the cover matrix on each read."""
        rows, cols = np.nonzero(self._hasse())
        return frozenset(zip(rows.tolist(), cols.tolist()))

    def _hasse(self) -> np.ndarray:
        """The read-only cover matrix: ``cov[x, y]`` iff y covers x, so
        row x holds the upper covers of x and column x its lower covers.
        Derived from the order on first use (``_cover_matrix``, called
        nowhere else) unless its maker held it: given at construction,
        kept by ``from_covers``, or handed over by ``core``."""
        if self._cov is None:
            self._cov = _freeze(_cover_matrix(self.leq))
        return self._cov

    def _is_cover(self, pair) -> bool:
        """True iff ``pair`` is (lower, upper) of a cover; a pair naming
        an id outside 0..n-1 is none, rather than wrapping."""
        return (
            len(pair) == 2
            and all(0 <= x < self.n for x in pair)
            and bool(self._hasse()[pair[0], pair[1]])
        )

    def _level_sets(self) -> tuple[np.ndarray, ...]:
        """The elements in antichain levels, level k holding those whose
        longest chain below has k steps (see ``_levels``): found on first
        use and then shared read-only by every solve on this poset."""
        if self._lv is None:
            self._lv = _levels(self.leq & ~np.eye(self.n, dtype=bool))
        return self._lv

    # ------------------------------------------------------------------
    # element bookkeeping
    # ------------------------------------------------------------------

    def label(self, x: int) -> str:
        x = self._element(x)
        return self.labels[x] if self.labels is not None else str(x)

    def subset(self, members: Iterable[int]) -> ElementSet:
        return ElementSet(self, frozenset(operator.index(x) for x in members))

    def all_elements(self) -> ElementSet:
        return ElementSet(self, frozenset(range(self.n)))

    def _element(self, x: int) -> int:
        """One element id, as a checked Python int."""
        x = operator.index(x)
        if not 0 <= x < self.n:
            raise ValueError(f"element id {x} out of range")
        return x

    def _member_list(self, s: "ElementSet | Iterable[int]") -> list[int]:
        """The distinct ids of s, checked and ascending."""
        if isinstance(s, ElementSet):
            if s.parent is not self:
                raise ValueError("element set belongs to a different poset")
            return sorted(s.members)
        return sorted({self._element(x) for x in s})

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={np.count_nonzero(self._hasse())})"

    # ------------------------------------------------------------------
    # order primitives
    # ------------------------------------------------------------------

    def less_equal(self, x: int, y: int) -> bool:
        return bool(self.leq[self._element(x), self._element(y)])

    def up_set(self, x: int, strict: bool = False) -> ElementSet:
        """Everything above x: the prime filter, or the strict up-set."""
        x = self._element(x)
        members = set(np.flatnonzero(self.leq[x]).tolist())
        if strict:
            members.discard(x)
        return ElementSet(self, frozenset(members))

    def down_set(self, x: int, strict: bool = False) -> ElementSet:
        """Everything below x: the prime ideal, or the strict down-set."""
        x = self._element(x)
        members = set(np.flatnonzero(self.leq[:, x]).tolist())
        if strict:
            members.discard(x)
        return ElementSet(self, frozenset(members))

    def is_filter(self, s: "ElementSet | Iterable[int]") -> bool:
        """True iff s is closed upward (x in s and x <= y imply y in s)."""
        members = self._member_list(s)
        if not members:
            return True
        reachable = self.leq[members].any(axis=0)
        mask = np.zeros(self.n, dtype=bool)
        mask[members] = True
        return bool(np.all(mask | ~reachable))

    def induced_subposet(
        self, s: "ElementSet | Iterable[int]"
    ) -> tuple["Poset", tuple[int, ...]]:
        """Restrict the order to s.

        Returns the subposet (elements renumbered 0..k-1 in ascending
        parent order) and the tuple mapping new ids back to parent ids.
        The cover matrix is derived from the restricted order when first
        read, so it may hold pairs that were not covers of the parent.
        """
        members = self._member_list(s)
        sub = self.leq[np.ix_(members, members)]
        labels = (
            tuple(self.labels[i] for i in members) if self.labels is not None else None
        )
        return Poset(len(members), None, sub, labels), tuple(members)

    def opposite(self) -> "Poset":
        """The same elements with all order relations reversed."""
        return Poset(self.n, None, self.leq.T.copy(), self.labels)

    def order_identical(self, other: "Poset") -> bool:
        return self.n == other.n and np.array_equal(self.leq, other.leq)

    # ------------------------------------------------------------------
    # zeta / Moebius / Euler characteristic
    # ------------------------------------------------------------------

    def zeta(self) -> np.ndarray:
        """The (0,1) order matrix as a Python-int matrix."""
        return self.leq.astype(np.int64).astype(object)

    def mobius(self) -> MobiusTable:
        """The full Moebius table, built by one solve on each call."""
        eye = np.eye(self.n, dtype=np.int8)  # the smallest exact identity
        return MobiusTable(self, _freeze(_mobius_solve(self.leq, eye, self._level_sets())))

    def _row_sums(self) -> np.ndarray:
        """The Moebius row sums R(x) = sum(mu(x, y) for y), solved on first
        use and then shared read-only by every reader of this poset.

        One solve on the opposite order, whose Moebius matrix is mu
        transposed, with this order's levels reversed.  chi({y : y > x})
        = 1 - R(x).
        """
        if self._r is None:
            ones = np.ones((1, self.n), dtype=object)
            r = _mobius_solve(self.leq.T, ones, self._level_sets()[::-1])[0]
            self._r = _freeze(r)
        return self._r

    def euler_characteristic(self) -> int:
        """chi via the Moebius route: the sum of the Moebius row sums."""
        return int(self._row_sums().sum())

    def euler_characteristic_by_chains(self) -> int:
        """chi via the chain route: alternating count of strict chains.

        Counts the chains of each length by extending a vector one step
        up the strict order at a time, exactly (see ``_chi_by_chains``).
        Independent of the Moebius recursion; the two must always agree.
        """
        return _chi_by_chains(self.leq, [1] * self.n)

    def chi_of(self, s: "ElementSet | Iterable[int]") -> int:
        """Euler characteristic of the induced subposet on s, by the chain
        route (no Moebius table is built)."""
        m = self._member_list(s)
        return _chi_by_chains(self.leq[np.ix_(m, m)], [1] * len(m))


# ----------------------------------------------------------------------
# isomorphism testing
# ----------------------------------------------------------------------


def _signatures(p: Poset) -> list[tuple]:
    cov = p._hasse()
    cov_out = cov.sum(axis=1)
    cov_in = cov.sum(axis=0)
    down = p.leq.sum(axis=0)
    up = p.leq.sum(axis=1)
    base = [
        (int(cov_in[x]), int(cov_out[x]), int(down[x]), int(up[x]))
        for x in range(p.n)
    ]
    # one refinement round: fold in the sorted signatures of cover-neighbours
    refined = []
    for x in range(p.n):
        above = tuple(sorted(base[int(y)] for y in np.flatnonzero(cov[x])))
        below = tuple(sorted(base[int(y)] for y in np.flatnonzero(cov[:, x])))
        refined.append((base[x], above, below))
    return refined


def are_isomorphic(p: Poset, q: Poset, size_limit: int = 12) -> bool:
    """Decide order-isomorphism by pruned backtracking.

    Exponential in the worst case; intended for small posets (core
    uniqueness checks), so sizes above ``size_limit`` raise
    :class:`SizeLimitExceeded` instead of silently taking forever.
    """
    if p.n != q.n or np.count_nonzero(p._hasse()) != np.count_nonzero(q._hasse()):
        return False
    if p.n > size_limit:
        raise SizeLimitExceeded(
            f"isomorphism search limited to {size_limit} elements, got {p.n}"
        )
    sig_p, sig_q = _signatures(p), _signatures(q)
    if sorted(sig_p) != sorted(sig_q):
        return False

    n = p.n
    candidates = {x: [y for y in range(n) if sig_q[y] == sig_p[x]] for x in range(n)}
    order = sorted(range(n), key=lambda x: (len(candidates[x]), x))
    assign = [-1] * n
    used = [False] * n
    leq_p, leq_q = p.leq, q.leq

    def extend(i: int) -> bool:
        if i == n:
            return True
        x = order[i]
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            for x2 in order[:i]:
                y2 = assign[x2]
                if leq_p[x, x2] != leq_q[y, y2] or leq_p[x2, x] != leq_q[y2, y]:
                    ok = False
                    break
            if ok:
                assign[x] = y
                used[y] = True
                if extend(i + 1):
                    return True
                used[y] = False
                assign[x] = -1
        return False

    return extend(0)
