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
gives ``v @ mu`` for any rows v; chi is the sum of the Moebius row sums
R), and an alternating count of strict chains by their bottoms
(``_signed_chain_counts``: E(x) sums (-1)**k over the chains x = x0 <
... < xk; chi is the sum of E).  E equals R only by P. Hall's theorem,
and neither pass reads the other, so the test suite leans on their
agreement.  Each poset keeps five derived facts in frozen cache slots,
each filled once when first needed: its boolean cover matrix (kept by
:meth:`Poset.from_covers` and the core, derived from the order only for
subposets and opposites whose maker does not hold it), which every
reader of the covers and every cover degree comes from; its antichain
levels; its strict order as a float64 operator in level order; its
Moebius row sums R; and its signed chain counts E.  Every reader of R
(chi, integrals, chi-points, point classes, chi-distinguished maps)
shares that vector, and every reader of the chain route (chi by chains,
chi of a subset, the excursion integral) shares E.  Only
:meth:`Poset.mobius` builds the full table.

The operator (:class:`_Operator`) is the strict order with its rows and
columns permuted into level order, the levels concatenated, as one
C-contiguous float64 array, 8n**2 bytes.  Every element strictly below
a level lies in an earlier one, so the matrix is strictly upper
block-triangular, and each level of a solve, each chain step and each
transport is one BLAS product on contiguous slices; the opposite order
reads the same matrix transposed, from the top level down.  Ids stay
public, moved to positions on the way in and back on the way out.  A
subposet reads its root's matrix through a mask of its members'
positions (the root's levels cut to them are still antichains), and
every walk zeroes the positions outside the mask after each level or
chain step, so they add nothing to any product or to any bound below.

All counting arithmetic is exact, in two tiers that run the same code,
float64 BLAS and Python ints, which meet the operator in one place,
``_product``: every product takes its tier from its integers' dtype.
The float64 tier has one exactness rule for its three users, the solve,
the chain count and the transport: a product of the 0/1 operator with
integers is trusted in float64 only when the absolute values it can add
sum below 2**53, and is otherwise taken on Python ints.  It rests on one
lemma.  float64 adds integers exactly, in any order, while every partial
sum stays below 2**53; and for non-negative integers the float64 sum, in
any order, is at least min(true sum, 2**53), since rounding is monotone
and 2**53 is a float.  So a float total of |x| below 2**53 proves the
true total below 2**53, and then every entry of the product, and every
partial sum BLAS forms on the way, is an exact sum of some of those
values.  The argument assumes only that each BLAS partial sum adds some
entries of one row.

A transport (``_order_sums``) tests sum(|x|) on the Python ints before
any float conversion.  The chain count (``_signed_chain_counts``)
starts from ones on the elements, so its counts stay non-negative, and
steps in float64 while the float total of every count so far is below
2**53, which bounds every entry of the next step and of E; the first
time it fails, counts and E, still exact, turn into Python ints.  A solve
(``_mobius_solve``) runs the level walk (``_level_walk``) in float64
when |v| < 2**53, and keeps the answer c when the float total of |c|
along each row is below 2**53.  That bound alone certifies the walk, by
induction over levels.  While the earlier levels are exact, each entry
and partial sum of their product p = ``c[:, :s] @ lt[:s, s:e]`` adds
some of one row's earlier entries, so it is exact unless that row's
total passes 2**53; and ``v - p``, with |v| and |p| below 2**53,
rounds only when the true |c_y| passes 2**53, leaving a computed |c_y|
of at least 2**53.  Either way the first level that rounds leaves a row whose
float total is at least 2**53, so a passing bound means no level
rounded.  The opposite walk, from the top level down, is the same
argument.  Otherwise the same walk runs again on Python ints, the only
path for answers past 2**53.  The solves and the zeta and Moebius
matrices hand out Python-int object arrays at every size.

The counting products of the order walk and the cover matrix (the square
of the order, counting every closed interval) run in float32, where
every entry is a count below 2**24.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CycleDetected, SizeLimitExceeded

def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


_FLOAT_EXACT = 2**53  # float64 holds every integer of smaller magnitude


def _check_cover(a: int, b: int, n: int) -> tuple[int, int]:
    """One given pair of ids, or the error that names it."""
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"cover ({a}, {b}) references ids outside 0..{n - 1}")
    if a == b:
        raise CycleDetected(f"self-loop at element {a}")
    return a, b


def _cover_ends(pairs: Iterable, n: int) -> np.ndarray:
    """The given pairs as a checked k x 2 int64 array.

    A k x 2 array of integers (or bools) is taken as it is.  When every
    pair holds two plain integers (or bools), the ids become one array in
    one conversion.  Either is checked in one vector pass, the first bad
    pair in input order raising.  Anything else goes pair by pair through
    ``operator.index``, in order.
    """
    if isinstance(pairs, np.ndarray) and pairs.dtype.kind in "biu" and pairs.shape[1:] == (2,):
        ends = pairs
    else:
        pairs, ends = list(pairs), None
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


@dataclass(frozen=True, eq=False)
class _Operator:
    """The strict order of one poset in level order, as a float64 operator
    (see the module docstring).

    ``pos[x]`` is element x's position, level k takes the positions
    ``bounds[k]:bounds[k + 1]``, and ``lt[i, j]`` is 1.0 iff the element
    at position i is strictly below the one at j, so the columns of level
    k have entries only in the rows before ``bounds[k]``.  Vectors go in
    with :meth:`to_levels` and come out with :meth:`to_ids`.  On a
    subposet, ``lt`` and ``bounds`` are its root's and ``keep`` marks its
    members' positions (None on a root).  With ``dual`` set it stands for
    the opposite order: the same matrix, read transposed and from the top
    level down.
    """

    pos: np.ndarray
    bounds: tuple[int, ...]
    lt: np.ndarray
    keep: np.ndarray | None = None
    dual: bool = False

    @classmethod
    def built(cls, leq: np.ndarray, levels) -> "_Operator":
        """The strict order of the order matrix ``leq`` (reflexive or
        strict) in the level order of ``levels``, each an array of ids:
        the one place the order turns into float64."""
        perm = np.concatenate(levels) if levels else np.zeros(0, dtype=np.intp)
        lt = leq.take(perm, 0).take(perm, 1).astype(np.float64)
        np.fill_diagonal(lt, 0)
        bounds = (0, *itertools.accumulate(map(len, levels)))
        return cls(_freeze(np.argsort(perm)), bounds, _freeze(lt))  # perm's inverse

    def restricted(self, members: np.ndarray) -> "_Operator":
        """The operator of the subposet on the distinct ids ``members``
        (its element i is members[i]): this matrix, masked to them."""
        pos = self.pos[members]
        keep = np.zeros(len(self.lt), dtype=bool)
        keep[pos] = True
        return _Operator(_freeze(pos), self.bounds, self.lt, _freeze(keep))

    def opposite(self) -> "_Operator":
        """The operator of the opposite order, sharing this matrix."""
        return _Operator(self.pos, self.bounds, self.lt, self.keep, not self.dual)

    def mask(self, c: np.ndarray, s: int, e: int) -> None:
        """Zero ``c[..., s:e]`` outside the subposet, in place."""
        if self.keep is not None:
            c[..., s:e] *= self.keep[s:e]

    def to_levels(self, v: np.ndarray) -> np.ndarray:
        """``v`` with its last axis moved from ids to level order, zero-padded."""
        out = np.zeros(v.shape[:-1] + (len(self.lt),), dtype=v.dtype)
        out[..., self.pos] = v
        return out

    def to_ids(self, c: np.ndarray) -> np.ndarray:
        """``c`` with its last axis moved from level order back to ids."""
        return c[..., self.pos]


def _mobius_solve(op: _Operator, v: np.ndarray) -> np.ndarray:
    """``v @ mu`` for each row of ``v``, with mu the Moebius matrix of the
    order of ``op``, a poset's operator (``Poset._operator``) or its
    opposite, as Python ints.

    Solves ``c @ zeta = v`` by the level walk (``_level_walk``).  On the
    identity this is the recursion mu(x, y) = -sum(mu(x, z) for x <= z <
    y) that defines the table.  The walk runs in float64 BLAS when
    |v| < 2**53, and its answer c is kept when sum(|c|) < 2**53 along
    every row, which alone proves every level exact (the exactness rule
    of the module docstring); else the same walk runs again on Python
    ints.
    """
    v = np.asarray(v)
    # bounded from both sides, since np.abs of int64's minimum is negative;
    # this also keeps Python ints past float64's range out of astype
    if ((v > -_FLOAT_EXACT) & (v < _FLOAT_EXACT)).all():
        c = _level_walk(op, op.to_levels(v).astype(np.float64))
        if (np.abs(c).sum(axis=1) < _FLOAT_EXACT).all():  # false on inf and nan
            c = op.to_ids(c)  # one copy a statement, each freed before the next
            c = c.astype(np.int64)
            return c.astype(object)
    return op.to_ids(_level_walk(op, op.to_levels(np.array(v, dtype=object))))


def _level_walk(op: _Operator, c: np.ndarray) -> np.ndarray:
    """Solve ``c @ zeta = v`` in place, for each row v of ``c`` given in
    the level order of ``op``: c[:, y] = v[:, y] - sum(c[:, z] for z < y),
    one level at a time, every element strictly below a level lying in an
    earlier one (from the top level down on an opposite operator, where
    the elements below y are those above it in ``op.lt``), each masked
    to the subposet, each product taken by ``_product``; returns ``c``.
    """
    lt, blocks = op.lt, list(zip(op.bounds, op.bounds[1:]))
    for s, e in reversed(blocks) if op.dual else blocks:
        if op.dual:
            c[:, s:e] -= _product(c[:, e:], lt[s:e, e:].T)
        else:
            c[:, s:e] -= _product(c[:, :s], lt[:s, s:e])
        op.mask(c, s, e)
    return c


def _product(x: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``x @ a`` for integers ``x`` (a vector or rows) and a 0/1 float64
    block ``a`` of an operator: in BLAS for float64 x, exact under the
    caller's 2**53 bound; for Python ints, exact at any size, column j
    sums the entries of x that column j of ``a`` marks.  The one place
    both tiers meet the operator."""
    if x.dtype != object:
        return x @ a
    out = np.zeros(x.shape[:-1] + a.shape[1:], dtype=object)
    for j, marks in enumerate((a > 0).T):
        out[..., j] = x[..., marks].sum(axis=-1)
    return out


def _ints(w: np.ndarray) -> np.ndarray:
    """Exact integers as an object array of Python ints."""
    return w if w.dtype == object else w.astype(np.int64).astype(object)


def _order_sums(op: _Operator, x, at) -> np.ndarray:
    """Entry y sums the integers x[b] over the b with ``at[b] <= y`` in
    the order of the operator ``op`` (or its opposite), exact: x placed
    on the elements ``at`` and carried up the order by one ``_product``.

    Runs in float64 BLAS when sum(|x|) < 2**53, tested on the Python ints
    before any float conversion (the exactness rule of the module
    docstring), and the answer is then int64; otherwise it runs on
    Python ints and is handed out as an object array.
    """
    x = x.tolist() if isinstance(x, np.ndarray) else list(x)
    at = op.pos[np.asarray(at, dtype=np.intp)]  # in level order
    if sum(map(abs, x)) < _FLOAT_EXACT:
        w = np.bincount(at, np.array(x, dtype=np.float64), len(op.lt))
    else:
        w = np.zeros(len(op.lt), dtype=object)
        np.add.at(w, at, np.array(x, dtype=object))
    y = op.to_ids(w + _product(w, op.lt.T if op.dual else op.lt))
    return y if y.dtype == object else y.astype(np.int64)


def _exact_dot(a, b) -> int:
    """sum(a[x] * b[x]) on Python ints, exact at any size; an ndarray is
    read through ``tolist``, so int64 and object arrays give Python ints."""
    a, b = (v.tolist() if isinstance(v, np.ndarray) else v for v in (a, b))
    return sum(map(operator.mul, a, b))


def _signed_chain_counts(op: _Operator) -> np.ndarray:
    """E(x), the sum of (-1)**k over the strict chains x = x0 < ... < xk
    whose bottom is x, for every element x of the operator ``op`` (not
    its opposite), as Python ints in an object array.  Summed, E is the
    Euler characteristic (P. Hall's theorem); dotted with any h it is the
    sum over chains of (-1)**k * h at the bottom, with no Moebius function
    involved.

    The count starts from ones on the elements, the chains of one
    element, and masks each step to them.  Entry x of ``counts`` counts
    the chains of the current length whose bottom is x; ``lt @ counts``,
    with row x of the strict order ``lt`` marking the elements strictly
    above x, extends each by a step down.  A chain of k + 1 elements has
    its bottom at least k levels below the top, so step k reads only the
    rows below the last k levels and the columns the previous step
    filled, and counts shrinks as the chains grow; a step with no chains
    left ends the pass.  E adds the steps with alternating signs.  Each
    step is one float64 BLAS product while the running total of every
    count so far is below 2**53 (the exactness rule of the module
    docstring: counts are non-negative, so that total bounds every entry
    of the next step and of E).  The bound is tested before a step is
    used; the first time it fails, counts and E, still exact, turn into
    Python ints (``_ints``), and that step and the rest run there.
    """
    lt = op.lt
    counts = np.ones(len(lt)) if op.keep is None else op.keep.astype(np.float64)
    sums = counts.copy()
    seen = len(op.pos)  # the sum of every count so far
    for k, stop in enumerate(op.bounds[-2:0:-1]):  # the rows each step keeps
        a = lt[:stop, : len(counts)]
        step = _product(counts, a.T)
        op.mask(step, 0, stop)
        size = int(step.sum())  # exact below 2**53, at least 2**53 when the true sum is
        if not size:  # no chain this long, so none longer
            break
        seen += size
        if seen >= _FLOAT_EXACT and counts.dtype != object:
            counts, sums = _ints(counts), _ints(sums)
            step = _product(counts, a.T)
            op.mask(step, 0, stop)
        if k % 2:
            sums[:stop] += step
        else:
            sums[:stop] -= step
        counts = step
    return _freeze(op.to_ids(_ints(sums)))


def _cover_matrix(leq: np.ndarray) -> np.ndarray:
    """Transitive reduction: ``cov[x, y]`` iff the interval [x, y] holds
    two elements.  Row x holds the upper covers of x, column x its lower
    covers; this is the one place covers are derived from an order.  An
    interval [x, x] of more than x is a cycle: :class:`CycleDetected`."""
    f = leq.astype(np.float32)
    count = f @ f
    if (count.diagonal() > 1).any():
        raise CycleDetected("order relation contains a directed cycle")
    return count == 2


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
    __iter__ = None  # indexed by pairs of ids, not iterable

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
    any number of concurrent readers.  Five facts derived from the order
    are cached, each filled idempotently on first use (racing readers
    store equal frozen values): the boolean cover matrix, the antichain
    levels, the strict order as a float64 operator in level order (a
    subposet's reads its root's matrix), the Moebius row sums and the
    signed chain counts.  Use :meth:`from_covers` to build one; the plain
    constructor trusts its arguments, turns the given cover pairs into
    the matrix, and with ``covers=None`` leaves the matrix to be derived
    from ``leq`` when first read.
    """

    __slots__ = (
        "n", "labels", "leq", "dropped_covers", "_cov", "_lv", "_op", "_r", "_e", "_sub"
    )

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
        self._op: _Operator | None = None
        self._r: np.ndarray | None = None
        self._e: np.ndarray | None = None
        self._sub: tuple[Poset, np.ndarray] | None = None  # (root, root ids)

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
        """Build a poset from Hasse-diagram pairs ``(lower, upper)``, or
        from a k x 2 integer array of them, which is checked as it is.

        Duplicate pairs are ignored.  Pairs already implied by a longer
        path are dropped and reported on ``dropped_covers`` rather than
        rejected; a directed cycle raises :class:`CycleDetected`.  One
        Kahn pass over the pairs finds the cycle or the antichain levels,
        and one walk down the levels (``_close``) yields the order and
        the implied pairs.
        """
        ends = _cover_ends(covers, n)
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

    def _is_cover(self, a: int, b: int) -> bool:
        """True iff b covers a; a pair naming an id outside 0..n-1 is
        none, rather than wrapping."""
        return 0 <= a < self.n and 0 <= b < self.n and bool(self._hasse()[a, b])

    def _level_sets(self) -> tuple[np.ndarray, ...]:
        """The elements in antichain levels, level k holding those whose
        longest chain below has k steps (see ``_levels``): found on first
        use and then shared read-only by every solve on this poset."""
        if self._lv is None:
            self._lv = _levels(self.leq & ~np.eye(self.n, dtype=bool))
        return self._lv

    def _operator(self) -> _Operator:
        """The strict order in level order as a read-only float64 matrix,
        with its level order: found on first use and then shared by every
        solve, chain count and transport on this poset.  A subposet reads
        its root's (see :meth:`induced_subposet`); a root builds one over
        its antichain levels."""
        op = self._op
        if op is None and self._sub is not None:
            root, ids = self._sub
            op = self._op = root._operator().restricted(ids)
        elif op is None:
            op = self._op = _Operator.built(self.leq, self._level_sets())
        return op

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
        """The distinct ids of s, checked and ascending.

        A one-dimensional ndarray of a signed or unsigned integer dtype is
        checked in one vector pass, the first id out of range in input
        order raising, as one at a time would.  Anything else goes id by
        id through ``_element``.
        """
        if isinstance(s, ElementSet):
            if s.parent is not self:
                raise ValueError("element set belongs to a different poset")
            return sorted(s.members)
        if isinstance(s, np.ndarray) and s.ndim == 1 and s.dtype.kind in "iu":
            bad = (s < 0) | (s >= self.n)
            if bad.any():
                self._element(int(s[bad.argmax()]))
            # not np.unique, which imports numpy.ma (about 1.6 MB resident)
            # and is slower than a set at these sizes
            return sorted(set(s.tolist()))
        return sorted({self._element(x) for x in s})

    def __repr__(self) -> str:
        try:
            return f"Poset(n={self.n}, covers={np.count_nonzero(self._hasse())})"
        except CycleDetected:  # a trusted order may hold a cycle
            return f"Poset(n={self.n}, cyclic)"

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
        read, so it may hold pairs that were not covers of the parent.  The
        subposet builds no float64 operator: it reads that of its root (the
        poset a chain of subposets starts from) and keeps the root alive.
        """
        members = self._member_list(s)
        labels = (
            tuple(self.labels[i] for i in members) if self.labels is not None else None
        )
        return self._restrict(members, labels), tuple(members)

    def _restrict(self, members: list[int], labels=None) -> "Poset":
        """The subposet on the ascending ids ``members``, recording its root."""
        ids = np.array(members, dtype=np.int64)
        sub = Poset(len(members), None, self.leq.take(ids, 0).take(ids, 1), labels)
        root, at = self._sub or (self, None)
        sub._sub = (root, ids if at is None else at[ids])
        return sub

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
        return _ints(self.leq)

    def mobius(self) -> MobiusTable:
        """The full Moebius table, built by one solve on each call."""
        eye = np.eye(self.n, dtype=np.int8)  # the smallest exact identity
        return MobiusTable(self, _freeze(_mobius_solve(self._operator(), eye)))

    def _row_sums(self) -> np.ndarray:
        """The Moebius row sums R(x) = sum(mu(x, y) for y), solved on first
        use and then shared read-only by every reader of this poset.

        One solve on the opposite order, whose Moebius matrix is mu
        transposed, up this order's operator from its top level.
        chi({y : y > x}) = 1 - R(x).
        """
        if self._r is None:
            ones = np.ones((1, self.n), dtype=object)
            r = _mobius_solve(self._operator().opposite(), ones)[0]
            self._r = _freeze(r)
        return self._r

    def euler_characteristic(self) -> int:
        """chi via the Moebius route: the sum of the Moebius row sums."""
        return int(self._row_sums().sum())

    def _chain_sums(self) -> np.ndarray:
        """The signed chain counts E(x) = sum((-1)**k) over the strict
        chains x = x0 < ... < xk, counted on first use and then shared
        read-only by every reader of the chain route on this poset.

        One chain-count pass over the operator (``_signed_chain_counts``),
        with no Moebius solve: E equals the row sums R only by P. Hall's
        theorem, so the two routes stay independent checks of each other.
        """
        if self._e is None:
            self._e = _signed_chain_counts(self._operator())
        return self._e

    def euler_characteristic_by_chains(self) -> int:
        """chi via the chain route: the alternating count of strict
        chains, the sum of the signed chain counts E.  Independent of the
        Moebius recursion; the two must always agree.
        """
        return int(self._chain_sums().sum())

    def chi_of(self, s: "ElementSet | Iterable[int]") -> int:
        """Euler characteristic of the induced subposet on s, by the chain
        route: the sum of the subposet's own E (no Moebius table is
        built)."""
        return int(self._restrict(self._member_list(s))._chain_sums().sum())


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
