"""Integer functions on posets and their Euler calculus.

Any function h on a finite poset can be written as a linear combination
of filter indicators; its integral against the Euler characteristic is
the matching combination of filter characteristics, and is independent
of the chosen combination.  The canonical combination used here comes
from Moebius inversion over prime filters, which works for arbitrary
integer functions (corrupted sensor readings included); the integral is
h . R, with R the Moebius row sums.  R and the Moebius coefficients
h @ mu come from the poset's level solve, float64 certified by its
2**53 sum bound or Python ints (see ``eulerscan.poset``), and the
transports sum them onto the images and then over prime ideals or
filters, one exact product with the codomain's held operator.  Monotone
non-negative functions also admit the excursion-set decomposition, kept
as an independent, mu-free cross-check route: h . E, with E the
poset's signed chain counts (chains counted by their bottoms, exact),
held once per poset like R.  Both integrals are one exact Python-int
dot product with the held vector.

Functions take int64 values.  Out-of-range inputs, and arithmetic or
transports whose results leave int64, raise ``OverflowError`` instead
of wrapping.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import NegativeValues, NotMonotone, NotOrderPreserving
from .poset import (
    ElementSet,
    Poset,
    _exact_dot,
    _mobius_solve,
    _order_sums,
)


def _int64_values(values: Iterable[int]) -> np.ndarray:
    """The given integers as a new int64 array.

    A one-dimensional ndarray of a signed integer dtype converts in one
    step.  Anything else goes value by value through ``operator.index``
    before any array is built: a non-integer (a float, a NumPy bool)
    raises ``TypeError`` and a value outside int64 ``OverflowError``.
    """
    if isinstance(values, np.ndarray) and values.ndim == 1 and values.dtype.kind == "i":
        return values.astype(np.int64)
    return np.array([operator.index(v) for v in values], dtype=np.int64)


class PosetFunction:
    """An integer value per element of one poset."""

    __slots__ = ("parent", "values")

    def __init__(self, parent: Poset, values: Iterable[int]):
        arr = _int64_values(values)
        if arr.shape != (parent.n,):
            raise ValueError(f"expected {parent.n} values, got {arr.shape}")
        arr.flags.writeable = False
        self.parent = parent
        self.values = arr

    @classmethod
    def from_dict(cls, parent: Poset, mapping: Mapping[int, int]) -> "PosetFunction":
        if sorted(map(operator.index, mapping)) != list(range(parent.n)):
            raise ValueError("function must be defined on every element")
        return cls(parent, [mapping[x] for x in range(parent.n)])

    def __getitem__(self, x: int) -> int:
        return int(self.values[self.parent._element(x)])

    def __len__(self) -> int:
        return self.parent.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PosetFunction)
            and (self.parent is other.parent or self.parent.order_identical(other.parent))
            and np.array_equal(self.values, other.values)
        )

    def __hash__(self):
        return hash((self.parent.n, self.values.tobytes()))  # what __eq__ compares

    def __add__(self, other: "PosetFunction") -> "PosetFunction":
        self._check_same(other)
        return PosetFunction(self.parent, self.values.astype(object) + other.values)

    def __sub__(self, other: "PosetFunction") -> "PosetFunction":
        self._check_same(other)
        return PosetFunction(self.parent, self.values.astype(object) - other.values)

    def __rmul__(self, scalar: int) -> "PosetFunction":
        return PosetFunction(
            self.parent, operator.index(scalar) * self.values.astype(object)
        )

    def _check_same(self, other: "PosetFunction"):
        if other.parent is not self.parent:
            raise ValueError("functions live on different posets")

    def with_value(self, x: int, value: int) -> "PosetFunction":
        vals = self.values.copy()
        vals[self.parent._element(x)] = operator.index(value)
        return PosetFunction(self.parent, vals)

    def is_monotone(self) -> bool:
        """True iff there is no x <= y with h(x) > h(y)."""
        v = self.values
        return not (self.parent.leq & (v[:, None] > v[None, :])).any()

    def is_nonnegative(self) -> bool:
        return bool((self.values >= 0).all()) if len(self.values) else True

    def __repr__(self) -> str:
        return f"PosetFunction({self.values.tolist()})"


@dataclass(frozen=True)
class FilterLinearForm:
    """A formal sum of filter indicators with integer coefficients, kept as
    Python ints so that no sum of them wraps."""

    parent: Poset
    terms: tuple[tuple[int, ElementSet], ...]

    def __post_init__(self):
        terms = tuple((operator.index(coeff), q) for coeff, q in self.terms)
        for _, q in terms:
            if q.parent is not self.parent:
                raise ValueError("filter term belongs to a different poset")
            if not self.parent.is_filter(q):
                raise ValueError(f"term {sorted(q.members)} is not a filter")
        object.__setattr__(self, "terms", terms)

    def evaluate(self) -> PosetFunction:
        """The pointwise function the form sums to, accumulated in Python
        ints (a coefficient may leave int64 even when the sum does not)."""
        vals = np.zeros(self.parent.n, dtype=object)
        for coeff, q in self.terms:
            vals[q.mask()] += coeff
        return PosetFunction(self.parent, vals)

    def integral(self) -> int:
        """sum of coefficient * chi(filter), straight from the definition."""
        return sum(coeff * self.parent.chi_of(q) for coeff, q in self.terms)

    def coefficient_sum(self) -> int:
        return sum(coeff for coeff, _ in self.terms)


class PosetMap:
    """A map between posets, stored as one image element per domain element."""

    __slots__ = ("domain", "codomain", "image", "_order_preserving")

    def __init__(self, domain: Poset, codomain: Poset, image: Iterable[int]):
        img = _int64_values(image)
        if img.shape != (domain.n,):
            raise ValueError(f"expected {domain.n} image entries, got {img.shape}")
        if domain.n and ((img < 0) | (img >= codomain.n)).any():
            raise ValueError("image references elements outside the codomain")
        img.flags.writeable = False
        self.domain = domain
        self.codomain = codomain
        self.image = img
        self._order_preserving: bool | None = None

    @classmethod
    def identity(cls, p: Poset) -> "PosetMap":
        return cls(p, p, range(p.n))

    @classmethod
    def constant(cls, domain: Poset, codomain: Poset, value: int) -> "PosetMap":
        return cls(domain, codomain, [value] * domain.n)

    @classmethod
    def inclusion(
        cls, sub: Poset, parent: Poset, mapping: Iterable[int]
    ) -> "PosetMap":
        """Embed an induced subposet back into its parent."""
        return cls(sub, parent, mapping)

    def __call__(self, x: int) -> int:
        return int(self.image[self.domain._element(x)])

    def compose(self, inner: "PosetMap") -> "PosetMap":
        """self after inner."""
        if inner.codomain is not self.domain:
            raise ValueError("maps do not compose")
        return PosetMap(inner.domain, self.codomain, self.image[inner.image])

    def is_order_preserving(self) -> bool:
        if self._order_preserving is None:
            image_leq = self.codomain.leq.take(self.image, 0).take(self.image, 1)
            self._order_preserving = bool((self.domain.leq <= image_leq).all())
        return self._order_preserving

    def _require_order_preserving(self):
        if not self.is_order_preserving():
            raise NotOrderPreserving("map does not preserve the order")


def indicator(p: Poset, s: "ElementSet | Iterable[int]") -> PosetFunction:
    """The 0/1 membership function of a subset (any subset, not only filters)."""
    members = p._member_list(s)
    vals = np.zeros(p.n, dtype=np.int64)
    vals[members] = 1
    return PosetFunction(p, vals)


def _coefficients(h: PosetFunction) -> np.ndarray:
    """``h @ mu`` as Python ints: the Moebius coefficient of every element."""
    p = h.parent
    return _mobius_solve(p._operator(), h.values[None, :])[0]


def mobius_coefficients(h: PosetFunction) -> FilterLinearForm:
    """The canonical prime-filter form of h, via Moebius inversion.

    The coefficient at x is sum(mu(y, x) * h(y) for y <= x), exact, as
    a Python int; evaluating the resulting form reproduces h exactly, and
    zero terms are dropped.
    """
    p = h.parent
    coeffs = _coefficients(h)
    terms = tuple((coeffs[x], p.up_set(x)) for x in range(p.n) if coeffs[x] != 0)
    return FilterLinearForm(p, terms)


def integrate(h: PosetFunction) -> int:
    """Integral of h against the Euler characteristic (Moebius route).

    Equals the coefficient sum of the canonical prime-filter form, since
    every prime filter has chi 1: the dot product of h with the Moebius
    row sums, taken in Python ints.  Valid for arbitrary integer h.
    """
    return _exact_dot(h.values, h.parent._row_sums())


def integrate_excursion(h: PosetFunction) -> int:
    """Integral of a monotone non-negative h via its excursion sets.

    The integral is the sum of chi({h >= i}) for i = 1..max(h), and
    monotonicity makes each excursion set a filter.  Swapping the sums
    (Fubini), a chain lies in {h >= i} exactly when its bottom does, so
    the sum is the alternating chain count with each chain weighted by h
    at its bottom: h dotted with the poset's signed chain counts E, held
    once per poset, with no Moebius function involved.  Without
    monotonicity and non-negativity the decomposition is meaningless, so
    violations raise instead of returning a number.
    """
    if not h.is_monotone():
        raise NotMonotone("excursion route requires a monotone function")
    if not h.is_nonnegative():
        raise NegativeValues("excursion route requires non-negative values")
    return _exact_dot(h.values, h.parent._chain_sums())


def pushforward(f: PosetMap, h: PosetFunction) -> PosetFunction:
    """Transport h along f: at each codomain element, the integral of h
    over the preimage of that element's prime ideal.

    Raises ``OverflowError`` when a transported value leaves int64.
    """
    f._require_order_preserving()
    if h.parent is not f.domain:
        raise ValueError("function does not live on the map's domain")
    # The preimage S of the prime ideal of x is an ideal of the domain.  mu
    # of S is the restriction of mu, and every a <= b in S lies in S, so
    # the integral of h over S is the sum of h's Moebius coefficients
    # (h @ mu)[b] over b in S: the coefficients summed onto their images,
    # then over the prime ideal of x.
    sums = _order_sums(f.codomain._operator(), _coefficients(h), f.image)
    return PosetFunction(f.codomain, sums)


def pullback(f: PosetMap, h: PosetFunction) -> PosetFunction:
    """Compose h with f (no order-preservation required)."""
    if h.parent is not f.codomain:
        raise ValueError("function does not live on the map's codomain")
    return PosetFunction(f.domain, h.values[f.image])


def is_chi_distinguished(f: PosetMap) -> bool:
    """True iff the preimage of every prime filter has Euler characteristic 1.

    Such maps transport integrals along the pullback without loss.
    """
    f._require_order_preserving()
    # The preimage F of the prime filter of x is a filter of the domain.
    # mu of F is the restriction of mu, and every b >= a in F lies in F, so
    # chi(F) is the sum of the Moebius row sums over F (0 when F is empty):
    # the row sums summed onto their images, then over the prime filter.
    op = f.codomain._operator().opposite()
    return bool((_order_sums(op, f.domain._row_sums(), f.image) == 1).all())


def is_ascending_closure_operator(r: PosetMap) -> bool:
    """True iff r is an idempotent, inflationary endo-map (r.r = r, r(x) >= x)."""
    if not r.domain.order_identical(r.codomain):
        raise ValueError("closure operators must be endo-maps")
    r._require_order_preserving()
    idempotent = bool(np.array_equal(r.image[r.image], r.image))
    inflationary = bool(r.domain.leq[np.arange(r.domain.n), r.image].all())
    return idempotent and inflationary
