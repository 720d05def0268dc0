"""Brute-force reference implementations used as independent oracles.

Everything here favours obvious correctness over speed and stays away
from the library's own derivations wherever a check needs independence:
order closure by digraph search and by repeated squaring, Euler
characteristics by explicit chain enumeration, filters by scanning
every subset, contractibility by exhaustive beat-point removal in all
orders, cores by re-deriving the covers after every removal, transports
by Moebius recursion on each preimage, chi-minimal models by removing
one chi-point at a time, target draws from an explicit list of spots,
documents loaded one entry at a time.
"""

import itertools
import random
import re
from functools import lru_cache

import numpy as np

from eulerscan import ParseError, Poset, TargetPosition


def reachability(n, covers):
    """All ordered pairs (x, y) with x <= y, by depth-first search."""
    succ = {x: set() for x in range(n)}
    for a, b in covers:
        succ[a].add(b)
    pairs = set()
    for start in range(n):
        stack = [start]
        seen = {start}
        while stack:
            u = stack.pop()
            pairs.add((start, u))
            for v in succ[u] - seen:
                seen.add(v)
                stack.append(v)
    return pairs


def strict_order_in(order, leq_pairs):
    """The float64 matrix of the strict order on the ids listed in
    ``order``: entry (i, j) is 1.0 iff order[i] < order[j]."""
    n = len(order)
    out = np.zeros((n, n))
    for i, x in enumerate(order):
        for j, y in enumerate(order):
            if x != y and (x, y) in leq_pairs:
                out[i, j] = 1.0
    return out


def closure_by_doubling(adj):
    """Reflexive-transitive closure of an adjacency matrix, by squaring
    until it stops changing (each product in float32, exact for n < 2**24)."""
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    while True:
        f = reach.astype(np.float32)
        nxt = reach | ((f @ f) > 0)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def chains_by_length(elements, leq_pairs):
    """Count strictly increasing chains, keyed by element count."""
    elements = sorted(elements)
    counts = {}

    def extend(chain_end, length):
        counts[length] = counts.get(length, 0) + 1
        for y in elements:
            if y != chain_end and (chain_end, y) in leq_pairs:
                extend(y, length + 1)

    for x in elements:
        extend(x, 1)
    return counts


def chain_sums_by_enumeration(n, leq_pairs):
    """E(x) = sum((-1)**k) over the strict chains x = x0 < ... < xk, for
    each x in 0..n-1: the chains of the up-set of x, by length, less
    those of its strict up-set, which are the ones not starting at x."""
    sums = []
    for x in range(n):
        up = [y for y in range(n) if (x, y) in leq_pairs]
        with_x = chains_by_length(up, leq_pairs)
        without_x = chains_by_length([y for y in up if y != x], leq_pairs)
        sums.append(
            sum((-1) ** (k - 1) * (c - without_x.get(k, 0)) for k, c in with_x.items())
        )
    return sums


def chi_by_chain_enumeration(elements, leq_pairs):
    counts = chains_by_length(elements, leq_pairs)
    return sum((-1) ** (k - 1) * c for k, c in counts.items())


def all_filters(n, leq_pairs):
    """Every up-closed subset, the empty one included (n must stay small)."""
    assert n <= 12
    filters = []
    for bits in itertools.product([False, True], repeat=n):
        members = frozenset(i for i in range(n) if bits[i])
        if all(y in members for x in members for y in range(n) if (x, y) in leq_pairs):
            filters.append(members)
    return filters


def mobius_by_recursion(n, leq_pairs):
    """The defining recursion, element pair by element pair, in plain Python."""
    table = {}

    def mu(x, y):
        if (x, y) in table:
            return table[(x, y)]
        if x == y:
            value = 1
        elif (x, y) not in leq_pairs:
            value = 0
        else:
            value = -sum(
                mu(x, z)
                for z in range(n)
                if z != y and (x, z) in leq_pairs and (z, y) in leq_pairs
            )
        table[(x, y)] = value
        return value

    return {(x, y): mu(x, y) for x in range(n) for y in range(n)}


def solve_by_columns(leq, v):
    """c with c @ zeta = v for each row of v, zeta being the order matrix
    leq, on Python ints: filled column by column in topological order,
    c[:, y] = v[:, y] - sum(c[:, z] for z < y).  No levels, no floats."""
    n = leq.shape[0]
    c = np.array(v, dtype=object)
    lt = leq & ~np.eye(n, dtype=bool)
    for y in np.argsort(leq.sum(axis=0), kind="stable"):
        below = lt[:, y]
        if below.any():
            c[:, y] -= c[:, below].sum(axis=1)
    return c


def mobius_by_columns(leq):
    """The full Moebius matrix of an order matrix: the column recursion
    mu(x, y) = -sum(mu(x, z) for x <= z < y) with mu(x, x) = 1, which is
    ``solve_by_columns`` on the identity."""
    return solve_by_columns(leq, np.eye(leq.shape[0], dtype=np.int64))


def beat_points_by_definition(members, leq_pairs):
    """(down-beat, up-beat) sets of the subposet on members, by definition.

    Down-beat means the strict up-set has a unique minimal element, and
    up-beat means the strict down-set has a unique maximal element.
    """
    down, up = set(), set()
    for x in members:
        above = [y for y in members if y != x and (x, y) in leq_pairs]
        mins = [m for m in above if not any((z, m) in leq_pairs for z in above if z != m)]
        if len(mins) == 1:
            down.add(x)
        below = [y for y in members if y != x and (y, x) in leq_pairs]
        maxs = [m for m in below if not any((m, z) in leq_pairs for z in below if z != m)]
        if len(maxs) == 1:
            up.add(x)
    return down, up


def contractible_exhaustive(members, leq_pairs):
    """Decide contractibility by trying every beat-point removal order.

    Any removal order reaching a single point witnesses contractibility.
    """

    @lru_cache(maxsize=None)
    def go(frozen):
        if len(frozen) == 1:
            return True
        if not frozen:
            return False
        down, up = beat_points_by_definition(frozen, leq_pairs)
        return any(go(frozen - {x}) for x in down | up)

    return go(frozenset(members))


def strip_beat_points_by_recompute(leq, order):
    """Remove beat points one at a time, deriving the covers of the
    surviving subposet afresh (a float64 product) after every removal.

    The beat point least in ``order`` goes first, recorded as down-beat
    (one upper cover) in preference to up-beat (one lower cover).
    Returns (removal_sequence, survivors).
    """
    rank = {x: i for i, x in enumerate(order)}
    members = list(range(leq.shape[0]))
    removal = []
    while True:
        k = len(members)
        lt = (leq[np.ix_(members, members)] & ~np.eye(k, dtype=bool)).astype(float)
        cov = (lt > 0) & (lt @ lt == 0)
        down, up = cov.sum(axis=1) == 1, cov.sum(axis=0) == 1
        beat = [i for i in range(k) if down[i] or up[i]]
        if not beat:
            return tuple(removal), tuple(members)
        i = min(beat, key=lambda j: rank[members[j]])
        removal.append((members[i], "down_beat" if down[i] else "up_beat"))
        del members[i]


def _induced_mobius(members, leq_pairs):
    """mobius_by_recursion on the subposet induced on members, keyed by
    pairs of positions in members."""
    index = {a: i for i, a in enumerate(members)}
    pairs = {(index[a], index[b]) for a, b in leq_pairs if a in index and b in index}
    return mobius_by_recursion(len(members), pairs)


def pushforward_by_definition(f, h):
    """At each codomain element x, the integral of h over the subposet
    induced on the preimage of x's prime ideal, as a list of Python ints."""
    dom_leq = reachability(f.domain.n, f.domain.covers)
    cod_leq = reachability(f.codomain.n, f.codomain.covers)
    out = []
    for x in range(f.codomain.n):
        members = [a for a in range(f.domain.n) if (f(a), x) in cod_leq]
        mu = _induced_mobius(members, dom_leq)
        out.append(sum(h[members[i]] * m for (i, _), m in mu.items()))
    return out


def chi_distinguished_by_definition(f):
    """True iff the preimage of every prime filter is non-empty and its
    induced subposet has Euler characteristic 1."""
    dom_leq = reachability(f.domain.n, f.domain.covers)
    cod_leq = reachability(f.codomain.n, f.codomain.covers)
    for x in range(f.codomain.n):
        members = [a for a in range(f.domain.n) if (x, f(a)) in cod_leq]
        if not members or sum(_induced_mobius(members, dom_leq).values()) != 1:
            return False
    return True


def chi_minimal_model_by_iteration(p, tie_break=None):
    """Remove chi-points one at a time, rebuilding the Moebius table of the
    surviving subposet after every removal; the chi-point least in the
    tie-break order goes first.  Returns (removal_sequence, mapping)."""
    order = list(range(p.n)) if tie_break is None else list(tie_break)
    rank = {x: i for i, x in enumerate(order)}
    members = list(range(p.n))
    leq = p.leq
    removal = []
    while members:
        mu = mobius_by_columns(leq)
        chi_above = 1 - mu.sum(axis=1)
        eligible = [i for i in range(len(members)) if chi_above[i] == 1]
        if not eligible:
            break
        i = min(eligible, key=lambda j: rank[members[j]])
        removal.append((members[i], "chi_point"))
        del members[i]
        leq = np.delete(np.delete(leq, i, axis=0), i, axis=1)
    return tuple(removal), tuple(members)


# ----------------------------------------------------------------------
# documents
# ----------------------------------------------------------------------


def document_by_entries(raw):
    """A parsed document object checked one entry at a time, in input
    order, as the ``ids``, ``labels``, ``covers``, ``functions``,
    ``targets`` and order matrix that ``PosetDocument.from_obj`` must
    give, or the error it must raise."""

    def expect(condition, message):
        if not condition:
            raise ParseError(message)

    def is_int(value):
        return isinstance(value, int) and not isinstance(value, bool)

    expect(isinstance(raw, dict), "document must be a JSON object")
    unknown = set(raw) - {"elements", "covers", "functions", "targets"}
    if unknown:
        raise ParseError(f"unknown document keys: {sorted(unknown)}")
    expect("elements" in raw, "document is missing 'elements'")
    expect("covers" in raw, "document is missing 'covers'")

    expect(isinstance(raw["elements"], list), "'elements' must be a list")
    ids, labels = [], {}
    for entry in raw["elements"]:
        expect(isinstance(entry, dict), "each element must be an object")
        extra = set(entry) - {"id", "label"}
        if extra:
            raise ParseError(f"unknown element keys: {sorted(extra)}")
        expect(is_int(entry.get("id")), "element ids must be integers")
        ids.append(entry["id"])
        if "label" in entry:
            expect(isinstance(entry["label"], str), "labels must be strings")
            labels[entry["id"]] = entry["label"]
    expect(len(set(ids)) == len(ids), "element ids must be unique")
    id_set = set(ids)

    expect(isinstance(raw["covers"], list), "'covers' must be a list")
    covers = []
    for pair in raw["covers"]:
        expect(
            isinstance(pair, list) and len(pair) == 2 and all(map(is_int, pair)),
            "each cover must be a [lower, upper] id pair",
        )
        if not (pair[0] in id_set and pair[1] in id_set):
            raise ParseError(f"cover {pair} references unknown ids")
        covers.append((pair[0], pair[1]))

    functions = {}
    if "functions" in raw:
        expect(isinstance(raw["functions"], dict), "'functions' must be an object")
        for name, table in raw["functions"].items():
            if not isinstance(table, dict):
                raise ParseError(f"function {name!r} must be an object")
            parsed = {}
            for key, value in table.items():
                if re.fullmatch(r"0|-?[1-9][0-9]*", key) is None:
                    raise ParseError(f"function {name!r} has a non-canonical id {key!r}")
                if not is_int(value):
                    raise ParseError(f"function {name!r} has a non-integer value at id {key}")
                if not -(2**63) <= value < 2**63:
                    raise ParseError(f"function {name!r} has a value outside int64 at id {key}")
                parsed[int(key)] = value
            if set(parsed) != id_set:
                raise ParseError(f"function {name!r} must assign a value to every element")
            functions[name] = parsed

    targets = None
    if "targets" in raw:
        expect(isinstance(raw["targets"], list), "'targets' must be a list")
        targets = []
        for entry in raw["targets"]:
            expect(isinstance(entry, dict), "each target must be an object")
            extra = set(entry) - {"node", "edge", "count"}
            if extra:
                raise ParseError(f"unknown target keys: {sorted(extra)}")
            count = entry.get("count", 1)
            expect(is_int(count) and count >= 1, "target count must be a positive integer")
            if "node" in entry:
                expect("edge" not in entry, "a target is a node or an edge, not both")
                if not (is_int(entry["node"]) and entry["node"] in id_set):
                    raise ParseError(f"target node {entry['node']} unknown")
                targets.append(("node", entry["node"], count))
            elif "edge" in entry:
                edge = entry["edge"]
                expect(
                    isinstance(edge, list) and len(edge) == 2 and all(map(is_int, edge)),
                    "target edge must be a [lower, upper] id pair",
                )
                if not (edge[0] in id_set and edge[1] in id_set):
                    raise ParseError(f"target edge {edge} references unknown ids")
                targets.append(("edge", (edge[0], edge[1]), count))
            else:
                raise ParseError("each target needs a 'node' or an 'edge'")
        targets = tuple(targets)

    ids = tuple(sorted(ids))
    covers = tuple(sorted(covers))
    dense = {doc: i for i, doc in enumerate(ids)}
    poset = Poset.from_covers(
        len(ids),
        [(dense[a], dense[b]) for a, b in covers],
        [labels.get(doc, str(doc)) for doc in ids],
    )  # raises CycleDetected on cyclic covers
    for kind, where, _count in targets or ():
        if kind == "edge" and (dense[where[0]], dense[where[1]]) not in poset.covers:
            raise ParseError(f"target edge {list(where)} is not a cover of the poset")
    return {
        "ids": ids,
        "labels": labels,
        "covers": covers,
        "functions": {name: functions[name] for name in sorted(functions)},
        "targets": targets,
        "leq": poset.leq,
    }


# ----------------------------------------------------------------------
# seeded generators
# ----------------------------------------------------------------------


def targets_by_spot_list(layer_sizes, density, target_count, seed):
    """The target positions of ``random_network``, drawn from an explicit
    list of every spot: the nodes in id order, then the covers sorted."""
    rng = random.Random(seed)
    starts = list(itertools.accumulate(layer_sizes, initial=0))
    layers = [range(a, b) for a, b in zip(starts, starts[1:])]
    covers = [
        (a, b)
        for lower, upper in zip(layers, layers[1:])
        for a in lower
        for b in upper
        if rng.random() < density
    ]
    poset = Poset.from_covers(starts[-1], covers)
    spots = [TargetPosition.at_node(x) for x in range(poset.n)]
    spots += [TargetPosition.on_edge(a, b) for a, b in sorted(poset.covers)]
    return sorted(spots[rng.randrange(len(spots))] for _ in range(target_count))


def random_poset(rng: random.Random, max_n=8, edge_prob=0.3, shuffle=False) -> Poset:
    n = rng.randint(0, max_n)
    ids = list(range(n))
    if shuffle:
        rng.shuffle(ids)
    covers = [
        (ids[i], ids[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < edge_prob
    ]
    return Poset.from_covers(n, covers)


def random_values(rng: random.Random, n, low=-5, high=5):
    return [rng.randint(low, high) for _ in range(n)]


def random_monotone_values(rng: random.Random, p: Poset, high=4):
    """Non-negative monotone values: accumulate increments along the order."""
    vals = [0] * p.n
    order = sorted(range(p.n), key=lambda x: int(p.leq[:, x].sum()))
    for x in order:
        floor = max(
            (vals[a] for a, b in p.covers if b == x),
            default=0,
        )
        vals[x] = floor + rng.randint(0, high)
    return vals


def random_order_preserving_image(rng: random.Random, dom: Poset, cod: Poset):
    """A random order-preserving image vector, or None when cod is empty."""
    if cod.n == 0:
        return [] if dom.n == 0 else None
    order = sorted(range(dom.n), key=lambda x: int(dom.leq[:, x].sum()))
    for _ in range(40):
        image = [0] * dom.n
        ok = True
        for x in order:
            lowers = [image[a] for a, b in dom.covers if b == x]
            allowed = [
                y
                for y in range(cod.n)
                if all(cod.leq[l, y] for l in lowers)
            ]
            if not allowed:
                ok = False
                break
            image[x] = rng.choice(allowed)
        if ok:
            return image
    # constant maps always preserve the order
    return [rng.randrange(cod.n)] * dom.n
