import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import posetzoo
from eulerscan import (
    CycleDetected,
    Poset,
    SizeLimitExceeded,
    are_isomorphic,
    core,
    random_network,
)
from eulerscan import poset as poset_module
from eulerscan.poset import _cover_matrix, _levels, _mobius_solve
from posetzoo import B2, B3, M1, M2, M3, M4, T1, T2, T3, TRELLIS_COVERS


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------


COVER_CYCLE = "cover relation contains a directed cycle"


def test_two_element_chain():
    p = Poset.from_covers(2, [(0, 1)])
    assert p.less_equal(0, 1)
    assert not p.less_equal(1, 0)


def test_trellis_reachability_through_middle(trellis):
    assert trellis.less_equal(B3, T1)  # b3 < m2 < t1
    assert len(trellis.covers) == 16


def test_cycle_rejected():
    with pytest.raises(CycleDetected, match=f"^{COVER_CYCLE}$"):
        Poset.from_covers(2, [(0, 1), (1, 0)])
    with pytest.raises(CycleDetected):
        Poset.from_covers(1, [(0, 0)])


def test_cycle_detected_exactly_when_two_elements_reach_each_other():
    rng = random.Random(16)
    raised = 0
    for _ in range(400):
        n = rng.randint(2, 12)
        ids = rng.sample(range(n), n)
        density = rng.uniform(0.05, 0.5)
        pairs = [
            (ids[i], ids[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < density
        ]
        if rng.random() < 0.5:
            i, j = sorted(rng.sample(range(n), 2))
            pairs.append((ids[j], ids[i]))  # a back edge, cyclic iff i reaches j
        reach = oracles.reachability(n, pairs)
        cyclic = any(a != b and (b, a) in reach for a, b in reach)
        if cyclic:
            raised += 1
            with pytest.raises(CycleDetected, match="directed cycle"):
                Poset.from_covers(n, pairs)
        else:
            assert Poset.from_covers(n, pairs).n == n
    assert 50 < raised < 200


@pytest.mark.parametrize(
    "pairs, error, message",
    [
        ([(0, 1), (5, 6), (1, 1)], ValueError, "cover (5, 6) references ids outside 0..2"),
        ([(0, 1), (1, 1), (5, 6)], CycleDetected, "self-loop at element 1"),
        ([(0, 1), (-1, 2)], ValueError, "cover (-1, 2) references ids outside 0..2"),
        # out of range is named before a self-loop on the same pair
        ([(7, 7)], ValueError, "cover (7, 7) references ids outside 0..2"),
        ([(True, True)], CycleDetected, "self-loop at element 1"),
        (
            [(np.uint64(2**64 - 1), 0)],
            ValueError,
            "cover (18446744073709551615, 0) references ids outside 0..2",
        ),
        ([(0, 2**63)], ValueError, "cover (0, 9223372036854775808) references ids outside 0..2"),
        # ids are taken in input order: a bad pair before a float is named
        ([(5, 6), (0, 1.5)], ValueError, "cover (5, 6) references ids outside 0..2"),
        ([(0, 1.5), (5, 6)], TypeError, "'float' object cannot be interpreted as an integer"),
        ([("0", 1)], TypeError, "'str' object cannot be interpreted as an integer"),
        ([(0, 1, 2)], ValueError, "too many values to unpack (expected 2)"),
    ],
    ids=[
        "first-out-of-range", "first-self-loop", "negative", "out-of-range-loop",
        "bool-loop", "uint64", "past-int64", "range-before-float", "float-first",
        "string", "triple",
    ],
)
def test_cover_errors_name_the_first_bad_pair(pairs, error, message):
    with pytest.raises(error) as err:
        Poset.from_covers(3, pairs)
    assert str(err.value) == message


def test_cover_pairs_of_bools_generators_and_arrays_are_read_once():
    want = Poset.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert (want.covers, want.dropped_covers) == (frozenset({(0, 1), (1, 2)}), ((0, 2),))
    read = []

    def pairs():
        for pair in [(0, 1), (1, 2), (0, 2), (0, 1)]:
            read.append(pair)
            yield pair

    for given in (
        pairs(),
        [(False, True), (True, 2), (0, 2)],
        np.array([[0, 1], [1, 2], [0, 2]], dtype=np.uint8),
        [[0, 1], np.array([1, 2]), (np.int8(0), 2)],
    ):
        p = Poset.from_covers(3, given)
        assert (p.covers, p.dropped_covers) == (want.covers, want.dropped_covers)
        assert {type(x) for pair in p.covers for x in pair} == {int}
        assert np.array_equal(p.leq, want.leq)
    assert len(read) == 4


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64, np.int8])
def test_cover_arrays_build_what_the_pair_lists_build(dtype):
    rng = random.Random(29)
    for _ in range(80):
        n = rng.randint(0, 9)
        ids = rng.sample(range(n), n)
        pairs = [
            (ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.35
        ]
        pairs += rng.choices(pairs, k=2) if pairs else []  # duplicates
        rng.shuffle(pairs)
        want = Poset.from_covers(n, pairs)
        got = Poset.from_covers(n, np.array(pairs, dtype=dtype).reshape(-1, 2))
        assert np.array_equal(got.leq, want.leq)
        assert (got.covers, got.dropped_covers) == (want.covers, want.dropped_covers)
        levels = [level.tolist() for level in got._level_sets()]
        assert levels == [level.tolist() for level in want._level_sets()]


def test_an_int64_cover_array_is_taken_as_it_is():
    ends = np.array([[0, 1], [1, 2], [0, 2]], dtype=np.int64)
    assert poset_module._cover_ends(ends, 3) is ends
    assert Poset.from_covers(3, ends).dropped_covers == ((0, 2),)


BAD_COVER_ROWS = {
    "out-of-range": [(0, 1), (5, 6), (1, 1)],
    "self-loop": [(0, 1), (1, 1), (5, 6)],
    "first-of-two-out": [(2, 0), (7, 7), (1, 3)],
    "first-of-two-loops": [(1, 0), (2, 2), (0, 0)],
    "cycle": [(0, 1), (1, 2), (2, 0)],
    "negative": [(0, 1), (-1, 2), (3, 1)],
    "past-int64": [(0, 2**64 - 1), (4, 0)],
}


@pytest.mark.parametrize(
    "case, dtype",
    [
        (case, dtype)
        for case, pairs in BAD_COVER_ROWS.items()
        for dtype in (np.int64, np.int32, np.uint64)
        if np.iinfo(dtype).min <= min(map(min, pairs))
        and max(map(max, pairs)) <= np.iinfo(dtype).max
    ],
)
def test_a_bad_cover_row_raises_as_the_pair_list_does(case, dtype):
    pairs = BAD_COVER_ROWS[case]
    with pytest.raises((ValueError, CycleDetected)) as want:
        Poset.from_covers(3, pairs)
    with pytest.raises(want.type) as got:
        Poset.from_covers(3, np.array(pairs, dtype=dtype))
    assert str(got.value) == str(want.value)


def test_bool_cover_arrays_read_as_zero_and_one():
    want = Poset.from_covers(2, [(0, 1)])
    for given in (np.array([[False, True]]), [(False, True)]):
        p = Poset.from_covers(2, given)
        assert (p.covers, np.array_equal(p.leq, want.leq)) == (want.covers, True)
    for given in (np.array([[True, True]]), [(True, True)]):
        with pytest.raises(CycleDetected, match="^self-loop at element 1$"):
            Poset.from_covers(2, given)


def test_duplicate_covers_ignored():
    p = Poset.from_covers(2, [(0, 1), (0, 1)])
    assert p.covers == frozenset({(0, 1)})
    assert p.dropped_covers == ()


def test_transitively_implied_cover_dropped_with_flag():
    p = Poset.from_covers(3, [(0, 1), (1, 2), (0, 2)])
    assert p.covers == frozenset({(0, 1), (1, 2)})
    assert p.dropped_covers == ((0, 2),)


def test_bad_ids_rejected():
    with pytest.raises(ValueError):
        Poset.from_covers(2, [(0, 5)])


def test_order_primitives_reject_ids_out_of_range():
    p = posetzoo.chain(3)
    for call in (
        lambda: p.up_set(-1),
        lambda: p.down_set(-1, strict=True),
        lambda: p.less_equal(-1, 2),
        lambda: p.less_equal(0, -1),
        lambda: p.label(-1),
    ):
        with pytest.raises(ValueError, match="element id -1 out of range"):
            call()
    with pytest.raises(ValueError, match="element id 3 out of range"):
        p.up_set(3)
    with pytest.raises(ValueError, match="element id 3 out of range"):
        p.label(3)
    assert p.less_equal(np.int64(0), 2) and p.label(np.int64(2)) == "2"


MEMBER_SITES = {
    "chi_of": lambda p, s: p.chi_of(s),
    "induced_subposet": lambda p, s: p.induced_subposet(s),
    "is_filter": lambda p, s: p.is_filter(s),
}


@pytest.mark.parametrize("site", sorted(MEMBER_SITES))
@pytest.mark.parametrize(
    "kind",
    [list, np.int64, np.int8, np.uint64, object],
    ids=["list", "int64", "int8", "uint64", "object"],
)
def test_member_ids_raise_for_the_first_bad_id_in_input_order(site, kind):
    p = posetzoo.chain(3)
    call = MEMBER_SITES[site]

    def given(ids):
        return list(ids) if kind is list else np.array(ids, dtype=kind)

    cases = [([3, 0, 1], 3), ([0, 1, 7], 7), ([9, 0, 4], 9), ([2, 1, 5, 0, 6], 5)]
    if kind is not np.uint64:
        cases += [([-1, 0, 1], -1), ([0, 1, -2], -2), ([-3, 0, 3], -3), ([4, 0, -1], 4)]
    for ids, bad in cases:
        with pytest.raises(ValueError, match=f"^element id {bad} out of range$"):
            call(p, given(ids))
    # repeated and unsorted ids give the same subposet either way
    sub, mapping = p.induced_subposet(given([2, 0, 2]))
    assert mapping == (0, 2) and all(type(x) is int for x in mapping)
    assert sub.order_identical(posetzoo.chain(2))
    assert p.chi_of(given([2, 0, 2])) == 1 and p.is_filter(given([2, 1, 2]))
    assert p.induced_subposet(given([]))[1] == ()


def test_member_ids_of_bool_and_float_arrays_are_checked_one_by_one():
    p = posetzoo.chain(3)
    for ids in (np.array([True, False]), np.array([0.0, 1.0]), np.array([[0, 1]])):
        with pytest.raises(TypeError):
            p.chi_of(ids)
    with pytest.raises(ValueError, match="^element id 3 out of range$"):
        p.chi_of(np.array([0, 3], dtype=object))


# ----------------------------------------------------------------------
# up/down sets and filters
# ----------------------------------------------------------------------


def test_strict_up_set_of_b2(trellis):
    assert set(trellis.up_set(B2, strict=True)) == {M1, M3, T1, T2, T3}


def test_up_set_of_maximal_is_empty(trellis):
    assert len(trellis.up_set(T1, strict=True)) == 0


def test_up_set_nonstrict_of_minimum_is_everything():
    p = posetzoo.chain(3)
    assert set(p.up_set(0)) == {0, 1, 2}


def test_down_set_of_t2_oracle(trellis):
    reach = oracles.reachability(11, TRELLIS_COVERS)
    expected = {y for y in range(11) if (y, T2) in reach}
    assert set(trellis.down_set(T2)) == expected == {T2, M1, M2, M3, M4, 7, 8, 9, 10}


def test_down_set_strict_of_minimal_empty(trellis):
    assert len(trellis.down_set(7, strict=True)) == 0


def test_down_set_of_chain_top():
    p = posetzoo.chain(3)
    assert set(p.down_set(2)) == {0, 1, 2}


def test_is_filter(trellis):
    assert trellis.is_filter([T2])
    assert trellis.is_filter([B3, M2, M4, T1, T2, T3])  # the prime filter at b3
    assert set(trellis.up_set(B3)) == {B3, M2, M4, T1, T2, T3}
    assert not posetzoo.chain(2).is_filter([0])
    assert trellis.is_filter([])


# ----------------------------------------------------------------------
# induced subposets
# ----------------------------------------------------------------------


def test_induced_excursion_level_two(trellis):
    sub, mapping = trellis.induced_subposet([T1, T2, T3, M4])
    assert mapping == (T1, T2, T3, M4)
    # m4 sits under t2 and t3; t1 is isolated
    assert sub.covers == frozenset({(3, 1), (3, 2)})
    assert sub.euler_characteristic() == 2


def test_induced_empty(trellis):
    sub, mapping = trellis.induced_subposet([])
    assert sub.n == 0 and mapping == ()


def test_induced_skips_middle_of_chain():
    sub, mapping = posetzoo.chain(3).induced_subposet([0, 2])
    assert mapping == (0, 2)
    assert sub.covers == frozenset({(0, 1)})


def test_induced_subposet_ignores_repeated_ids():
    sub, mapping = posetzoo.chain(3).induced_subposet([0, 0, 1])
    assert mapping == (0, 1)
    assert sub.order_identical(posetzoo.chain(2))


def test_chi_of_ignores_repeated_ids():
    # a repeated id kept twice would put two copies of one element
    # strictly below each other, and the chain count would never reach
    # zero; a fresh interpreter with a timeout keeps such a loop out of
    # the suite
    probe = (
        "import posetzoo; p = posetzoo.chain(3); "
        "print(p.chi_of([0, 0]), p.chi_of([2, 0, 2]), p.is_filter([2, 2]))"
    )
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out == "1 1 True\n"


def test_induced_full_is_order_identical(trellis):
    sub, _ = trellis.induced_subposet(range(11))
    assert sub.order_identical(trellis)


# ----------------------------------------------------------------------
# Moebius and Euler characteristics
# ----------------------------------------------------------------------


def test_mobius_two_chain():
    table = posetzoo.chain(2).mobius()
    assert table[0, 0] == table[1, 1] == 1
    assert table[0, 1] == -1


def test_mobius_antichain_is_identity():
    mu = posetzoo.antichain(3).mobius().mu
    assert np.array_equal(mu, np.eye(3, dtype=np.int64))


def test_mobius_diamond_top():
    assert posetzoo.diamond().mobius()[0, 3] == 1  # -(1 - 1 - 1)


def test_mobius_tables_compare_by_identity():
    # each call builds a new table; ndarray fields cannot be compared as one
    p = posetzoo.diamond()
    table = p.mobius()
    assert table == table and table != p.mobius()
    assert len({table, table, p.mobius()}) == 2


def test_chi_antichain():
    assert posetzoo.antichain(3).euler_characteristic() == 3


def test_chi_of_support_level_one(trellis):
    sub, _ = trellis.induced_subposet([B3, M1, M2, M4, T1, T2, T3])
    assert sub.euler_characteristic() == 0  # a circle


def test_chi_circle_plus_point():
    assert posetzoo.circle_plus_point().euler_characteristic() == 1


def test_chains_route_small_chain():
    assert posetzoo.chain(3).euler_characteristic_by_chains() == 1  # 3 - 3 + 1


def test_chains_route_support_level_one_oracle(trellis):
    members = [B3, M1, M2, M4, T1, T2, T3]
    reach = oracles.reachability(11, TRELLIS_COVERS)
    counts = oracles.chains_by_length(members, reach)
    assert counts == {1: 7, 2: 11, 3: 4}
    sub, _ = trellis.induced_subposet(members)
    assert sub.euler_characteristic_by_chains() == 7 - 11 + 4 == 0


def test_chi_empty_poset():
    p = posetzoo.antichain(0)
    assert p.euler_characteristic() == 0
    assert p.euler_characteristic_by_chains() == 0


def test_row_sums_are_solved_once_and_shared_read_only(trellis):
    r = trellis._row_sums()
    assert trellis._row_sums() is r
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0] = 5
    ones = np.ones((1, trellis.n), dtype=object)
    reversed_order = Poset(trellis.n, None, trellis.leq.T)
    assert r.tolist() == _mobius_solve(reversed_order._operator(), ones)[0].tolist()
    assert trellis.euler_characteristic() == sum(r) == 1


def test_exact_object_arithmetic_above_int64_threshold():
    # 0 < 1 < 2 plus 58 dust: Moebius and zeta matrices hold Python ints
    # at every size, so there is no int64 threshold to cross at 61
    p = Poset.from_covers(61, [(0, 1), (1, 2)])
    assert p.mobius().mu.dtype == object
    assert p.euler_characteristic() == 61 - 3 + 1  # one chain, 58 points
    assert p.euler_characteristic() == p.euler_characteristic_by_chains()
    for q in (p, posetzoo.chain(3)):
        assert {type(v) for v in q.mobius().mu.flat} == {int}
        assert {type(v) for v in q.zeta().flat} == {int}


def test_both_chi_routes_exact_past_int64():
    # 40 layers of 3: 4**40 - 1 chains, far past int64; a chain picks a
    # non-empty set of layers and one element in each, so
    # chi = sum over k of -(-3)**k * C(40, k) = 1 - (1 - 3)**40
    p = posetzoo.ordinal_sum_of_antichains(40, 3)
    assert p.n == 120
    expect = 1 - (1 - 3) ** 40
    assert expect == -1099511627775
    assert p.euler_characteristic_by_chains() == expect
    assert p.chi_of(range(p.n)) == expect
    assert p.euler_characteristic() == expect
    # chi itself fits int64 above, so counts taken mod 2**64 could still
    # land on it; at 70 layers chi and mu leave int64 too
    p = posetzoo.ordinal_sum_of_antichains(70, 3)
    expect = 1 - 2**70
    assert p.euler_characteristic_by_chains() == p.chi_of(range(p.n)) == expect
    assert p.euler_characteristic() == expect
    assert p.mobius()[0, p.n - 1] == -(2**68)


def test_cover_matrix_matches_search_oracle():
    # the two-element intervals are the covers by definition: x < y with
    # no z strictly between, on the order found by depth-first search
    rng = random.Random(29)
    for n in [0, 1] + [rng.randint(2, 14) for _ in range(150)]:
        ids = rng.sample(range(n), n)
        density = rng.uniform(0.1, 0.7)
        arcs = [
            (ids[i], ids[j])
            for i in range(n) for j in range(i + 1, n) if rng.random() < density
        ]
        pairs = oracles.reachability(n, arcs)
        lt = {(x, y) for x, y in pairs if x != y}
        expect = {
            (x, y) for x, y in lt
            if not any((x, z) in lt and (z, y) in lt for z in range(n))
        }
        leq = np.zeros((n, n), dtype=bool)
        leq[tuple(zip(*pairs))] = True
        assert {tuple(pair) for pair in np.argwhere(_cover_matrix(leq)).tolist()} == expect
        assert Poset(n, None, leq).covers == expect


def test_closure_and_covers_match_boolean_products():
    rng = random.Random(17)
    for n in [0, 1, 2, 300] + [rng.randint(3, 90) for _ in range(30)]:
        ids = rng.sample(range(n), n)
        adj = np.zeros((n, n), dtype=bool)
        density = rng.uniform(0.02, 0.5)
        for i in range(n):
            for j in range(i + 1, n):
                adj[ids[i], ids[j]] = rng.random() < density
        reach = adj | np.eye(n, dtype=bool)
        while not np.array_equal(reach | (reach @ reach), reach):
            reach = reach | (reach @ reach)
        assert np.array_equal(oracles.closure_by_doubling(adj), reach)
        lt = reach & ~np.eye(n, dtype=bool)
        cov = lt & ~(lt @ lt)
        assert np.array_equal(_cover_matrix(reach), cov)
        # the one-walk build: order, kept and dropped pairs, levels
        pairs = [tuple(pair) for pair in np.argwhere(adj).tolist()]
        p = Poset.from_covers(n, pairs)
        assert np.array_equal(p.leq, reach)
        assert p.covers == {tuple(pair) for pair in np.argwhere(cov).tolist()}
        assert p.dropped_covers == tuple(sorted(set(pairs) - p.covers))
        assert [a.tolist() for a in p._level_sets()] == [a.tolist() for a in _levels(lt)]
        # R from the reversed held levels, and from a fresh pass on lt.T
        ones = np.ones((1, n), dtype=object)
        fresh = _mobius_solve(Poset(n, None, reach.T)._operator(), ones)[0]
        assert p._row_sums().tolist() == fresh.tolist()
        if n >= 2:
            a, b = np.argwhere(lt)[0].tolist() if lt.any() else (0, 1)
            with pytest.raises(CycleDetected, match=f"^{COVER_CYCLE}$"):
                Poset.from_covers(n, pairs + [(a, b), (b, a)])


# ----------------------------------------------------------------------
# the strict order as a float64 operator in level order
# ----------------------------------------------------------------------


def _check_operator(p):
    """p's operator against its order and against the oracle order built
    from its covers by search; returns it.  A root builds its own matrix;
    a subposet reads its root's through the positions of its members."""
    n = p.n
    op = p._operator()
    lt, pos, bounds = op.lt, op.pos.tolist(), op.bounds
    size = len(lt)
    assert p._operator() is op  # found once, then shared
    assert lt.dtype == np.float64 and lt.shape == (size, size)
    assert lt.flags.c_contiguous and not lt.flags.writeable
    assert len(set(pos)) == n and all(0 <= i < size for i in pos)
    assert bounds[0] == 0 and bounds[-1] == size
    assert all(s < e for s, e in zip(bounds, bounds[1:]))  # no empty level
    # strictly upper block-triangular: a level's columns have entries
    # only in the rows of earlier levels, so each level is an antichain
    for s, e in zip(bounds, bounds[1:]):
        assert not lt[s:, s:e].any()
    assert set(np.unique(lt).tolist()) <= {0.0, 1.0}
    if p._sub is None:
        assert op.keep is None and size == n
    else:
        root, ids = p._sub
        assert root._sub is None and lt is root._operator().lt
        assert pos == root._operator().pos[ids].tolist()
        assert op.keep.tolist() == [i in pos for i in range(size)]
    assert np.array_equal(lt[np.ix_(pos, pos)], p.leq & ~np.eye(n, dtype=bool))
    reach = oracles.reachability(n, p.covers)
    at, perm = sorted(pos), np.argsort(op.pos).tolist()  # the members in level order
    assert np.array_equal(lt[np.ix_(at, at)], oracles.strict_order_in(perm, reach))
    opposite = op.opposite()
    assert opposite.lt is lt and opposite.pos is op.pos and opposite.keep is op.keep
    assert opposite.dual and opposite.opposite().dual is False
    return op


def _operator_cases():
    rng = random.Random(41)
    zoo = [
        posetzoo.antichain(0), posetzoo.antichain(1), posetzoo.antichain(5),
        posetzoo.trellis(), posetzoo.chain(5), posetzoo.diamond(), posetzoo.vee(),
        posetzoo.four_cycle(), posetzoo.circle_plus_point(),
        posetzoo.coned_circle_plus_point(),
    ]
    shuffled = [oracles.random_poset(rng, max_n=9, shuffle=True) for _ in range(25)]
    plain = [Poset(q.n, None, q.leq.copy()) for q in shuffled[:8]]
    return zoo + shuffled + plain + [q.opposite() for q in zoo + shuffled[:8]]


@pytest.mark.parametrize("p", _operator_cases())
def test_operator_is_the_strict_order_in_level_order(p):
    op = _check_operator(p)
    # built from the Kahn levels, bottom first
    assert op.bounds == (0, *np.cumsum([len(a) for a in p._level_sets()]).tolist())
    assert np.argsort(op.pos).tolist() == [x for a in p._level_sets() for x in a.tolist()]


def test_subposets_and_cores_read_the_parent_matrix():
    rng = random.Random(43)
    parents = [posetzoo.trellis(), posetzoo.antichain(4)]
    parents += [oracles.random_poset(rng, max_n=9, shuffle=True) for _ in range(30)]
    parents += [
        random_network([rng.randint(1, 6) for _ in range(4)], 0.4, 0, seed).poset
        for seed in range(6)
    ]
    for p in parents:
        members = sorted(rng.sample(range(p.n), rng.randint(0, p.n)))
        plain = Poset(p.n, None, p.leq.copy())  # holds no levels
        held = Poset(p.n, None, p.leq.copy())
        held._operator()
        # from_covers holds its levels, the plain constructor nothing
        for q in (plain, p, held):
            for sub in (q.induced_subposet(members)[0], core(q).result):
                # the subposet records its root; its operator waits for a
                # reader and is then the root's matrix
                assert sub._op is None and sub._sub[0] is q
                _check_operator(sub)
                assert sub._op.lt is q._operator().lt
                assert sub._lv is None  # no Kahn pass
                fresh = Poset(sub.n, None, sub.leq.copy())
                _check_operator(fresh)
                assert sub._row_sums().tolist() == fresh._row_sums().tolist()
                chi = fresh.euler_characteristic()
                assert sub.euler_characteristic_by_chains() == chi


def test_operator_slot_is_published_once_and_built(monkeypatch):
    # A reader that stored a half-built operator could overwrite a racing
    # reader's built one and hand it out; so every write to the slot is
    # a built operator, exactly one per poset, subposets included, and
    # restricting writes nothing.
    slot, writes = Poset._op, []

    class Spy:
        def __get__(self, obj, cls=None):
            return self if obj is None else slot.__get__(obj, cls)

        def __set__(self, obj, value):
            if value is not None:
                writes.append((obj, value))
            slot.__set__(obj, value)

    monkeypatch.setattr(Poset, "_op", Spy())
    p = random_network([5, 6, 5, 4], 0.4, 0, 7).poset
    plain = Poset(p.n, None, p.leq.copy())
    sub = p.induced_subposet(range(0, p.n, 2))[0]
    subsub = sub.induced_subposet(range(0, sub.n, 3))[0]
    assert writes == []
    posets = (subsub, p, plain, sub)  # the first read builds its root's
    ops = [q._operator() for q in posets]
    assert [q._operator() for q in posets] == ops  # read again, written once
    assert len(writes) == len(posets)
    assert {id(q): value for q, value in writes} == {id(q): op for q, op in zip(posets, ops)}
    for op in ops:
        assert op.lt.dtype == np.float64 and not op.lt.flags.writeable
    assert ops[0].lt is ops[1].lt is ops[3].lt is not ops[2].lt


# ----------------------------------------------------------------------
# signed chain counts
# ----------------------------------------------------------------------


@pytest.mark.parametrize("p", _operator_cases())
def test_signed_chain_counts_match_enumeration(p):
    reach = oracles.reachability(p.n, p.covers)
    e = p._chain_sums()
    assert e.tolist() == oracles.chain_sums_by_enumeration(p.n, reach)
    assert all(type(v) is int for v in e.tolist())
    assert p.euler_characteristic_by_chains() == oracles.chi_by_chain_enumeration(
        range(p.n), reach
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_signed_chain_counts_equal_the_moebius_row_sums(seed):
    # P. Hall's theorem: two independent algorithms, one answer
    p = oracles.random_poset(random.Random(seed), max_n=10, shuffle=True)
    assert p._chain_sums().tolist() == p._row_sums().tolist()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 3),  # 0: a vector
    m=st.integers(0, 7),
    n=st.integers(0, 7),
    transposed=st.booleans(),
)
def test_product_tiers_agree_on_random_blocks(seed, rows, m, n, transposed):
    # a random 0/1 m x n block, or a transposed view of one, times integers
    rng = random.Random(seed)
    marks = [[rng.random() < 0.5 for _ in range(n)] for _ in range(m)]
    a = np.array(marks, dtype=np.float64).reshape(m, n)
    if transposed:
        a = np.ascontiguousarray(a.T).T
    shape = (m,) if rows == 0 else (rows, m)
    bound = 2**53 // max(m, 1)  # no sum of up to m entries reaches 2**53
    x = np.array([rng.randrange(-bound + 1, bound) for _ in range(int(np.prod(shape)))])
    x = x.reshape(shape)
    big = x.astype(object) * 2**70 + rng.choice([-1, 1]) * 2**63

    def by_hand(x):
        at = x.tolist() if rows else [x.tolist()]
        out = [[sum(r[k] for k in range(m) if marks[k][j]) for j in range(n)] for r in at]
        return out if rows else out[0]

    small = poset_module._product(x.astype(object), a)
    assert small.dtype == object and small.shape == shape[:-1] + (n,)
    assert small.tolist() == by_hand(x)
    floats = poset_module._product(x.astype(np.float64), a)
    assert floats.astype(np.int64).tolist() == by_hand(x)
    exact = poset_module._product(big, a)  # every entry past 2**63
    assert exact.tolist() == by_hand(big)
    assert all(type(v) is int for v in exact.ravel())


def test_held_chain_counts_are_read_only():
    p = posetzoo.trellis()
    e = p._chain_sums()
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[0] = 5
    assert p._chain_sums() is e


@pytest.mark.parametrize(
    "p, expect, python_steps",
    [
        # 2**53 - 1 chains in all: every step in float64
        (posetzoo.chain(53), [0] * 52 + [1], 0),
        # a point beside it brings the running sum to 2**53 exactly at the
        # last step, which then runs on Python ints
        (Poset.from_covers(54, [(i, i + 1) for i in range(52)]), [0] * 52 + [1, 1], 1),
        # the running sum first reaches 2**53 at the chains of 27 elements,
        # so the 28 steps from there on run on Python ints
        (posetzoo.chain(54), [0] * 53 + [1], 28),
        # 4**40 - 1 chains; an element of layer j has E = (-2)**(39 - j)
        # and chi is -(2**40 - 1), from step 12 on in Python ints
        (
            posetzoo.ordinal_sum_of_antichains(40, 3),
            [(-2) ** (39 - x // 3) for x in range(120)],
            28,
        ),
    ],
    ids=["chain-below", "chain-and-point-at", "chain-past", "layers-past"],
)
def test_signed_chain_counts_exact_across_2_53(monkeypatch, p, expect, python_steps):
    steps = []
    product = poset_module._product

    def counted(x, a):
        if x.dtype == object:  # a step on Python ints
            steps.append(1)
        return product(x, a)

    monkeypatch.setattr(poset_module, "_product", counted)
    e = p._chain_sums()
    assert e.tolist() == expect
    assert len(steps) == python_steps
    assert p.euler_characteristic_by_chains() == sum(expect)
    assert e.tolist() == p._row_sums().tolist()


def test_chi_of_layers_cut_from_forty():
    # an ordinal sum of m antichains of 3 has chi 1 - (-2)**m
    p = posetzoo.ordinal_sum_of_antichains(40, 3)
    assert p.euler_characteristic_by_chains() == -(2**40 - 1)
    assert p.chi_of(range(3, 120)) == 2**39 + 1
    assert p.chi_of(np.arange(60, 120)) == 1 - 2**20


# ----------------------------------------------------------------------
# opposite
# ----------------------------------------------------------------------


def test_opposite_chain():
    p = posetzoo.chain(2).opposite()
    assert p.covers == frozenset({(1, 0)})


def test_opposite_antichain_self_dual():
    p = posetzoo.antichain(3)
    assert p.opposite().order_identical(p)


def test_opposite_preserves_chi(trellis):
    assert trellis.opposite().euler_characteristic() == trellis.euler_characteristic() == 1
    assert np.array_equal(trellis.opposite().mobius().mu, trellis.mobius().mu.T)


# ----------------------------------------------------------------------
# isomorphism
# ----------------------------------------------------------------------


def test_isomorphic_relabelled_chain():
    p = posetzoo.chain(3)
    q = Poset.from_covers(3, [(2, 0), (0, 1)])  # 2 < 0 < 1
    assert are_isomorphic(p, q)


def test_chain_vs_antichain():
    assert not are_isomorphic(posetzoo.chain(3), posetzoo.antichain(3))


def test_size_limit():
    with pytest.raises(SizeLimitExceeded):
        are_isomorphic(posetzoo.antichain(13), posetzoo.antichain(13))


def test_isomorphism_on_shuffled_random_posets():
    rng = random.Random(5)
    for _ in range(40):
        p = oracles.random_poset(rng, max_n=7)
        ids = list(range(p.n))
        rng.shuffle(ids)
        q = Poset.from_covers(p.n, [(ids[a], ids[b]) for a, b in p.covers])
        assert are_isomorphic(p, q)


def test_non_isomorphic_same_signature_counts():
    # same size and cover count, different shape
    p = Poset.from_covers(4, [(0, 1), (2, 3)])
    q = Poset.from_covers(4, [(0, 1), (1, 2)])
    assert not are_isomorphic(p, q)


# ----------------------------------------------------------------------
# properties on seeded random posets
# ----------------------------------------------------------------------


def test_ordinal_sums_past_the_float_bound_fall_back_to_python_ints(monkeypatch):
    # chi = 1 - 2**70: the row sums leave float64's exact integers, so
    # the certificate fails and the level walk runs again on Python ints
    calls = []
    walk = poset_module._level_walk

    def counted(op, c):
        if c.dtype == object:
            calls.append(c.shape)
        return walk(op, c)

    monkeypatch.setattr(poset_module, "_level_walk", counted)
    p = posetzoo.ordinal_sum_of_antichains(70, 3)
    assert p.euler_characteristic() == 1 - 2**70
    assert calls == [(1, p.n)]
    small = posetzoo.ordinal_sum_of_antichains(20, 3)
    assert small.euler_characteristic() == 1 - (1 - 3) ** 20
    assert calls == [(1, p.n)]  # well inside 2**53: the float solve answered


def _calls_on_a_cycle(calls: str) -> str:
    """What each call prints on the trusted 3-element order with
    0 <= 1 <= 2 <= 1, held without covers, so a reader of the covers
    derives them from the order.  A route that never noticed the cycle
    could loop, so the probe runs in a fresh interpreter with a timeout."""
    probe = "\n".join([
        "import numpy as np",
        "from eulerscan import CycleDetected, Poset, core, is_contractible",
        "p = Poset(3, None, np.array([[1, 1, 1], [0, 1, 1], [0, 1, 1]], bool))",
        f"for call in ({calls}):",
        "    try:",
        "        print(call())",
        "    except CycleDetected as err:",
        "        print(type(err).__name__, err)",
    ])
    tests = pathlib.Path(__file__).resolve().parent
    return subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(tests.parent / "src")),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout


def test_moebius_route_raises_on_a_cycle_instead_of_spinning():
    # the plain constructor trusts its arguments; a level pass that met
    # no element free of unsolved lower ones would otherwise loop or
    # return a number
    out = _calls_on_a_cycle("p.euler_characteristic, p.mobius")
    line = "CycleDetected order relation contains a directed cycle\n"
    assert out == line * 2


def test_chain_route_raises_on_a_cycle_instead_of_spinning():
    # 1 < 2 < 1 < 2 ... is a strict chain of every length, so the chain
    # vector never empties; past n steps it can only be a cycle
    out = _calls_on_a_cycle("p.euler_characteristic_by_chains, lambda: p.chi_of([1, 2])")
    line = "CycleDetected order relation contains a directed cycle\n"
    assert out == line * 2


def test_cover_routes_raise_on_a_cycle_and_repr_still_answers():
    # the interval [1, 1] holds 1 and 2, so the cover count sees the
    # cycle; it would otherwise report covers (1, 2) and (2, 1), and the
    # strip would remove both as beat points
    out = _calls_on_a_cycle(
        "lambda: p.covers, lambda: core(p), lambda: is_contractible(p), p.__repr__"
    )
    line = "CycleDetected order relation contains a directed cycle\n"
    assert out == line * 3 + "Poset(n=3, cyclic)\n"


def test_zeta_mobius_inverse_and_route_agreement():
    rng = random.Random(11)
    for _ in range(300):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        mu = p.mobius().mu
        zeta = p.zeta()
        eye = np.eye(p.n, dtype=np.int64)
        assert np.array_equal(zeta @ mu, eye)
        assert np.array_equal(mu @ zeta, eye)
        assert p.euler_characteristic() == p.euler_characteristic_by_chains()


def test_mobius_matches_pairwise_recursion_oracle():
    rng = random.Random(12)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=7)
        reach = oracles.reachability(p.n, p.covers)
        expected = oracles.mobius_by_recursion(p.n, reach)
        mu = p.mobius().mu
        for (x, y), value in expected.items():
            assert mu[x, y] == value


def test_prime_filters_have_chi_one():
    rng = random.Random(13)
    for _ in range(100):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        op = p.opposite()
        for x in range(p.n):
            assert p.chi_of(p.up_set(x)) == 1
            assert op.chi_of(op.up_set(x)) == 1


def test_filter_inclusion_exclusion_exhaustive():
    rng = random.Random(14)
    for _ in range(25):
        p = oracles.random_poset(rng, max_n=6)
        reach = oracles.reachability(p.n, p.covers)
        filters = oracles.all_filters(p.n, reach)
        chi = {f: p.chi_of(f) for f in filters}
        for q1 in filters:
            for q2 in filters:
                assert chi[q1 | q2] == chi[q1] + chi[q2] - chi[q1 & q2]


def test_double_opposite_and_full_restriction_identity():
    rng = random.Random(15)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        assert p.opposite().opposite().order_identical(p)
        assert p.induced_subposet(range(p.n))[0].order_identical(p)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=0, max_value=7),
    data=st.data(),
)
def test_closure_invariants_hypothesis(n, data):
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = data.draw(st.lists(st.sampled_from(possible), max_size=12)) if possible else []
    p = Poset.from_covers(n, pairs)
    leq = p.leq
    assert all(leq[i, i] for i in range(n))
    reach = oracles.reachability(n, pairs)
    for i in range(n):
        for j in range(n):
            assert leq[i, j] == ((i, j) in reach)
            if i != j and leq[i, j]:
                assert not leq[j, i]
