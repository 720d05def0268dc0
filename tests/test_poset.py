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
from eulerscan import CycleDetected, Poset, SizeLimitExceeded, are_isomorphic
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
    lt = trellis.leq & ~np.eye(trellis.n, dtype=bool)
    ones = np.ones((1, trellis.n), dtype=object)
    assert r.tolist() == _mobius_solve(trellis.leq.T, ones, _levels(lt.T))[0].tolist()
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


def _ordinal_sum_of_antichains(layers, width):
    covers = [
        (k * width + i, (k + 1) * width + j)
        for k in range(layers - 1)
        for i in range(width)
        for j in range(width)
    ]
    return Poset.from_covers(layers * width, covers)


def test_both_chi_routes_exact_past_int64():
    # 40 layers of 3: 4**40 - 1 chains, far past int64; a chain picks a
    # non-empty set of layers and one element in each, so
    # chi = sum over k of -(-3)**k * C(40, k) = 1 - (1 - 3)**40
    p = _ordinal_sum_of_antichains(40, 3)
    assert p.n == 120
    expect = 1 - (1 - 3) ** 40
    assert expect == -1099511627775
    assert p.euler_characteristic_by_chains() == expect
    assert p.chi_of(range(p.n)) == expect
    assert p.euler_characteristic() == expect
    # chi itself fits int64 above, so counts taken mod 2**64 could still
    # land on it; at 70 layers chi and mu leave int64 too
    p = _ordinal_sum_of_antichains(70, 3)
    expect = 1 - 2**70
    assert p.euler_characteristic_by_chains() == p.chi_of(range(p.n)) == expect
    assert p.euler_characteristic() == expect
    assert p.mobius()[0, p.n - 1] == -(2**68)


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
        fresh = _mobius_solve(reach.T, ones, _levels(lt.T))[0]
        assert p._row_sums().tolist() == fresh.tolist()
        if n >= 2:
            a, b = np.argwhere(lt)[0].tolist() if lt.any() else (0, 1)
            with pytest.raises(CycleDetected, match=f"^{COVER_CYCLE}$"):
                Poset.from_covers(n, pairs + [(a, b), (b, a)])


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
    # the certificate fails and the Python-int recursion answers
    calls = []
    exact = poset_module._solve_exact

    def counted(*args):
        calls.append(args[2].shape)
        return exact(*args)

    monkeypatch.setattr(poset_module, "_solve_exact", counted)
    p = _ordinal_sum_of_antichains(70, 3)
    assert p.euler_characteristic() == 1 - 2**70
    assert calls == [(1, p.n)]
    small = _ordinal_sum_of_antichains(20, 3)
    assert small.euler_characteristic() == 1 - (1 - 3) ** 20
    assert calls == [(1, p.n)]  # well inside 2**53: the float solve answered


def _calls_on_a_cycle(calls: str) -> str:
    """What each call prints on the trusted 3-element order with
    0 <= 1 <= 2 <= 1.  A route that never noticed the cycle could loop,
    so the probe runs in a fresh interpreter with a timeout."""
    probe = "\n".join([
        "import numpy as np",
        "from eulerscan import CycleDetected, Poset",
        "p = Poset(3, frozenset(), np.array([[1, 1, 1], [0, 1, 1], [0, 1, 1]], bool))",
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
