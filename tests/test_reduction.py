import random

import numpy as np
import pytest

import oracles
import posetzoo
from eulerscan import (
    Poset,
    are_isomorphic,
    chi_minimal_model,
    classify_points,
    core,
    is_contractible,
    random_network,
    reduction,
)
from eulerscan import poset as poset_module
from posetzoo import B2, B3


# ----------------------------------------------------------------------
# classification on the fixtures
# ----------------------------------------------------------------------


def test_trellis_has_no_beat_points(trellis):
    flags = classify_points(trellis)
    assert flags.beat_points() == frozenset()


def test_trellis_weak_down_beat_points(trellis):
    flags = classify_points(trellis)
    assert B2 in flags.weak_down_beat
    sub, _ = trellis.induced_subposet(trellis.up_set(B2, strict=True))
    assert is_contractible(sub)


def test_trellis_chi_points_brute_force(trellis):
    expected = set()
    for x in range(11):
        above = trellis.up_set(x, strict=True)
        sub, _ = trellis.induced_subposet(above)
        if sub.euler_characteristic() == 1:
            expected.add(x)
    assert expected == {B2, B3}
    assert classify_points(trellis).chi_point == frozenset({B2, B3})


def test_added_minimum_is_chi_point_but_not_weak(coned):
    flags = classify_points(coned)
    x = 5
    assert x in flags.chi_point
    assert x not in flags.weak_down_beat
    assert posetzoo.circle_plus_point().euler_characteristic() == 1


def test_flag_implication_chain_on_random_posets():
    rng = random.Random(21)
    for _ in range(150):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        flags = classify_points(p)
        assert flags.down_beat <= flags.weak_down_beat <= flags.chi_point
        assert flags.up_beat <= flags.weak_up_beat
        op_flags = classify_points(p.opposite())
        assert flags.up_beat == op_flags.down_beat
        assert flags.weak_up_beat == op_flags.weak_down_beat


def test_chi_point_flags_match_direct_route():
    rng = random.Random(22)
    for _ in range(120):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        flags = classify_points(p)
        for x in range(p.n):
            sub, _ = p.induced_subposet(p.up_set(x, strict=True))
            assert (sub.euler_characteristic() == 1) == (x in flags.chi_point)


def test_weak_flags_match_exhaustive_oracle():
    rng = random.Random(23)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=6)
        reach = oracles.reachability(p.n, p.covers)
        flags = classify_points(p)
        for x in range(p.n):
            above = set(p.up_set(x, strict=True))
            expect = bool(above) and oracles.contractible_exhaustive(above, reach)
            assert (x in flags.weak_down_beat) == expect


def test_weak_up_flags_match_exhaustive_oracle():
    rng = random.Random(20)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=6, shuffle=True)
        reach = oracles.reachability(p.n, p.covers)
        flags = classify_points(p)
        for x in range(p.n):
            below = set(p.down_set(x, strict=True))
            expect = bool(below) and oracles.contractible_exhaustive(below, reach)
            assert (x in flags.weak_up_beat) == expect


def test_beat_flags_match_definition_oracle():
    rng = random.Random(19)
    for _ in range(300):
        p = oracles.random_poset(
            rng, max_n=9, edge_prob=rng.choice((0.2, 0.3, 0.5)), shuffle=True
        )
        reach = oracles.reachability(p.n, p.covers)
        down, up = oracles.beat_points_by_definition(range(p.n), reach)
        flags = classify_points(p)
        assert flags.down_beat == down
        assert flags.up_beat == up


# ----------------------------------------------------------------------
# core
# ----------------------------------------------------------------------


def _core_by_definition(p, order):
    """Replay core's rule with the oracle's beat flags: least-ranked beat
    point first, recorded as down-beat when it is both."""
    reach = oracles.reachability(p.n, p.covers)
    rank = {x: i for i, x in enumerate(order)}
    members = set(range(p.n))
    removal = []
    while True:
        down, up = oracles.beat_points_by_definition(members, reach)
        if not down | up:
            return tuple(removal)
        x = min(down | up, key=rank.__getitem__)
        removal.append((x, "down_beat" if x in down else "up_beat"))
        members.remove(x)


def test_core_removal_sequence_matches_definition_replay():
    rng = random.Random(18)
    for _ in range(300):
        p = oracles.random_poset(
            rng, max_n=9, edge_prob=rng.choice((0.2, 0.3, 0.5)), shuffle=True
        )
        ascending = list(range(p.n))
        assert core(p).removal_sequence == _core_by_definition(p, ascending)
        shuffled = rng.sample(range(p.n), p.n)
        assert core(p, shuffled).removal_sequence == _core_by_definition(p, shuffled)


def test_chain_core_is_a_point():
    for k in (1, 2, 5, 8):
        report = core(posetzoo.chain(k))
        assert report.result.n == 1
        assert len(report.removal_sequence) == k - 1


def test_trellis_is_its_own_core(trellis):
    report = core(trellis)
    assert report.removal_sequence == ()
    assert report.result.order_identical(trellis)


def test_vee_is_contractible_with_minimum():
    # 0 < 1 and 0 < 2: both tops are up-beat (unique maximal element below)
    report = core(posetzoo.vee())
    assert report.result.n == 1
    assert is_contractible(posetzoo.vee())


def test_four_cycle_is_core():
    p = posetzoo.four_cycle()
    assert core(p).result.order_identical(p)
    assert not is_contractible(p)


def test_core_replay_and_no_remaining_beat_points():
    rng = random.Random(24)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        report = core(p)
        assert classify_points(report.result).beat_points() == frozenset()
        # replaying the removal sequence reproduces the result
        survivors = set(range(p.n)) - {x for x, _ in report.removal_sequence}
        replay, mapping = p.induced_subposet(sorted(survivors))
        assert mapping == report.mapping
        assert replay.order_identical(report.result)
        # reasons are accurate at removal time
        members = list(range(p.n))
        for x, reason in report.removal_sequence:
            sub, mapping = p.induced_subposet(members)
            flags = classify_points(sub)
            local = mapping.index(x)
            if reason == "down_beat":
                assert local in flags.down_beat
            else:
                assert local in flags.up_beat
            members.remove(x)


def test_trellis_cores_from_opposite_orders_are_isomorphic(trellis):
    ascending = core(trellis)
    descending = core(trellis, list(reversed(range(11))))
    assert are_isomorphic(ascending.result, descending.result)


def test_core_uniqueness_and_chi_preservation():
    rng = random.Random(25)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        orders = [None] + [rng.sample(range(p.n), p.n) for _ in range(4)]
        reports = [core(p, order) for order in orders]
        chi = p.euler_characteristic()
        for rep in reports:
            assert rep.result.euler_characteristic() == chi
        for a in reports:
            for b in reports:
                assert are_isomorphic(a.result, b.result)


@pytest.mark.parametrize("density", [0.02, 0.05, 0.1])
def test_core_matches_recompute_oracle_at_scale(density):
    # the cover matrix kept current strips exactly as re-deriving it does
    for widths in ([25] * 8, [50] * 6, [50] * 8):  # n = 200, 300, 400
        p = random_network(widths, density, 0, 1).poset
        for order in (list(range(p.n)), list(reversed(range(p.n)))):
            report = core(p, order)
            expect = oracles.strip_beat_points_by_recompute(p.leq, order)
            assert (report.removal_sequence, report.mapping) == expect
        assert is_contractible(p) == (len(expect[1]) == 1)


def test_chain_core_matches_recompute_oracle():
    p = posetzoo.chain(300)
    report = core(p)
    expect = oracles.strip_beat_points_by_recompute(p.leq, range(p.n))
    assert (report.removal_sequence, report.mapping) == expect
    assert is_contractible(p)


def test_one_cover_matrix_per_strip(monkeypatch):
    # the strip updates one matrix in place and derives none per removal
    sizes = []
    derive = poset_module._cover_matrix

    def counted(leq):
        sizes.append(leq.shape[0])
        return derive(leq)

    monkeypatch.setattr(poset_module, "_cover_matrix", counted)
    p = posetzoo.chain(50)
    assert is_contractible(p)
    assert sizes == []  # from_covers kept its matrix
    sub, _ = posetzoo.chain(60).induced_subposet(range(50))
    assert is_contractible(sub)
    assert sizes == [50]  # the subposet's slot, filled once
    assert reduction._contractible(sub._hasse().copy(), sub.leq)
    assert core(sub).result.n == 1
    assert sizes == [50]  # later strips read the held matrix


def test_covers_are_derived_only_where_no_maker_holds_them(monkeypatch):
    derive = poset_module._cover_matrix
    calls = []

    def counted(leq):
        calls.append(leq.shape[0])
        return derive(leq)

    monkeypatch.setattr(poset_module, "_cover_matrix", counted)
    # strict up- and down-sets are convex: their covers are slices
    for p in (posetzoo.trellis(), posetzoo.coned_circle_plus_point()):
        flags = classify_points(p)
        assert flags.chi_point - flags.beat_points()  # some sets were tested
        core(p).result.covers  # reads the strip's matrix, handed over
    assert calls == []

    zoo = [
        posetzoo.trellis(), posetzoo.circle_plus_point(),
        posetzoo.coned_circle_plus_point(), posetzoo.chain(5),
        posetzoo.antichain(0), posetzoo.antichain(3), posetzoo.diamond(),
        posetzoo.vee(), posetzoo.four_cycle(),
    ]
    networks = [random_network([6] * 5, 0.3, 0, seed).poset for seed in range(8)]
    networks.append(random_network([25] * 8, 0.05, 0, 1).poset)
    for p in zoo + networks:
        for order in (None, list(reversed(range(p.n)))):
            result = core(p, order).result
            held = result._hasse()
            assert not held.flags.writeable
            assert np.array_equal(held, derive(result.leq))  # outside the count
    assert calls == []


def test_reduction_leaves_the_order_and_covers_as_held():
    # the strip reads the order through its survivor mask and writes only
    # its own copy of the cover matrix
    nets = [random_network([25] * 8, d, 0, 1).poset for d in (0.02, 0.05, 0.1)]
    subs = [posetzoo.chain(60).induced_subposet(range(0, 60, 2))[0]]  # derived covers
    for p in [posetzoo.trellis(), posetzoo.coned_circle_plus_point()] + nets + subs:
        leq, held = p.leq.copy(), p._hasse()
        cov = held.copy()
        classify_points(p)
        core(p)
        core(p, list(reversed(range(p.n))))
        is_contractible(p)
        assert p._hasse() is held
        assert np.array_equal(p.leq, leq) and np.array_equal(held, cov)


# ----------------------------------------------------------------------
# contractibility
# ----------------------------------------------------------------------


def test_fence_above_b2_is_contractible(trellis):
    sub, _ = trellis.induced_subposet(trellis.up_set(B2, strict=True))
    assert is_contractible(sub)


def test_single_point_contractible_empty_not():
    assert is_contractible(posetzoo.antichain(1))
    assert not is_contractible(posetzoo.antichain(0))


def test_contractibility_matches_exhaustive_oracle():
    rng = random.Random(26)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=6)
        reach = oracles.reachability(p.n, p.covers)
        expect = p.n > 0 and oracles.contractible_exhaustive(range(p.n), reach)
        assert is_contractible(p) == expect


# ----------------------------------------------------------------------
# chi-minimal model
# ----------------------------------------------------------------------


def test_trellis_chi_model_removes_b2_then_b3(trellis):
    report = chi_minimal_model(trellis)
    assert report.removal_sequence == ((B2, "chi_point"), (B3, "chi_point"))
    assert report.result.n == 9
    assert B2 not in report.mapping and B3 not in report.mapping
    # nothing left to remove: all strict up-sets have chi 0 or 2, or are empty
    assert classify_points(report.result).chi_point == frozenset()


def test_poset_with_maximum_reduces_to_it():
    rng = random.Random(27)
    for _ in range(50):
        p = oracles.random_poset(rng, max_n=5)
        # adjoin a maximum above everything
        n = p.n + 1
        covers = list(p.covers) + [(x, p.n) for x in range(p.n)]
        q = Poset.from_covers(n, covers)
        report = chi_minimal_model(q, rng.sample(range(n), n))
        assert report.mapping == (p.n,)


def test_antichain_is_its_own_model():
    p = posetzoo.antichain(4)
    report = chi_minimal_model(p)
    assert report.removal_sequence == ()
    assert report.result.order_identical(p)


def test_chi_model_preserves_chi_at_every_step():
    rng = random.Random(28)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        report = chi_minimal_model(p)
        chi = p.euler_characteristic()
        members = list(range(p.n))
        for x, _ in report.removal_sequence:
            members.remove(x)
            assert p.chi_of(members) == chi
        assert report.result.euler_characteristic() == chi


def test_chi_model_matches_iteration_oracle():
    rng = random.Random(29)
    for _ in range(300):
        p = oracles.random_poset(rng, max_n=9, shuffle=True)
        canonical = chi_minimal_model(p)
        for order in (None, rng.sample(range(p.n), p.n)):
            report = chi_minimal_model(p, order)
            expect = oracles.chi_minimal_model_by_iteration(p, order)
            assert (report.removal_sequence, report.mapping) == expect
            assert report.mapping == canonical.mapping


def test_chi_model_matches_iteration_oracle_beyond_n60():
    # object-dtype Moebius tables, where the library reads one table
    rng = random.Random(30)
    removed = 0
    for seed in range(10):
        n, layers = rng.randint(61, 128), rng.randint(3, 8)
        widths = [n // layers + (k < n % layers) for k in range(layers)]
        p = random_network(widths, rng.uniform(0.05, 0.4), 0, seed).poset
        assert p.n == n
        for tie_break in (None, rng.sample(range(n), n)):
            report = chi_minimal_model(p, tie_break)
            expect = oracles.chi_minimal_model_by_iteration(p, tie_break)
            assert (report.removal_sequence, report.mapping) == expect
            removed += len(report.removal_sequence)
    assert removed > 0


def test_tie_break_must_be_total():
    with pytest.raises(ValueError):
        core(posetzoo.chain(3), tie_break=[0, 1])
