import json
import random

import numpy as np
import pytest

import oracles
import posetzoo
from cliharness import DATA, run_cli
from eulerscan import (
    ImpossibleShape,
    NoiseSpec,
    Poset,
    PosetDocument,
    SensorNetwork,
    TargetPosition,
    TargetSet,
    are_isomorphic,
    classify_points,
    core,
    corrupt,
    counting_function,
    enumerate_reduced,
    enumerate_targets,
    integrate,
    is_contractible,
    random_network,
    sensor_placement_plan,
)
from eulerscan import poset as poset_module
from posetzoo import (
    B2,
    B3,
    T2,
    TRELLIS_H,
    TRELLIS_TARGETS_ALT,
)


# ----------------------------------------------------------------------
# counting functions
# ----------------------------------------------------------------------


def test_trellis_counting_function(trellis_net):
    assert trellis_net.counting.values.tolist() == TRELLIS_H


def test_no_targets_counts_zero(trellis):
    net = SensorNetwork(trellis, TargetSet.of([]))
    assert net.counting.values.tolist() == [0] * 11


def test_node_target_at_chain_minimum_seen_everywhere():
    p = posetzoo.chain(4)
    net = SensorNetwork(p, TargetSet.of([TargetPosition.at_node(0)]))
    assert net.counting.values.tolist() == [1, 1, 1, 1]


def test_target_validation(trellis):
    with pytest.raises(ValueError):
        SensorNetwork(trellis, TargetSet.of([TargetPosition.at_node(99)]))
    with pytest.raises(ValueError):
        # (b1, t1) is a 2-step relation, not a cover edge
        SensorNetwork(trellis, TargetSet.of([TargetPosition.on_edge(7, 0)]))


def test_counting_is_monotone_nonnegative_always():
    rng = random.Random(51)
    for _ in range(100):
        net = random_network([3, 4, 3], 0.5, rng.randint(0, 12), rng.randrange(10**6))
        assert net.counting.is_monotone()
        assert net.counting.is_nonnegative()


# ----------------------------------------------------------------------
# enumeration
# ----------------------------------------------------------------------


def test_trellis_enumerates_six(trellis_net):
    assert enumerate_targets(trellis_net) == 6


def test_empty_target_set(trellis):
    assert enumerate_targets(SensorNetwork(trellis, TargetSet.of([]))) == 0


def test_moved_targets_same_counting_same_count(trellis, trellis_net):
    alt = SensorNetwork(trellis, TargetSet.of(TRELLIS_TARGETS_ALT))
    assert alt.counting == trellis_net.counting
    assert enumerate_targets(alt) == 6


def test_rederived_placements_preserve_counting():
    # an edge target is seen exactly when its upper endpoint is, so moving
    # it to any other in-edge of that endpoint cannot change the readings
    rng = random.Random(52)
    moved_something = False
    for _ in range(60):
        net = random_network([3, 3, 3], 0.6, rng.randint(1, 10), rng.randrange(10**6))
        in_edges = {}
        for a, b in net.poset.covers:
            in_edges.setdefault(b, []).append((a, b))
        new_positions = []
        for pos in net.targets.positions:
            if pos.kind == "edge":
                choice = rng.choice(in_edges[pos.edge[1]])
                if choice != pos.edge:
                    moved_something = True
                new_positions.append(TargetPosition.on_edge(*choice))
            else:
                new_positions.append(pos)
        other = SensorNetwork(net.poset, TargetSet.of(new_positions))
        assert other.counting == net.counting
        assert enumerate_targets(other) == enumerate_targets(net) == len(net.targets)
    assert moved_something


# ----------------------------------------------------------------------
# corruption
# ----------------------------------------------------------------------


def test_corrupt_chi_point_is_harmless(trellis_net):
    assert integrate(corrupt(trellis_net, NoiseSpec({B3: 100}))) == 6


def test_corrupt_both_chi_points_is_harmless(trellis_net):
    rng = random.Random(53)
    for _ in range(50):
        noise = NoiseSpec({B2: rng.randint(-100, 100), B3: rng.randint(-100, 100)})
        assert integrate(corrupt(trellis_net, noise)) == 6


def test_corrupt_essential_node_is_visible(trellis_net):
    assert integrate(corrupt(trellis_net, NoiseSpec({T2: 3}))) == 5


def test_corrupt_validates_ids(trellis_net):
    with pytest.raises(ValueError):
        corrupt(trellis_net, NoiseSpec({42: 0}))


def test_noise_spec_random_is_seed_stable():
    a = NoiseSpec.random([1, 2, 3], seed=9)
    b = NoiseSpec.random([1, 2, 3], seed=9)
    assert a.corrupted == b.corrupted
    assert all(-100 <= v <= 100 for v in a.corrupted.values())


def test_noise_immunity_on_generated_networks():
    rng = random.Random(54)
    done = 0
    while done < 60:
        net = random_network([3, 3, 2], 0.5, rng.randint(0, 8), rng.randrange(10**6))
        chi_points = sorted(classify_points(net.poset).chi_point)
        if not chi_points:
            continue
        x = rng.choice(chi_points)
        noisy = corrupt(net, NoiseSpec({x: rng.randint(-100, 100)}))
        assert integrate(noisy) == len(net.targets)
        done += 1


# ----------------------------------------------------------------------
# reduced enumeration and placement
# ----------------------------------------------------------------------


def test_trellis_reduced_enumeration(trellis, trellis_net):
    red = enumerate_reduced(trellis_net)
    assert red.count == 6
    assert set(red.support_ids) == {0, 1, 2, 3, 4, 6}  # t1 t2 t3 m1 m2 m4
    assert red.support.n == 6
    # the reduced diagram induces exactly these six covers
    relabel = {x: i for i, x in enumerate(red.support_ids)}
    expected = {(3, 0), (4, 0), (3, 1), (4, 1), (6, 1), (6, 2)}
    assert red.support.covers == frozenset(
        (relabel[a], relabel[b]) for a, b in expected
    )


def test_reduced_on_poset_with_maximum():
    rng = random.Random(55)
    base = oracles.random_poset(rng, max_n=5)
    covers = list(base.covers) + [(x, base.n) for x in range(base.n)]
    from eulerscan import Poset

    p = Poset.from_covers(base.n + 1, covers)
    net = SensorNetwork(p, TargetSet.of([TargetPosition.at_node(0)]))
    red = enumerate_reduced(net)
    assert red.support_ids == (base.n,)
    assert red.count == net.counting[base.n] == 1


def test_reduced_empty_targets(trellis):
    red = enumerate_reduced(SensorNetwork(trellis, TargetSet.of([])))
    assert red.count == 0 and red.support.n == 0


def test_reduced_with_corrupted_readings(trellis_net):
    # corruption off the placement plan leaves the reduced route exact
    noisy = corrupt(trellis_net, NoiseSpec({B2: 55, B3: -7}))
    assert enumerate_reduced(trellis_net, readings=noisy).count == 6
    # readings must belong to the network's poset
    other = posetzoo.trellis_network()
    with pytest.raises(ValueError):
        enumerate_reduced(trellis_net, readings=other.counting)


def test_reduced_matches_full_for_several_tie_breaks():
    rng = random.Random(56)
    for _ in range(40):
        net = random_network([3, 4, 3], 0.5, rng.randint(0, 10), rng.randrange(10**6))
        n = net.poset.n
        for order in (None, list(reversed(range(n))), rng.sample(range(n), n)):
            assert enumerate_reduced(net, tie_break=order).count == len(net.targets)


def test_placement_plan_on_trellis(trellis):
    assert set(sensor_placement_plan(trellis)) == set(range(11)) - {B2, B3}


def test_placement_plan_contains_maximal_elements():
    rng = random.Random(57)
    for _ in range(40):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        plan = set(sensor_placement_plan(p))
        strict_above = (p.leq & ~np.eye(p.n, dtype=bool)).any(axis=1)
        maximal = {x for x in range(p.n) if not strict_above[x]}
        assert maximal <= plan


def test_placement_plan_antichain_is_everything():
    p = posetzoo.antichain(5)
    assert set(sensor_placement_plan(p)) == set(range(5))


# ----------------------------------------------------------------------
# the random generator itself
# ----------------------------------------------------------------------


def test_generator_is_deterministic():
    a = random_network([4, 4, 3], 0.5, 10, 7)
    b = random_network([4, 4, 3], 0.5, 10, 7)
    assert a.poset.covers == b.poset.covers
    assert a.targets == b.targets
    assert a.counting == b.counting


def test_generator_draws_the_targets_of_the_spot_list():
    rng = random.Random(59)
    for _ in range(40):
        sizes = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        count = rng.randint(0, 30) if sum(sizes) else 0
        density, seed = rng.uniform(0, 1), rng.randrange(10**6)
        net = random_network(sizes, density, count, seed)
        want = oracles.targets_by_spot_list(sizes, density, count, seed)
        assert list(net.targets.positions) == want


def test_simulate_derives_no_covers_for_the_model_or_the_support(monkeypatch):
    # the chi-minimal model and the reduced support are induced subposets
    # whose covers no step of simulate reads
    derived, subposets = [], []
    derive = poset_module._cover_matrix
    restrict = Poset.induced_subposet

    def counted(leq):
        derived.append(leq.shape[0])
        return derive(leq)

    def recorded(self, s):
        sub, mapping = restrict(self, s)
        subposets.append(sub)
        return sub, mapping

    monkeypatch.setattr(poset_module, "_cover_matrix", counted)
    monkeypatch.setattr(Poset, "induced_subposet", recorded)
    code, text = run_cli(
        "simulate", "--layers", "6x6x6x6", "--density", "0.3", "--targets", "20",
        "--corrupt", "chi-points", "--seed", "3", "--json",
    )
    assert code == 0 and json.loads(text)["verdict"] == "pass"
    assert len(subposets) == 2  # the model, then the support
    assert all(sub._cov is None for sub in subposets)
    assert derived == []  # the network's poset kept the matrix of its covers


def test_readers_of_the_covers_share_the_poset_cover_matrix(monkeypatch):
    derived = []
    derive = poset_module._cover_matrix

    def counted(leq):
        derived.append(leq.shape[0])
        return derive(leq)

    monkeypatch.setattr(poset_module, "_cover_matrix", counted)
    net = random_network([5, 5, 5, 5], 0.4, 30, 7)
    p = net.poset
    assert any(pos.kind == "edge" for pos in net.targets.positions)
    core(p)
    classify_points(p)
    is_contractible(p)
    assert are_isomorphic(posetzoo.trellis(), posetzoo.trellis())
    counting_function(p, net.targets)
    doc = PosetDocument.from_text((DATA / "trellis.json").read_text())
    assert any(kind == "edge" for kind, _, _ in doc.targets)
    # classify_points slices each strict up- or down-set it tests for
    # contractibility from the held matrix, so nothing is derived
    assert derived == []

    sub, _ = p.induced_subposet(range(0, p.n, 2))
    sub.covers
    core(sub).result.covers
    classify_points(sub)
    assert derived == [sub.n]  # the subposet's slot, filled once


def test_generator_zero_targets():
    net = random_network([2, 2], 1.0, 0, 1)
    assert net.counting.values.tolist() == [0, 0, 0, 0]


def test_generator_counts_are_exact():
    rng = random.Random(58)
    for _ in range(200):
        count = rng.randint(0, 15)
        net = random_network([4, 4, 3], rng.uniform(0, 1), count, rng.randrange(10**6))
        assert enumerate_targets(net) == count == len(net.targets)


def test_generator_validation():
    with pytest.raises(ImpossibleShape):
        random_network([0, 0], 0.5, 3, 1)
    with pytest.raises(ValueError):
        random_network([], 0.5, 0, 1)
    with pytest.raises(ValueError):
        random_network([2], 1.5, 0, 1)
    with pytest.raises(ValueError):
        random_network([2], 0.5, -1, 1)
    # no nodes and no targets is a legal degenerate network
    assert enumerate_targets(random_network([0], 0.5, 0, 1)) == 0
