"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every check is exact integer equality; each criterion also carries a
wall-clock budget that is asserted, not just hoped for.
"""

import json
import os
import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

import posetzoo
from cliharness import DATA, GOLDEN, GOLDEN_COMMANDS, run_cli
from eulerscan import (
    NoiseSpec,
    PosetDocument,
    PosetFunction,
    PosetMap,
    are_isomorphic,
    chi_minimal_model,
    classify_points,
    core,
    corrupt,
    enumerate_reduced,
    enumerate_targets,
    indicator,
    integrate,
    integrate_excursion,
    is_ascending_closure_operator,
    is_chi_distinguished,
    is_contractible,
    pullback,
    pushforward,
    random_network,
    sensor_placement_plan,
)
from oracles import (
    all_filters,
    random_order_preserving_image,
    random_poset,
    random_values,
    reachability,
    solve_by_columns,
)
from posetzoo import B2, B3, T2, TRELLIS_H

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    on_time = elapsed < budget_seconds
    print(
        f"ACCEPTANCE {number:02d} {name}: "
        f"{'PASS' if on_time else 'FAIL'} ({elapsed:.2f}s)"
    )
    assert on_time, f"{name} took {elapsed:.2f}s, budget {budget_seconds}s"


def test_01_end_to_end_integral():
    with criterion(1, "trellis end-to-end integral", 1.0):
        p = posetzoo.trellis()
        h = PosetFunction(p, TRELLIS_H)
        levels = [
            p.chi_of([x for x in range(11) if TRELLIS_H[x] >= i]) for i in (1, 2, 3, 4)
        ]
        assert levels == [0, 2, 3, 1]
        assert integrate(h) == 6
        assert integrate_excursion(h) == 6


def test_02_beat_point_classification():
    with criterion(2, "beat-point classification", 1.0):
        p = posetzoo.trellis()
        flags = classify_points(p)
        assert flags.beat_points() == frozenset()
        assert B2 in flags.weak_down_beat
        above, _ = p.induced_subposet(p.up_set(B2, strict=True))
        assert is_contractible(above)


def test_03_chi_point_counterexample():
    with criterion(3, "chi-point that is not weak", 1.0):
        assert posetzoo.circle_plus_point().euler_characteristic() == 1
        hat = posetzoo.coned_circle_plus_point()
        flags = classify_points(hat)
        assert 5 in flags.chi_point
        assert 5 not in flags.weak_down_beat


def test_04_reduced_network():
    with criterion(4, "chi-minimal reduction and reduced count", 1.0):
        net = posetzoo.trellis_network()
        report = chi_minimal_model(net.poset)
        assert {x for x, _ in report.removal_sequence} == {B2, B3}
        reduced = enumerate_reduced(net)
        assert reduced.support.n == 6
        assert reduced.count == 6


def test_05_noise_immunity():
    with criterion(5, "noise immunity at chi-points", 5.0):
        net = posetzoo.trellis_network()
        for value in range(-100, 101):
            assert integrate(corrupt(net, NoiseSpec({B3: value}))) == 6
        rng = random.Random(1005)
        for _ in range(201):
            noise = NoiseSpec(
                {B2: rng.randint(-100, 100), B3: rng.randint(-100, 100)}
            )
            assert integrate(corrupt(net, noise)) == 6
        assert integrate(corrupt(net, NoiseSpec({T2: 3}))) == 5


def test_06_counting_at_scale():
    with criterion(6, "exact counts on 1000 random networks", 60.0):
        rng = random.Random(1006)
        for trial in range(1000):
            depth = rng.randint(1, 5)
            sizes = [rng.randint(1, 8) for _ in range(depth)]
            while sum(sizes) > 40:
                sizes[rng.randrange(depth)] = max(1, sizes[rng.randrange(depth)] - 3)
            count = rng.randint(0, 30)
            net = random_network(sizes, rng.uniform(0.1, 0.9), count, trial)
            assert enumerate_targets(net) == count
            assert enumerate_reduced(net).count == count


def test_07_oracle_agreement():
    with criterion(7, "Moebius/chain agreement and filter calculus", 60.0):
        rng = random.Random(1007)
        for _ in range(500):
            p = random_poset(rng, max_n=8, shuffle=True)
            mu = p.mobius().mu
            zeta = p.zeta()
            eye = np.eye(p.n, dtype=np.int64)
            assert np.array_equal(zeta @ mu, eye)
            assert np.array_equal(mu @ zeta, eye)
            assert p.euler_characteristic() == p.euler_characteristic_by_chains()
        for _ in range(60):
            p = random_poset(rng, max_n=7)
            reach = reachability(p.n, p.covers)
            filters = all_filters(p.n, reach)
            chi = {}
            for members in filters:
                chi[members] = p.chi_of(members)
                assert integrate(indicator(p, members)) == chi[members]
            for q1 in filters:
                for q2 in filters:
                    assert chi[q1 | q2] == chi[q1] + chi[q2] - chi[q1 & q2]


def test_08_transport_theorems():
    with criterion(8, "pushforward/pullback transport", 60.0):
        rng = random.Random(1008)

        done = 0
        while done < 500:  # pushforward preserves the integral
            dom = random_poset(rng, max_n=6)
            cod = random_poset(rng, max_n=6)
            image = random_order_preserving_image(rng, dom, cod)
            if image is None:
                continue
            f = PosetMap(dom, cod, image)
            h = PosetFunction(dom, random_values(rng, dom.n))
            assert integrate(pushforward(f, h)) == integrate(h)
            done += 1

        done = 0
        while done < 500:  # closure operators push forward to restrictions
            p = random_poset(rng, max_n=6, shuffle=True)
            if p.n == 0:
                continue
            image, members = _beat_retraction_composite(rng, p)
            assert is_ascending_closure_operator(PosetMap(p, p, image))
            sub, mapping = p.induced_subposet(members)
            onto = PosetMap(p, sub, [mapping.index(image[z]) for z in range(p.n)])
            h = PosetFunction(p, random_values(rng, p.n))
            assert pushforward(onto, h).values.tolist() == [h[x] for x in mapping]
            done += 1

        done = 0
        while done < 500:  # chi-distinguished pullback preserves the integral
            p = random_poset(rng, max_n=6, shuffle=True)
            chi_points = sorted(classify_points(p).chi_point)
            if not chi_points:
                continue
            x = rng.choice(chi_points)
            members = [y for y in range(p.n) if y != x]
            sub, mapping = p.induced_subposet(members)
            incl = PosetMap.inclusion(sub, p, mapping)
            assert is_chi_distinguished(incl)
            h = PosetFunction(p, random_values(rng, p.n))
            assert integrate(pullback(incl, h)) == integrate(h)
            done += 1

        done = 0
        while done < 500:  # dropping a single chi-point keeps the integral
            p = random_poset(rng, max_n=6, shuffle=True)
            chi_points = sorted(classify_points(p).chi_point)
            if not chi_points:
                continue
            x = rng.choice(chi_points)
            h = PosetFunction(p, random_values(rng, p.n))
            members = [y for y in range(p.n) if y != x]
            sub, mapping = p.induced_subposet(members)
            restricted = PosetFunction(sub, [h[y] for y in mapping])
            assert integrate(restricted) == integrate(h)
            done += 1


def _beat_retraction_composite(rng, p):
    image = list(range(p.n))
    members = list(range(p.n))
    for _ in range(rng.randint(0, p.n)):
        sub, mapping = p.induced_subposet(members)
        downs = sorted(classify_points(sub).down_beat)
        if not downs:
            break
        local = rng.choice(downs)
        above = [y for y in range(sub.n) if sub.leq[local, y] and y != local]
        mins = [m for m in above if not any(z != m and sub.leq[z, m] for z in above)]
        x, target = mapping[local], mapping[mins[0]]
        members.remove(x)
        image = [target if image[z] == x else image[z] for z in range(p.n)]
    return image, members


def test_09_core_uniqueness():
    with criterion(9, "core uniqueness across removal orders", 60.0):
        rng = random.Random(1009)
        for _ in range(200):
            p = random_poset(rng, max_n=7, shuffle=True)
            chi = p.euler_characteristic()
            reports = [core(p)] + [
                core(p, rng.sample(range(p.n), p.n)) for _ in range(4)
            ]
            for rep in reports:
                assert rep.result.euler_characteristic() == chi
            for a in reports:
                for b in reports:
                    assert are_isomorphic(a.result, b.result)


def test_10_cli_golden_files():
    with criterion(10, "CLI golden files and round trips", 10.0):
        for name, (expected_code, argv) in GOLDEN_COMMANDS.items():
            code, text = run_cli(*argv)
            assert code == expected_code, name
            assert text == (GOLDEN / name).read_text(encoding="utf-8"), name
            code2, text2 = run_cli(*argv)
            assert (code2, text2) == (code, text), name
        for fixture in (
            "trellis.json",
            "antichain3.json",
            "chain5.json",
            "coned_circle.json",
            "empty.json",
        ):
            text = (DATA / fixture).read_text(encoding="utf-8")
            doc = PosetDocument.from_text(text)
            assert doc.to_text() == text
            again = PosetDocument.from_text(doc.to_text())
            assert again.to_obj() == doc.to_obj()


def test_11_reduction_at_scale():
    with criterion(11, "classify_points and core at n=200", 10.0):
        p = random_network([25] * 8, 0.1, 0, 1).poset
        assert p.n == 200
        flags = classify_points(p)
        assert flags.down_beat <= flags.weak_down_beat <= flags.chi_point
        assert flags.up_beat <= flags.weak_up_beat
        assert (len(flags.weak_down_beat), len(flags.weak_up_beat)) == (45, 46)
        report = core(p)
        assert len(report.removal_sequence) == 66
        # the core has no beat point: no element has exactly one upper or
        # exactly one lower cover
        result = report.result
        uppers = [sum(a == x for a, _ in result.covers) for x in range(result.n)]
        lowers = [sum(b == x for _, b in result.covers) for x in range(result.n)]
        assert 1 not in uppers and 1 not in lowers


def test_12_chi_model_and_transport_at_scale():
    with criterion(12, "chi-minimal model, plan and pushforward at n=400", 5.0):
        net = random_network([50] * 8, 0.1, 40, 1)
        p = net.poset
        assert p.n == 400
        report = chi_minimal_model(p)
        assert len(report.removal_sequence) == 24
        assert sensor_placement_plan(p).members == frozenset(report.mapping)
        layers = posetzoo.chain(8)
        f = PosetMap(p, layers, [x // 50 for x in range(p.n)])
        assert integrate(pushforward(f, net.counting)) == 40


def test_13_chain_route_and_excursion_at_scale():
    with criterion(13, "excursion at n=1000 and chain route at n=2000", 20.0):
        net = random_network([125] * 8, 0.1, 200, 1)
        assert net.poset.n == 1000
        assert integrate_excursion(net.counting) == 200
        p = random_network([250] * 8, 0.1, 0, 1).poset
        assert p.n == 2000
        # criterion 14 gets the same value from the Moebius route
        assert p.euler_characteristic_by_chains() == 50068958991
        # and E, summed above, is the Moebius row sums R entry by entry
        assert p._chain_sums().tolist() == p._row_sums().tolist()


def test_14_cli_end_to_end_at_n2000(tmp_path):
    with criterion(14, "simulate, chi, integrate and reduce at n=2000", 45.0):
        layers = "x".join(["250"] * 8)
        code, text = run_cli(
            "simulate", "--layers", layers, "--density", "0.1", "--targets", "100",
            "--corrupt", "chi-points", "--seed", "1", "--json",
        )
        assert code == 0 and json.loads(text)["verdict"] == "pass"
        net = random_network([250] * 8, 0.1, 100, 1)
        assert net.poset.n == 2000
        path = tmp_path / "n2000.json"
        path.write_text(
            PosetDocument.from_parts(
                ids=range(net.poset.n),
                covers=net.poset.covers,
                functions={"h": dict(enumerate(net.counting.values.tolist()))},
            ).to_text()
        )
        code, text = run_cli("chi", "--input", path, "--json")
        results = json.loads(text)["results"]
        assert code == 0
        assert results["chi_mobius"] == results["chi_chains"] == 50068958991
        code, text = run_cli(
            "integrate", "--input", path, "--function", "h", "--route", "both",
            "--json",
        )
        results = json.loads(text)["results"]
        assert code == 0
        assert results["integral_mobius"] == results["integral_excursion"] == 100
        code, text = run_cli("reduce", "--input", path, "--mode", "chi", "--json")
        assert code == 0
        assert json.loads(text)["results"]["chi_after"] == 50068958991


def test_15_classify_points_at_n1000():
    with criterion(15, "classify_points at n=1000", 10.0):
        p = random_network([125] * 8, 0.02, 0, 1).poset
        assert p.n == 1000
        flags = classify_points(p)
        counts = [
            len(flags.down_beat),
            len(flags.up_beat),
            len(flags.weak_down_beat),
            len(flags.weak_up_beat),
            len(flags.chi_point),
        ]
        assert counts == [170, 185, 196, 216, 203]


def test_16_core_at_n2000():
    with criterion(16, "core of a 2000-chain and of a 2000-element network", 10.0):
        assert len(core(posetzoo.chain(2000)).removal_sequence) == 1999
        p = random_network([250] * 8, 0.02, 0, 1).poset
        assert p.n == 2000
        assert len(core(p).removal_sequence) == 121


def test_17_int64_chain_steps_at_n2000():
    net = random_network([250] * 8, 0.1, 200, 1)
    assert net.poset.n == 2000
    with criterion(17, "chain route and excursion at n=2000, chain counts only", 1.2):
        assert net.poset.euler_characteristic_by_chains() == 50068958991
        assert integrate_excursion(net.counting) == 200


def test_18_certified_moebius_table_at_n2000():
    p = random_network([250] * 8, 0.1, 0, 1).poset
    small = random_network([50] * 8, 0.1, 0, 1).poset
    assert (p.n, small.n) == (2000, 400)
    # references from the oracle's Python-int column recursion, which
    # shares no code with the library's level walk, outside the timed block
    rows = list(range(0, p.n, 97))
    exact_rows = solve_by_columns(p.leq, np.eye(p.n, dtype=np.int8)[rows])
    exact_small = solve_by_columns(small.leq, np.eye(small.n, dtype=np.int8))
    with criterion(18, "certified Moebius table at n=2000", 2.5):
        mu = p.mobius().mu
        assert np.array_equal(mu[rows], exact_rows)
        assert np.array_equal(small.mobius().mu, exact_small)
        assert mu.sum() == 50068958991


def test_19_cli_simulate_at_n4000():
    # the order is built by one walk down the Kahn levels, and the
    # subposets of the model and the support derive no covers
    with criterion(19, "simulate at n=4000", 5.0):
        code, text = run_cli(
            "simulate", "--layers", "x".join(["500"] * 8), "--density", "0.1",
            "--targets", "100", "--corrupt", "chi-points", "--seed", "1", "--json",
        )
        report = json.loads(text)
        assert code == 0 and report["verdict"] == "pass"
        assert report["results"]["nodes"] == 4000
        assert report["results"]["full_estimate"] == 100


def test_20_core_and_classification_at_n4000():
    p = random_network([500] * 8, 0.1, 0, 1).poset
    assert p.n == 4000
    # both read the cover matrix the poset kept from its covers
    with criterion(20, "core and classify_points at n=4000", 1.5):
        assert len(core(p).removal_sequence) == 0
        flags = classify_points(p)
        counts = [
            len(flags.down_beat),
            len(flags.up_beat),
            len(flags.weak_down_beat),
            len(flags.weak_up_beat),
            len(flags.chi_point),
        ]
        assert counts == [0, 0, 0, 0, 0]


def test_21_row_sums_transport_and_excursion_at_n4000():
    net = random_network([500] * 8, 0.1, 100, 1)
    p, h = net.poset, net.counting
    assert p.n == 4000
    identity = PosetMap.identity(p)
    # the three vector passes read the poset's one float64 operator,
    # wherever it was built first
    with criterion(21, "row sums, pushforward and excursion at n=4000", 0.5):
        row_sums = p._row_sums()
        pushed = pushforward(identity, h)
        total = integrate_excursion(h)
        assert sum(row_sums) == -67605188087253
        assert pushed == h  # along the identity, h itself
        assert total == 100
    assert p.euler_characteristic_by_chains() == -67605188087253


def test_22_simulate_memory_at_n4000():
    # criterion 19's run in a fresh interpreter, which prints its peak
    # resident memory: the reduced support reads the network's float64
    # operator (128 MB at n=4000) rather than building one of its own.
    # The peak is VmHWM, that of the interpreter's own address space:
    # Linux carries a parent's peak into ru_maxrss across fork and exec,
    # so ru_maxrss would read the size of the test process.
    probe = (
        "import sys\n"
        "from eulerscan.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "with open('/proc/self/status') as status:\n"
        "    peak = next(line for line in status if line.startswith('VmHWM:'))\n"
        "print(code, peak.split()[1])\n"
    )
    argv = [
        "simulate", "--layers", "x".join(["500"] * 8), "--density", "0.1",
        "--targets", "100", "--corrupt", "chi-points", "--seed", "1", "--json",
    ]
    with criterion(22, "simulate peak memory at n=4000", 10.0):
        out = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True, check=True,
        ).stdout
        *report, last = out.splitlines()
        code, peak_kib = map(int, last.split())
        assert code == 0 and json.loads("\n".join(report))["verdict"] == "pass"
        assert peak_kib < 270 * 1024, f"peak {peak_kib / 1024:.0f} MB"


def test_23_reduction_at_n4000_with_work():
    # constant mean degree (density x width = 3): unlike criterion 20's
    # network, this one has beat points and chi-points to remove
    net = random_network([500] * 8, 0.006, 100, 1)
    p = net.poset
    assert p.n == 4000 and len(p.covers) == 10575
    with criterion(23, "core and classify_points at n=4000 with removals", 3.0):
        report = core(p)
        assert len(report.removal_sequence) == 989 and report.result.n == 3011
        flags = classify_points(p)
        counts = [
            len(flags.down_beat),
            len(flags.up_beat),
            len(flags.weak_down_beat),
            len(flags.weak_up_beat),
            len(flags.chi_point),
        ]
        assert counts == [523, 519, 584, 577, 621]
    assert p.euler_characteristic() == 44749
    assert len(chi_minimal_model(p).removal_sequence) == 621
    code, text = run_cli(
        "simulate", "--layers", "x".join(["500"] * 8), "--density", "0.006",
        "--targets", "100", "--corrupt", "chi-points", "--seed", "1", "--json",
    )
    results = json.loads(text)["results"]
    assert code == 0 and results["nodes"] == 4000
    assert len(results["corrupted"]) == 621
    assert results["full_estimate"] == results["reduced_estimate"] == 100
    assert results["reduced_support_size"] == 1889
