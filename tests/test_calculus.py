import inspect
import json
import random
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerscan
import oracles
import posetzoo
from eulerscan import (
    FilterLinearForm,
    NegativeValues,
    NoiseSpec,
    NotMonotone,
    NotOrderPreserving,
    Poset,
    PosetDocument,
    PosetFunction,
    PosetMap,
    SensorNetwork,
    TargetPosition,
    TargetSet,
    chi_minimal_model,
    classify_points,
    core,
    corrupt,
    counting_function,
    enumerate_reduced,
    indicator,
    integrate,
    integrate_excursion,
    is_ascending_closure_operator,
    is_chi_distinguished,
    mobius_coefficients,
    pullback,
    pushforward,
    random_network,
)
from cliharness import DATA, GOLDEN, run_cli
from eulerscan.poset import (
    ElementSet,
    _exact_dot,
    _Operator,
    _mobius_solve,
)
from posetzoo import B2, B3, M1, M2, M4, T1, T2, T3, TRELLIS_H


def trellis_h(p):
    return PosetFunction(p, TRELLIS_H)


# ----------------------------------------------------------------------
# indicators and filter linear forms
# ----------------------------------------------------------------------


def test_indicator_full_and_empty(trellis):
    assert indicator(trellis, range(11)).values.tolist() == [1] * 11
    assert indicator(trellis, []).values.tolist() == [0] * 11


def test_indicator_prime_filter(trellis):
    ones = {x for x, v in enumerate(indicator(trellis, trellis.up_set(B3)).values) if v}
    assert ones == {B3, 4, 6, 0, 1, 2}


def test_form_rejects_non_filters(trellis):
    with pytest.raises(ValueError):
        FilterLinearForm(trellis, ((1, trellis.subset({B3})),))


def test_coefficients_of_prime_filter_indicator(trellis):
    form = mobius_coefficients(indicator(trellis, trellis.up_set(B3)))
    assert len(form.terms) == 1
    coeff, q = form.terms[0]
    assert coeff == 1 and q.members == trellis.up_set(B3).members


def test_coefficients_on_two_chain():
    p = posetzoo.chain(2)
    form = mobius_coefficients(PosetFunction(p, [0, 1]))
    assert [(c, sorted(q.members)) for c, q in form.terms] == [(1, [1])]


def test_trellis_coefficient_sum_is_six(trellis):
    form = mobius_coefficients(trellis_h(trellis))
    assert form.coefficient_sum() == 6
    assert form.evaluate() == trellis_h(trellis)
    assert form.integral() == 6


def test_coefficients_reproduce_random_functions():
    rng = random.Random(31)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        form = mobius_coefficients(h)
        assert form.evaluate() == h
        assert form.integral() == integrate(h)


def test_coefficients_are_exact_beyond_int64():
    p = posetzoo.chain(2)
    h = PosetFunction(p, [2**62, -(2**62) - 5])
    form = mobius_coefficients(h)
    assert [c for c, _ in form.terms] == [2**62, -(2**63) - 5]
    assert form.coefficient_sum() == integrate(h) == -(2**62) - 5
    assert form.evaluate() == h
    assert form.integral() == integrate(h)


def test_form_coefficients_are_python_ints():
    p = posetzoo.antichain(1)
    form = FilterLinearForm(p, ((np.int64(2**62), p.up_set(0)),) * 3)
    assert [type(c) for c, _ in form.terms] == [int] * 3
    assert form.integral() == form.coefficient_sum() == 3 * 2**62


def test_evaluate_raises_when_the_sum_leaves_int64():
    p = posetzoo.antichain(1)
    form = FilterLinearForm(p, ((2**62, p.up_set(0)), (2**62, p.up_set(0))))
    with pytest.raises(OverflowError):
        form.evaluate()


# ----------------------------------------------------------------------
# function arithmetic
# ----------------------------------------------------------------------


# each builds an int64 array of one value per element of a 2-chain
VALUE_INTAKES = {
    "function": lambda v: PosetFunction(posetzoo.chain(2), v).values,
    "map": lambda v: PosetMap(posetzoo.chain(2), posetzoo.chain(2), v).image,
}


@pytest.mark.parametrize("intake", sorted(VALUE_INTAKES))
def test_values_are_taken_as_whole_arrays_or_one_by_one(intake):
    build = VALUE_INTAKES[intake]
    given = np.array([0, 1], dtype=np.int32)
    arr = build(given)
    assert arr.dtype == np.int64 and arr.tolist() == [0, 1]
    assert given.flags.writeable  # a copy was frozen, not the caller's array
    assert build([True, False]).tolist() == [1, 0]
    with pytest.raises(TypeError):
        build(np.array([True, False]))
    with pytest.raises(OverflowError):
        build(np.array([2**63, 0], dtype=np.uint64))
    with pytest.raises(OverflowError):  # as np.array would make it float64
        build([-1, 2**63])


def test_arithmetic_raises_instead_of_wrapping():
    h = PosetFunction(posetzoo.antichain(2), [2**62, 1])
    with pytest.raises(OverflowError):
        h + h  # int64 would give -2**63
    with pytest.raises(OverflowError):
        4 * h  # int64 would give 0
    with pytest.raises(OverflowError):
        h - (-2) * h
    low = PosetFunction(h.parent, [-(2**63), 0])
    with pytest.raises(OverflowError):
        -1 * low
    assert (h + (-1) * h).values.tolist() == [0, 0]
    assert (low - (-1) * h).values.tolist() == [-(2**62), 1]


CHAIN3 = posetzoo.chain(3)  # 0 < 1 < 2
NET3 = random_network([3], 0, 0, 1)
# each site takes an integer argument v
INTEGER_SITES = {
    "from_covers": lambda v: Poset.from_covers(3, [(v, 2)]),
    "subset": lambda v: CHAIN3.subset([v]),
    "member_list": lambda v: CHAIN3.chi_of([0, v]),
    "less_equal": lambda v: CHAIN3.less_equal(v, 2),
    "up_set": lambda v: CHAIN3.up_set(v),
    "down_set": lambda v: CHAIN3.down_set(v, strict=True),
    "label": lambda v: CHAIN3.label(v),
    "element_set_member": lambda v: ElementSet(CHAIN3, frozenset({v})),
    "function_values": lambda v: PosetFunction(CHAIN3, [0, v, 2]),
    "function_key": lambda v: PosetFunction.from_dict(CHAIN3, {0: 0, v: 1, 2: 2}),
    "with_value": lambda v: PosetFunction(CHAIN3, [0, 1, 2]).with_value(1, v),
    "scalar": lambda v: PosetFunction(CHAIN3, [0, 1, 2]).__rmul__(v),
    "map_image": lambda v: PosetMap(CHAIN3, CHAIN3, [0, v, 2]),
    "form_coefficient": lambda v: FilterLinearForm(
        CHAIN3, ((v, CHAIN3.up_set(1)),)
    ).evaluate(),
    "form_integral": lambda v: FilterLinearForm(
        CHAIN3, ((v, CHAIN3.up_set(1)),)
    ).integral(),
    "form_coefficient_sum": lambda v: FilterLinearForm(
        CHAIN3, ((v, CHAIN3.up_set(1)),)
    ).coefficient_sum(),
    "document_id": lambda v: PosetDocument.from_parts(ids=[0, v]),
    "document_cover": lambda v: PosetDocument.from_parts(ids=[0, 1], covers=[(0, v)]),
    "document_function_key": lambda v: PosetDocument.from_parts(
        ids=[0, 1], functions={"h": {0: 0, v: 1}}
    ),
    "document_function_value": lambda v: PosetDocument.from_parts(
        ids=[0, 1], functions={"h": {0: 0, 1: v}}
    ),
    "target_node": lambda v: TargetPosition.at_node(v),
    "target_edge": lambda v: TargetPosition.on_edge(0, v),
    "target_position": lambda v: TargetPosition("node", v),
    "noise_ids": lambda v: NoiseSpec.random([v], seed=1),
    "corrupt_element": lambda v: corrupt(NET3, NoiseSpec({v: 0})),
    "corrupt_value": lambda v: corrupt(NET3, NoiseSpec({0: v})),
    "tie_break": lambda v: core(CHAIN3, [0, v, 2]),
}


@pytest.mark.parametrize(
    "value", [1.0, np.float64(1.0), "1"], ids=["float", "np.float64", "str"]
)
@pytest.mark.parametrize("site", sorted(INTEGER_SITES))
def test_integer_arguments_are_checked_not_truncated(site, value):
    INTEGER_SITES[site](1)  # the integer itself is accepted
    with pytest.raises(TypeError):
        INTEGER_SITES[site](value)


# each site takes an element id v of CHAIN3
NEGATIVE_ID_SITES = {
    "from_covers": lambda v: Poset.from_covers(3, [(v, 2)]),
    "element_set": lambda v: ElementSet(CHAIN3, frozenset({v})),
    "subset": lambda v: CHAIN3.subset([v]),
    "member_list": lambda v: CHAIN3.chi_of([0, v]),
    "indicator": lambda v: indicator(CHAIN3, [v]),
    "less_equal": lambda v: CHAIN3.less_equal(v, 2),
    "up_set": lambda v: CHAIN3.up_set(v),
    "down_set": lambda v: CHAIN3.down_set(v, strict=True),
    "label": lambda v: CHAIN3.label(v),
    "mobius_row": lambda v: CHAIN3.mobius()[v, 2],
    "mobius_column": lambda v: CHAIN3.mobius()[0, v],
    "function_getitem": lambda v: PosetFunction(CHAIN3, [5, 6, 7])[v],
    "with_value": lambda v: PosetFunction(CHAIN3, [0, 1, 2]).with_value(v, 1),
    "map_image": lambda v: PosetMap(CHAIN3, CHAIN3, [0, v, 2]),
    "map_call": lambda v: PosetMap.identity(CHAIN3)(v),
    "target_node": lambda v: counting_function(
        CHAIN3, TargetSet.of([TargetPosition.at_node(v)])
    ),
    "target_edge": lambda v: counting_function(
        CHAIN3, TargetSet.of([TargetPosition.on_edge(v, 2)])
    ),
}


@pytest.mark.parametrize("value", [-1, -2, -3, 3])
@pytest.mark.parametrize("site", sorted(NEGATIVE_ID_SITES))
def test_element_ids_outside_the_poset_raise_instead_of_wrapping(site, value):
    NEGATIVE_ID_SITES[site](1)  # a valid id is accepted
    with pytest.raises(ValueError):
        NEGATIVE_ID_SITES[site](value)


# the entries above that exercise each public callable taking a parameter
# named like an element id
ID_PARAMETERS = {"x", "y", "node", "lower", "upper", "pair"}
ID_PARAMETER_SITES = {
    "MobiusTable.__getitem__": ("mobius_row", "mobius_column"),
    "Poset.label": ("label",),
    "Poset.less_equal": ("less_equal",),
    "Poset.up_set": ("up_set",),
    "Poset.down_set": ("down_set",),
    "PosetFunction.__getitem__": ("function_getitem",),
    "PosetFunction.with_value": ("with_value",),
    "PosetMap.__call__": ("map_call",),
    "TargetPosition.__init__": ("target_position",),
    "TargetPosition.at_node": ("target_node",),
    "TargetPosition.on_edge": ("target_edge",),
}


def _public_callables():
    """(qualified name, function) for every function in ``eulerscan.__all__``
    and every public method, constructor, call and item access of its
    classes.  ``__contains__`` answers membership for any value, so it is
    not an id site."""
    for name in eulerscan.__all__:
        obj = getattr(eulerscan, name)
        if not inspect.isclass(obj):
            yield name, obj
            continue
        for attr, member in vars(obj).items():
            if attr.startswith("_") and attr not in ("__init__", "__call__", "__getitem__"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                member = member.__func__
            if inspect.isfunction(member):
                yield f"{name}.{attr}", member


def test_every_public_id_parameter_is_a_listed_site():
    found = {
        qualname
        for qualname, function in _public_callables()
        if ID_PARAMETERS & set(inspect.signature(function).parameters)
    }
    assert found == set(ID_PARAMETER_SITES)
    for qualname, keys in ID_PARAMETER_SITES.items():
        for key in keys:
            assert key in INTEGER_SITES or key in NEGATIVE_ID_SITES, (qualname, key)


def test_equal_functions_hash_equal():
    # equality compares the orders, not the posets' identity; so does the hash
    a = PosetFunction(Poset.from_covers(3, [(0, 1), (1, 2)]), [1, 2, 3])
    b = PosetFunction(Poset.from_covers(3, [(0, 1), (1, 2)]), [1, 2, 3])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert len({a, b.with_value(0, 0)}) == 2


def test_valid_ids_read_the_element_they_name():
    assert PosetFunction(CHAIN3, [5, 6, 7])[2] == 7
    assert PosetFunction(CHAIN3, [5, 6, 7]).with_value(2, 9).values.tolist() == [5, 6, 9]
    assert PosetMap.constant(CHAIN3, CHAIN3, 1)(2) == 1
    assert CHAIN3.mobius()[1, 2] == -1
    assert ElementSet(CHAIN3, frozenset({np.int64(2)})).members == {2}
    assert {type(x) for x in ElementSet(CHAIN3, frozenset({np.int64(2)})).members} == {int}


INT64_EDGE = st.one_of(
    st.sampled_from(
        [-(2**63), -(2**63) + 1, -(2**62), -1, 0, 1, 2**62, 2**63 - 2, 2**63 - 1]
    ),
    st.integers(-(2**63), 2**63 - 1),
)


def _exact_or_overflow(compute):
    try:
        return compute().values.tolist()
    except OverflowError:
        return "overflow"


def _python_int_answer(values):
    return values if _in_int64(values) else "overflow"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    pairs=st.lists(st.tuples(INT64_EDGE, INT64_EDGE), max_size=6),
    scalar=st.one_of(st.integers(-3, 3), INT64_EDGE, st.integers(-(2**70), 2**70)),
)
def test_arithmetic_at_int64_edges_is_exact_or_raises(pairs, scalar):
    a = [x for x, _ in pairs]
    b = [y for _, y in pairs]
    p = posetzoo.antichain(len(pairs))
    h, g = PosetFunction(p, a), PosetFunction(p, b)
    assert _exact_or_overflow(lambda: h + g) == _python_int_answer(
        [x + y for x, y in pairs]
    )
    assert _exact_or_overflow(lambda: h - g) == _python_int_answer(
        [x - y for x, y in pairs]
    )
    assert _exact_or_overflow(lambda: scalar * h) == _python_int_answer(
        [scalar * x for x in a]
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(INT64_EDGE, max_size=8))
def test_monotone_integrals_at_int64_edges_match_python_ints(values):
    # a monotone non-negative function on a chain integrates to its
    # maximum by both routes
    chain = posetzoo.chain(len(values))
    up = PosetFunction(chain, sorted(abs(v) if v > -(2**63) else 0 for v in values))
    top = max(up.values.tolist(), default=0)
    assert integrate(up) == integrate_excursion(up) == top
    assert mobius_coefficients(up).coefficient_sum() == top


# ----------------------------------------------------------------------
# integration
# ----------------------------------------------------------------------


def test_trellis_integral(trellis):
    assert integrate(trellis_h(trellis)) == 6


def test_integrate_is_exact_at_int64_edges():
    big = 2**62
    assert integrate(PosetFunction(posetzoo.antichain(3), [big] * 3)) == 3 * big
    lowest = PosetFunction(posetzoo.antichain(2), [-(2**63)] * 2)
    assert integrate(lowest) == -(2**64)
    wide = PosetFunction(posetzoo.antichain(61), [big] * 61)  # object-dtype table
    assert integrate(wide) == integrate_excursion(wide) == 61 * big


def test_integrate_matches_python_int_oracle_at_int64_extremes():
    rng = random.Random(31)
    extremes = [-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        values = [rng.choice(extremes) for _ in range(p.n)]
        mu = oracles.mobius_by_recursion(p.n, oracles.reachability(p.n, p.covers))
        expect = sum(values[x] * mu[(x, y)] for x in range(p.n) for y in range(p.n))
        assert integrate(PosetFunction(p, values)) == expect


def test_constant_one_integrates_to_chi():
    rng = random.Random(32)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        ones = PosetFunction(p, [1] * p.n)
        assert integrate(ones) == p.euler_characteristic()


def test_maximum_dominates_integral():
    rng = random.Random(33)
    for _ in range(60):
        base = oracles.random_poset(rng, max_n=6)
        covers = list(base.covers) + [(x, base.n) for x in range(base.n)]
        p = Poset.from_covers(base.n + 1, covers)
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        assert integrate(h) == h[base.n]


def test_integration_linearity():
    rng = random.Random(34)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=8, shuffle=True)
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        g = PosetFunction(p, oracles.random_values(rng, p.n))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        assert integrate(a * h + b * g) == a * integrate(h) + b * integrate(g)


def test_filter_indicator_integrates_to_chi_exhaustive():
    rng = random.Random(35)
    for _ in range(25):
        p = oracles.random_poset(rng, max_n=6)
        reach = oracles.reachability(p.n, p.covers)
        for members in oracles.all_filters(p.n, reach):
            assert integrate(indicator(p, members)) == p.chi_of(members)


def test_integral_independent_of_filter_form():
    rng = random.Random(36)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=6)
        reach = oracles.reachability(p.n, p.covers)
        filters = [f for f in oracles.all_filters(p.n, reach)]
        terms = tuple(
            (rng.randint(-3, 3), p.subset(rng.choice(filters))) for _ in range(4)
        )
        form = FilterLinearForm(p, terms)
        assert form.integral() == integrate(form.evaluate())


# ----------------------------------------------------------------------
# excursion route
# ----------------------------------------------------------------------


def test_trellis_excursion(trellis):
    assert integrate_excursion(trellis_h(trellis)) == 6


def test_excursion_constant_on_point():
    p = posetzoo.antichain(1)
    assert integrate_excursion(PosetFunction(p, [2])) == 2


def test_excursion_rejects_non_monotone():
    p = posetzoo.chain(2)
    with pytest.raises(NotMonotone):
        integrate_excursion(PosetFunction(p, [1, 0]))


def test_excursion_rejects_negative():
    p = posetzoo.chain(2)
    with pytest.raises(NegativeValues):
        integrate_excursion(PosetFunction(p, [-1, 0]))


def _wrap(monkeypatch, name, wrap):
    """Replace ``name`` by ``wrap(original)`` in every eulerscan namespace
    that holds it."""
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "eulerscan" and hasattr(module, name):
            monkeypatch.setattr(module, name, wrap(getattr(module, name)))


def _refuse(monkeypatch, name):
    """Make ``name`` raise in every eulerscan namespace that holds it."""

    def refuse(*args):
        raise AssertionError(f"reached {name}")

    _wrap(monkeypatch, name, lambda original: refuse)


def _walk_dtypes(monkeypatch) -> list[str]:
    """Spy on ``_level_walk``: the returned list gains the dtype of each
    walk as it runs, "float64" or "object"."""
    walks = []

    def spy(walk):
        def counted(op, c):
            walks.append(str(c.dtype))
            return walk(op, c)

        return counted

    _wrap(monkeypatch, "_level_walk", spy)
    return walks


def test_chain_and_excursion_routes_never_touch_moebius(monkeypatch):
    # fresh posets, so no cached table can answer for the recursion
    trellis = posetzoo.trellis()
    h = trellis_h(trellis)
    wide = random_network([20] * 4, 0.2, 30, 5)
    _refuse(monkeypatch, "_mobius_solve")
    assert trellis.euler_characteristic_by_chains() == 1
    assert trellis.chi_of([B3, M1, M2, M4, T1, T2, T3]) == 0
    assert integrate_excursion(h) == 6
    assert integrate_excursion(wide.counting) == 30  # n=80
    with pytest.raises(AssertionError):
        integrate(h)


def _assert_moebius_route_answers(trellis):
    h = trellis_h(trellis)
    assert integrate(h) == 6
    assert mobius_coefficients(h).coefficient_sum() == 6
    point = posetzoo.antichain(1)
    assert pushforward(PosetMap.constant(trellis, point, 0), h).values.tolist() == [6]
    assert is_chi_distinguished(PosetMap.identity(trellis))
    report = chi_minimal_model(trellis)
    assert report.removal_sequence == ((B2, "chi_point"), (B3, "chi_point"))
    assert classify_points(trellis).chi_point == frozenset({B2, B3})
    assert trellis.euler_characteristic() == 1


def test_library_never_builds_the_moebius_table(monkeypatch):
    trellis = posetzoo.trellis()
    net = random_network([5, 6, 5], 0.4, 9, 3)

    def refuse(self):
        raise AssertionError("built the full Moebius table")

    monkeypatch.setattr(Poset, "mobius", refuse)
    _assert_moebius_route_answers(trellis)
    assert enumerate_reduced(net).count == 9
    code, text = run_cli("chi", "--input", DATA / "trellis.json", "--json")
    assert code == 0 and json.loads(text)["results"]["chi_mobius"] == 1
    code, text = run_cli(
        "simulate", "--layers", "4x4x3", "--targets", "10",
        "--corrupt", "chi-points", "--seed", "7", "--json",
    )
    assert code == 0 and json.loads(text)["verdict"] == "pass"


def test_simulate_solves_row_sums_once_and_builds_one_model(monkeypatch):
    calls = Counter()

    def counted(name):
        def wrap(original):
            def call(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return call

        return wrap

    def refuse(self):
        raise AssertionError("built the full Moebius table")

    for name in ("_mobius_solve", "chi_minimal_model"):
        _wrap(monkeypatch, name, counted(name))
    monkeypatch.setattr(Poset, "mobius", refuse)
    code, text = run_cli(
        "simulate", "--layers", "4x4x3", "--targets", "10",
        "--corrupt", "chi-points", "--seed", "7", "--json",
    )
    assert code == 0
    assert text == (GOLDEN / "simulate_4x4x3.json").read_text(encoding="utf-8")
    assert calls == {"_mobius_solve": 1, "chi_minimal_model": 1}


def test_moebius_route_never_touches_chain_count(monkeypatch):
    trellis = posetzoo.trellis()
    _refuse(monkeypatch, "_signed_chain_counts")
    with pytest.raises(AssertionError):
        trellis.euler_characteristic_by_chains()
    _assert_moebius_route_answers(trellis)


def test_readings_on_one_poset_build_each_operator_once(monkeypatch):
    # snapshots on a shared network read its one operator: counting,
    # corruption, both integrals and the pushforward onto a layer chain
    net = random_network([10] * 4, 0.3, 0, 7)
    p = net.poset
    layers = posetzoo.chain(4)
    layer_map = PosetMap(p, layers, [x // 10 for x in range(p.n)])
    built = []
    build = _Operator.built

    def counted(self, leq):
        built.append(leq)
        return build(self, leq)

    monkeypatch.setattr(_Operator, "built", counted)
    chi_points = chi_minimal_model(p).removed_ids()
    spots = [TargetPosition.at_node(x) for x in range(p.n)]
    spots += [TargetPosition.on_edge(a, b) for a, b in sorted(p.covers)]
    rng = random.Random(5)
    for count in range(5):
        targets = TargetSet.of(rng.choice(spots) for _ in range(3 * count))
        snapshot = SensorNetwork(p, targets)
        noise = NoiseSpec({x: rng.randint(-9, 9) for x in chi_points})
        assert integrate(corrupt(snapshot, noise)) == 3 * count
        assert integrate_excursion(snapshot.counting) == 3 * count
        assert integrate(pushforward(layer_map, snapshot.counting)) == 3 * count
    assert [leq is p.leq for leq in built] == [True, False]
    assert built[1] is layers.leq


def test_snapshots_on_one_network_count_its_chains_once(monkeypatch):
    # the excursion integral of every snapshot reads the network's one
    # held E; a subposet counts its own chains, once, and keeps them
    net = random_network([10] * 6, 0.2, 0, 11)
    p = net.poset
    counted = []

    def count(original):
        def call(op):
            counted.append(len(op.perm))
            return original(op)

        return call

    _wrap(monkeypatch, "_signed_chain_counts", count)
    spots = [TargetPosition.at_node(x) for x in range(p.n)]
    spots += [TargetPosition.on_edge(a, b) for a, b in sorted(p.covers)]
    rng = random.Random(17)
    for _ in range(40):
        size = rng.randint(0, 30)
        snapshot = SensorNetwork(p, TargetSet.of(rng.choice(spots) for _ in range(size)))
        assert integrate_excursion(snapshot.counting) == size
    assert p.euler_characteristic_by_chains() == p.euler_characteristic()
    assert counted == [p.n]
    e = p._chain_sums()
    sub, _ = p.induced_subposet(range(10, 50))
    for _ in range(3):
        assert sub.euler_characteristic_by_chains() == sub.euler_characteristic()
        assert integrate_excursion(PosetFunction(sub, [1] * sub.n)) == sub.euler_characteristic()
    assert counted == [p.n, 40]
    assert sub._chain_sums() is not e and p._chain_sums() is e


def test_reduced_count_reads_the_parent_level_order(monkeypatch):
    # the support subposet takes its level order from the network, so
    # counting on it runs no Kahn pass and fills no levels
    net = random_network([6] * 5, 0.4, 12, 5)
    _refuse(monkeypatch, "_levels")
    result = enumerate_reduced(net)
    assert result.count == 12
    assert result.support._lv is None
    assert result.support._op.lt is not None


INT64_EDGES = st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_zeta_solve_and_weighted_chain_count_match_oracles(seed, data):
    rng = random.Random(seed)
    p = oracles.random_poset(rng, max_n=7, shuffle=True)
    n = p.n
    mu = oracles.mobius_by_recursion(n, oracles.reachability(n, p.covers))
    values = st.one_of(INT64_EDGES, st.integers(-5, 5))
    h = data.draw(st.lists(values, min_size=n, max_size=n))
    op = p._operator()
    table = _mobius_solve(op, np.eye(n, dtype=np.int64)).tolist()
    assert table == [[mu[(x, y)] for y in range(n)] for x in range(n)]
    ones = np.ones((1, n), dtype=object)
    column_sums = [sum(mu[(x, y)] for x in range(n)) for y in range(n)]
    row_sums = [sum(mu[(x, y)] for y in range(n)) for x in range(n)]
    assert _mobius_solve(op, ones)[0].tolist() == column_sums
    assert p._row_sums().tolist() == row_sums
    coefficients = [sum(h[x] * mu[(x, y)] for x in range(n)) for y in range(n)]
    rows = np.array([h], dtype=object)
    assert _mobius_solve(op, rows)[0].tolist() == coefficients
    # the Fubini identity behind the excursion route holds for any h
    dot = sum(v * r for v, r in zip(h, row_sums))
    assert _exact_dot(h, p._chain_sums()) == dot == integrate(PosetFunction(p, h))


# the two sides of the float solve's bound, and the int64 extremes
BELOW_2_53 = st.sampled_from([-(2**53) + 1, -(2**52), 2**52, 2**53 - 1])
PAST_2_53 = st.sampled_from(
    [-(2**63), -(2**53) - 1, -(2**53), 2**53, 2**53 + 1, 2**63 - 1]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    as_int64=st.booleans(),
    past=st.booleans(),
    data=st.data(),
)
def test_float_level_solve_is_kept_exactly_when_its_certificate_holds(
    seed, as_int64, past, data
):
    rng = random.Random(seed)
    p = oracles.random_poset(rng, max_n=7, shuffle=True)
    n = p.n
    mu = oracles.mobius_by_recursion(n, oracles.reachability(n, p.covers))
    entry = st.one_of(st.integers(-3, 3), BELOW_2_53)
    if past:
        entry = st.one_of(entry, PAST_2_53)
    rows = data.draw(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=3)
    )
    v = np.array(rows, dtype=np.int64 if as_int64 else object).reshape(len(rows), n)
    expect = [[sum(row[x] * mu[(x, y)] for x in range(n)) for y in range(n)] for row in rows]
    with pytest.MonkeyPatch.context() as mp:
        walks = _walk_dtypes(mp)
        c = _mobius_solve(p._operator(), v)
    assert c.tolist() == expect
    assert {type(a) for row in c.tolist() for a in row} <= {int}
    certified = all(abs(a) < 2**53 for row in rows for a in row) and all(
        sum(map(abs, row)) < 2**53 for row in expect
    )
    assert (walks == ["float64"]) == certified


@pytest.mark.parametrize(
    "value",
    # np.abs(int64 min) is int64 min, negative, so a |v| < 2**53 test
    # built on np.abs would pass it; a Python int past float64's range
    # would raise OverflowError on the way into float64
    [np.array([[-(2**63)]], dtype=np.int64), np.array([[2**1100]], dtype=object)],
    ids=["int64-min", "past-float64"],
)
def test_values_past_the_float_bound_go_straight_to_python_ints(monkeypatch, value):
    p = posetzoo.chain(1)
    walks = _walk_dtypes(monkeypatch)
    assert _mobius_solve(p._operator(), value).tolist() == [[int(value[0, 0])]]
    assert walks == ["object"]
    h = PosetFunction(posetzoo.chain(2), [-(2**63), 0])
    assert [c for c, _ in mobius_coefficients(h).terms] == [-(2**63), 2**63]


def test_network_readers_take_the_float_level_solve(monkeypatch):
    net = random_network([30] * 8, 0.1, 40, 1605)
    p = net.poset
    _refuse(monkeypatch, "_int_product")
    assert p.euler_characteristic() == p.euler_characteristic_by_chains()
    assert integrate(net.counting) == 40
    layers = posetzoo.chain(8)
    f = PosetMap(p, layers, [x // 30 for x in range(p.n)])
    assert integrate(pushforward(f, net.counting)) == 40
    assert mobius_coefficients(net.counting).coefficient_sum() == 40


V_SHAPE = Poset.from_covers(3, [(0, 2), (1, 2)])  # two minima under one maximum
# one minimum under two maxima: its opposite order is the V-shape
LAMBDA = Poset.from_covers(3, [(2, 0), (2, 1)])


# The V-shape's solve is c = [v0, v1, v2 - v0 - v1], and every v here is
# below 2**53, so only the bound on the row's sum(|c|) picks the tier.
@pytest.mark.parametrize("opposite", [False, True], ids=["zeta", "opposite"])
@pytest.mark.parametrize(
    "v, expect, walks",
    [
        # c sums to 2**53 + 3: float64 rounds v0 + v1 = 2**53 + 1 down to
        # 2**53 and reads -1 at the top, with no entry past 2**53 and,
        # summed bottom first, a float total of |c| of exactly 2**53
        ([2**52 + 1, 2**52, 2**53 - 1], [2**52 + 1, 2**52, -2], ["float64", "object"]),
        # c sums to 2**53 + 3: float64 rounds v2 - v0 - v1 = 2**53 + 1 down
        # to 2**53; read top first, as the opposite order's level order
        # has it, the float total of |c| is again exactly 2**53
        ([-1, -1, 2**53 - 1], [-1, -1, 2**53 + 1], ["float64", "object"]),
        # c sums to 2**53 - 1
        ([2**52, 2**52 - 2, 2**53 - 1], [2**52, 2**52 - 2, 1], ["float64"]),
        # c sums to 2**53: exact in float64, but past the bound
        ([2**52, 2**52 - 1, 2**53 - 2], [2**52, 2**52 - 1, -1], ["float64", "object"]),
    ],
    ids=["rounded", "rounded-at-top", "sum-below-2**53", "sum-at-2**53"],
)
def test_float_solve_keeps_exactly_the_rows_below_its_sum_bound(
    monkeypatch, opposite, v, expect, walks
):
    op = LAMBDA._operator().opposite() if opposite else V_SHAPE._operator()
    seen = _walk_dtypes(monkeypatch)
    assert _mobius_solve(op, np.array([v], dtype=np.int64)).tolist() == [expect]
    assert seen == walks
    # a small row beside it changes neither the tier nor its answer
    seen.clear()
    rows = np.array([[-3, 1, 0], v], dtype=object)
    assert _mobius_solve(op, rows).tolist() == [[-3, 1, 2], expect]
    assert seen == walks


@pytest.mark.parametrize(
    "p, weights",
    [
        # every weight fits int64, but their sum at the top is 2**63
        (V_SHAPE, [2**62, 2**62, 0]),
        # weights summing to 2**63 - 1
        (CHAIN3, [2**62, 2**62 - 1, 0]),
        # weights summing to 2**63, past int64
        (CHAIN3, [2**62, 2**62, 0]),
        (CHAIN3, [-(2**62), -(2**62) - 1, 7]),
    ],
    ids=["v-shape", "chain-below-bound", "chain-at-bound", "chain-negative"],
)
def test_chain_count_exact_at_the_int64_step_bound(p, weights):
    n = p.n
    mu = oracles.mobius_by_recursion(n, oracles.reachability(n, p.covers))
    row_sums = [sum(mu[(x, y)] for y in range(n)) for x in range(n)]
    assert _exact_dot(weights, p._chain_sums()) == sum(
        w * r for w, r in zip(weights, row_sums)
    )


# The weights meet the chain count only in the final exact dot with the
# signed chain counts, which start from all ones, so on these small
# posets every step stays in float64 whatever the weights.
@pytest.mark.parametrize(
    "p, weights, python_steps",
    [
        # weights whose sum at the top is 2**53
        (V_SHAPE, [2**52, 2**52, 0], 0),
        # a top sum of 2**53 + 1, which float64 would round
        (V_SHAPE, [2**52 + 1, 2**52, 1], 0),
        # weights summing to 2**53 - 1
        (CHAIN3, [2**52, 2**52 - 1, 0], 0),
        # weights summing to 2**53
        (CHAIN3, [2**52, 2**52, 0], 0),
        (CHAIN3, [-(2**52), -(2**52) - 1, 7], 0),
        # past float64's range: the weight is never converted
        (V_SHAPE, [2**1100, 1, 2], 0),
    ],
    ids=[
        "v-shape", "v-shape-rounding", "chain-below-bound", "chain-at-bound",
        "chain-negative", "past-float64",
    ],
)
def test_chain_count_exact_at_the_float_step_bound(monkeypatch, p, weights, python_steps):
    steps = []

    def counted(original):
        def step(*args):
            steps.append(1)
            return original(*args)

        return step

    _wrap(monkeypatch, "_int_product", counted)
    n = p.n
    mu = oracles.mobius_by_recursion(n, oracles.reachability(n, p.covers))
    row_sums = [sum(mu[(x, y)] for y in range(n)) for x in range(n)]
    assert _exact_dot(weights, p._chain_sums()) == sum(
        w * r for w, r in zip(weights, row_sums)
    )
    assert len(steps) == python_steps


def test_network_readers_take_the_float_chain_and_mask_steps(monkeypatch):
    net = random_network([30] * 8, 0.1, 40, 1605)
    p = net.poset
    _refuse(monkeypatch, "_int_product")
    assert integrate_excursion(net.counting) == 40
    layers = posetzoo.chain(8)
    f = PosetMap(p, layers, [x // 30 for x in range(p.n)])
    assert integrate(pushforward(f, net.counting)) == 40
    assert is_chi_distinguished(PosetMap.identity(p))


def test_transports_and_table_past_the_float_bound_run_on_python_ints(monkeypatch):
    # 70 layers of 3: R(x) = (-2)**(69 - layer), so the row sums leave
    # float64's exact integers and every exact product below runs on
    # Python ints, the transports over prime filters on the opposite
    # operator of the codomain
    p = posetzoo.ordinal_sum_of_antichains(70, 3)
    r = p._row_sums()
    assert r.tolist() == [(-2) ** (69 - x // 3) for x in range(p.n)]
    layers = posetzoo.chain(70)
    products = []

    def counted(original):
        def call(x, a):
            products.append(x.shape)
            return original(x, a)

        return call

    _wrap(monkeypatch, "_int_product", counted)
    # every prime filter has a least element, so chi 1
    assert is_chi_distinguished(PosetMap.identity(p))
    assert products == [(p.n,)]
    # the preimage of layer k's prime filter is the top 70 - k layers,
    # with chi 1 - (-2)**(70 - k)
    f = PosetMap(p, layers, [x // 3 for x in range(p.n)])
    assert not is_chi_distinguished(f)
    assert products == [(p.n,), (layers.n,)]
    # the full table: the certificate fails and the walk runs again on
    # Python ints, one product per level, on every row at once
    products.clear()
    assert np.array_equal(p.mobius().mu, oracles.mobius_by_columns(p.leq))
    assert products == [(p.n, 3 * k) for k in range(70)]


def test_excursion_agrees_with_mobius_and_naive_levels():
    rng = random.Random(37)
    for _ in range(80):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        h = PosetFunction(p, oracles.random_monotone_values(rng, p))
        total = integrate_excursion(h)
        assert total == integrate(h)
        naive = sum(
            p.chi_of([x for x in range(p.n) if h[x] >= level])
            for level in range(1, (max(h.values.tolist()) if p.n else 0) + 1)
        )
        assert total == naive


# ----------------------------------------------------------------------
# pushforward / pullback
# ----------------------------------------------------------------------


def test_pushforward_to_point(trellis):
    point = posetzoo.antichain(1)
    f = PosetMap.constant(trellis, point, 0)
    assert pushforward(f, trellis_h(trellis)).values.tolist() == [6]


def test_pushforward_identity_is_identity(trellis):
    h = trellis_h(trellis)
    assert pushforward(PosetMap.identity(trellis), h) == h


def test_pushforward_point_into_chain():
    point = posetzoo.antichain(1)
    two = posetzoo.chain(2)
    f = PosetMap(point, two, [1])
    out = pushforward(f, PosetFunction(point, [1]))
    assert out.values.tolist() == [0, 1]


def test_pushforward_requires_order_preserving():
    two = posetzoo.chain(2)
    f = PosetMap(two, two, [1, 0])
    with pytest.raises(NotOrderPreserving):
        pushforward(f, PosetFunction(two, [0, 0]))


def test_pushforward_preserves_integral():
    rng = random.Random(38)
    done = 0
    while done < 150:
        dom = oracles.random_poset(rng, max_n=6)
        cod = oracles.random_poset(rng, max_n=6)
        image = oracles.random_order_preserving_image(rng, dom, cod)
        if image is None:
            continue
        f = PosetMap(dom, cod, image)
        h = PosetFunction(dom, oracles.random_values(rng, dom.n))
        assert integrate(pushforward(f, h)) == integrate(h)
        done += 1


EXTREMES = [-(2**63), -(2**62), -1, 0, 1, 2**62, 2**63 - 1]


def _pushforward_or_overflow(f, h):
    try:
        return pushforward(f, h).values.tolist()
    except OverflowError:
        return "overflow"


def _in_int64(values):
    return all(-(2**63) <= v < 2**63 for v in values)


def test_pushforward_matches_definition_oracle():
    rng = random.Random(40)
    done = overflows = 0
    while done < 300:
        dom = oracles.random_poset(rng, max_n=7, shuffle=True)
        cod = oracles.random_poset(rng, max_n=6, shuffle=True)
        image = oracles.random_order_preserving_image(rng, dom, cod)
        if image is None:
            continue
        f = PosetMap(dom, cod, image)
        if done % 3 == 0:
            values = [rng.choice(EXTREMES) for _ in range(dom.n)]
        else:
            values = oracles.random_values(rng, dom.n)
        h = PosetFunction(dom, values)
        expect = oracles.pushforward_by_definition(f, h)
        if not _in_int64(expect):
            expect = "overflow"
            overflows += 1
        assert _pushforward_or_overflow(f, h) == expect
        done += 1
    assert overflows > 0


def test_pushforward_raises_instead_of_wrapping():
    dom = posetzoo.antichain(3)
    f = PosetMap.constant(dom, posetzoo.antichain(1), 0)
    with pytest.raises(OverflowError):
        pushforward(f, PosetFunction(dom, [2**62] * 3))
    h = PosetFunction(dom, [2**62, 2**62, -(2**62)])  # partial sums leave int64
    assert pushforward(f, h).values.tolist() == [2**62]


def test_transports_and_coefficients_beyond_n60():
    # object-dtype Moebius table, values at the int64 edges
    rng = random.Random(41)
    widths = [9, 8, 9, 8, 9, 8, 9, 8]
    p = random_network(widths, 0.3, 0, 41).poset
    assert p.n == 68
    chain = posetzoo.chain(len(widths))
    f = PosetMap(p, chain, [k for k, w in enumerate(widths) for _ in range(w)])
    for _ in range(4):
        h = PosetFunction(p, [rng.choice(EXTREMES) for _ in range(p.n)])
        form = mobius_coefficients(h)
        assert form.coefficient_sum() == integrate(h)
        assert form.evaluate() == h
        expect = oracles.pushforward_by_definition(f, h)
        assert _pushforward_or_overflow(f, h) == (
            expect if _in_int64(expect) else "overflow"
        )
        assert expect[-1] == integrate(h)  # the top's ideal is everything
    assert is_chi_distinguished(f) == oracles.chi_distinguished_by_definition(f)


def test_pullback_identity_and_constant(trellis):
    h = trellis_h(trellis)
    assert pullback(PosetMap.identity(trellis), h) == h
    g = pullback(PosetMap.constant(trellis, trellis, T2), h)
    assert g.values.tolist() == [4] * 11


def test_pullback_of_inclusion_restricts(trellis):
    h = trellis_h(trellis)
    members = [x for x in range(11) if x != B2]
    sub, mapping = trellis.induced_subposet(members)
    incl = PosetMap.inclusion(sub, trellis, mapping)
    assert pullback(incl, h).values.tolist() == [TRELLIS_H[x] for x in members]


# ----------------------------------------------------------------------
# chi-distinguished maps
# ----------------------------------------------------------------------


def test_identity_is_chi_distinguished(trellis):
    assert is_chi_distinguished(PosetMap.identity(trellis))


def test_inclusion_at_chi_point_is_distinguished(trellis):
    members = [x for x in range(11) if x != B2]
    sub, mapping = trellis.induced_subposet(members)
    assert is_chi_distinguished(PosetMap.inclusion(sub, trellis, mapping))


def test_bottom_inclusion_into_four_cycle_is_not():
    cyc = posetzoo.four_cycle()
    point = posetzoo.antichain(1)
    f = PosetMap(point, cyc, [0])
    # the preimage of the prime filter at the other bottom is empty
    assert not is_chi_distinguished(f)


def test_chi_distinguished_matches_definition_oracle():
    rng = random.Random(42)
    verdicts = []
    while len(verdicts) < 300:
        dom = oracles.random_poset(rng, max_n=7, shuffle=True)
        if rng.random() < 0.5:
            # drop a chi-point: an inclusion that is often distinguished
            chi_points = sorted(classify_points(dom).chi_point)
            members = [y for y in range(dom.n) if y not in chi_points[:1]]
            sub, mapping = dom.induced_subposet(members)
            f = PosetMap.inclusion(sub, dom, mapping)
        else:
            cod = oracles.random_poset(rng, max_n=5, shuffle=True)
            image = oracles.random_order_preserving_image(rng, dom, cod)
            if image is None:
                continue
            f = PosetMap(dom, cod, image)
        verdict = oracles.chi_distinguished_by_definition(f)
        assert is_chi_distinguished(f) == verdict
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_chi_distinguished_pullback_preserves_integral():
    rng = random.Random(39)
    done = 0
    while done < 120:
        dom = oracles.random_poset(rng, max_n=6)
        cod = oracles.random_poset(rng, max_n=6)
        image = oracles.random_order_preserving_image(rng, dom, cod)
        if image is None:
            continue
        f = PosetMap(dom, cod, image)
        if not is_chi_distinguished(f):
            continue
        h = PosetFunction(cod, oracles.random_values(rng, cod.n))
        assert integrate(pullback(f, h)) == integrate(h)
        done += 1


# ----------------------------------------------------------------------
# chi-point invariance (the noise theorems, property form)
# ----------------------------------------------------------------------


def test_value_change_at_chi_point_is_invisible():
    rng = random.Random(40)
    done = 0
    while done < 150:
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        chi_points = sorted(classify_points(p).chi_point)
        if not chi_points:
            continue
        x = rng.choice(chi_points)
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        h2 = h.with_value(x, rng.randint(-100, 100))
        assert integrate(h) == integrate(h2)
        done += 1


def test_single_chi_point_removal_keeps_integral():
    rng = random.Random(41)
    done = 0
    while done < 150:
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        chi_points = sorted(classify_points(p).chi_point)
        if not chi_points:
            continue
        x = rng.choice(chi_points)
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        members = [y for y in range(p.n) if y != x]
        sub, mapping = p.induced_subposet(members)
        restricted = PosetFunction(sub, [h[y] for y in mapping])
        assert integrate(restricted) == integrate(h)
        done += 1


def test_agreement_on_model_fixes_integral(trellis):
    rng = random.Random(42)
    h = trellis_h(trellis)
    model = set(chi_minimal_model(trellis).mapping)
    for _ in range(50):
        noisy = h
        for x in range(11):
            if x not in model:
                noisy = noisy.with_value(x, rng.randint(-100, 100))
        assert integrate(noisy) == 6


# ----------------------------------------------------------------------
# ascending closure operators
# ----------------------------------------------------------------------


def test_identity_is_closure_operator(trellis):
    assert is_ascending_closure_operator(PosetMap.identity(trellis))


def test_constant_at_top_of_chain_is_closure_operator():
    two = posetzoo.chain(2)
    assert is_ascending_closure_operator(PosetMap.constant(two, two, 1))
    assert not is_ascending_closure_operator(PosetMap.constant(two, two, 0))


def _random_beat_retraction_composite(rng, p):
    """Compose retractions at down-beat points; the composite endo-map is
    an ascending closure operator onto the surviving elements."""
    image = list(range(p.n))
    members = list(range(p.n))
    for _ in range(rng.randint(0, p.n)):
        sub, mapping = p.induced_subposet(members)
        downs = sorted(classify_points(sub).down_beat)
        if not downs:
            break
        local = rng.choice(downs)
        above = [y for y in range(sub.n) if sub.leq[local, y] and y != local]
        mins = [
            m for m in above
            if not any(z != m and sub.leq[z, m] for z in above)
        ]
        assert len(mins) == 1
        x, target = mapping[local], mapping[mins[0]]
        members.remove(x)
        image = [target if image[z] == x else image[z] for z in range(p.n)]
    return image, members


def test_beat_retraction_composites_are_closure_operators():
    rng = random.Random(43)
    for _ in range(120):
        p = oracles.random_poset(rng, max_n=6, shuffle=True)
        image, _ = _random_beat_retraction_composite(rng, p)
        assert is_ascending_closure_operator(PosetMap(p, p, image))


def test_closure_operator_pushforward_is_restriction():
    rng = random.Random(44)
    done = 0
    while done < 150:
        p = oracles.random_poset(rng, max_n=6, shuffle=True)
        if p.n == 0:
            continue
        image, members = _random_beat_retraction_composite(rng, p)
        sub, mapping = p.induced_subposet(members)
        onto = PosetMap(p, sub, [mapping.index(image[z]) for z in range(p.n)])
        h = PosetFunction(p, oracles.random_values(rng, p.n))
        pushed = pushforward(onto, h)
        assert pushed.values.tolist() == [h[x] for x in mapping]
        done += 1


def test_closure_operator_must_be_endo():
    with pytest.raises(ValueError):
        is_ascending_closure_operator(
            PosetMap(posetzoo.chain(2), posetzoo.chain(3), [0, 1])
        )
