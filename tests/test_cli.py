import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cliharness import DATA, GOLDEN, GOLDEN_COMMANDS, run_cli
from eulerscan import NoiseSpec, corrupt, random_network
from eulerscan.cli import _build_parser

SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


# ----------------------------------------------------------------------
# golden files: byte-for-byte stability
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name):
    expected_code, argv = GOLDEN_COMMANDS[name]
    code, text = run_cli(*argv)
    assert code == expected_code
    assert text == (GOLDEN / name).read_text(encoding="utf-8")
    # a second run is byte-identical
    code2, text2 = run_cli(*argv)
    assert (code2, text2) == (code, text)


def test_reports_are_valid_json():
    for name in GOLDEN_COMMANDS:
        if name.endswith(".json"):
            json.loads((GOLDEN / name).read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# reported numbers
# ----------------------------------------------------------------------


def test_chi_report_values():
    _, text = run_cli("chi", "--input", DATA / "trellis.json", "--json")
    obj = json.loads(text)
    assert obj["results"] == {"chi_mobius": 1, "chi_chains": 1, "routes_agree": True}
    assert obj["verdict"] == "pass"


def test_integrate_both_routes_agree():
    _, text = run_cli(
        "integrate", "--input", DATA / "trellis.json", "--function", "h", "--json"
    )
    obj = json.loads(text)
    assert obj["results"]["integral_mobius"] == 6
    assert obj["results"]["integral_excursion"] == 6
    assert obj["results"]["routes_agree"] is True


def test_integrate_noisy_skips_excursion_in_both_mode():
    code, text = run_cli(
        "integrate", "--input", DATA / "trellis.json", "--function", "noisy", "--json"
    )
    obj = json.loads(text)
    assert code == 0
    assert obj["results"]["integral_mobius"] == 6
    assert obj["results"]["integral_excursion"] is None
    assert obj["results"]["excursion_skipped"] == "NotMonotone"


def test_integrate_constant_one_reports_chi():
    _, text = run_cli(
        "integrate", "--input", DATA / "antichain3.json",
        "--function", "ones", "--route", "mobius", "--json",
    )
    assert json.loads(text)["results"]["integral_mobius"] == 3  # chi of 3 dust points


def test_simulate_zero_targets_estimates_zero():
    code, text = run_cli(
        "simulate", "--layers", "3x2", "--targets", "0", "--seed", "5", "--json"
    )
    obj = json.loads(text)
    assert code == 0
    assert obj["results"]["true_count"] == 0
    assert obj["results"]["full_estimate"] == 0
    assert obj["results"]["reduced_estimate"] == 0


def test_simulate_clean_run_matches_count():
    code, text = run_cli(
        "simulate", "--layers", "5x5", "--targets", "8", "--seed", "123", "--json"
    )
    obj = json.loads(text)
    assert code == 0
    assert obj["results"]["true_count"] == 8
    assert obj["results"]["full_estimate"] == 8
    assert obj["results"]["reduced_estimate"] == 8
    assert obj["seed"] == 123


def test_reduce_desc_tie_break_runs():
    code, text = run_cli(
        "reduce", "--input", DATA / "trellis.json", "--tie-break", "desc", "--json"
    )
    obj = json.loads(text)
    assert code == 0
    removed = [entry[0] for entry in obj["results"]["removal_sequence"]]
    assert sorted(removed) == [8, 9]  # same chi-points whatever the order


def test_one_parser_serves_every_call_unchanged(capsys):
    # reduce's default tie-break must survive a desc run and a usage error
    _, argv = GOLDEN_COMMANDS["reduce_trellis_chi.json"]
    default = [a for a in argv if a not in ("--tie-break", "asc")]
    code, text = run_cli(*default, "--tie-break", "desc")
    assert code == 0 and json.loads(text)["options"]["tie_break"] == "desc"
    assert run_cli(*default, "--tie-break", "sideways") == (1, "")
    golden = (GOLDEN / "reduce_trellis_chi.json").read_text(encoding="utf-8")
    assert run_cli(*default) == (0, golden)
    assert "usage error" in capsys.readouterr().err
    assert _build_parser() is _build_parser()
    # importing the CLI builds no parser
    probe = "import eulerscan.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "0\n"


# In a fresh interpreter: the modules that importing the CLI and running
# one call of each kind loads beyond numpy's own import, as JSON.
FOOTPRINT_PROBE = """
import contextlib, io, json, sys
import numpy
before = set(sys.modules)
from eulerscan.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_cli_loads_nothing_beyond_numpy_and_the_standard_library():
    # every module a run loads costs every process its import time and
    # resident memory: np.unique, for one, pulls in numpy.ma
    calls = [
        GOLDEN_COMMANDS[name][1]
        for name in (
            "simulate_4x4x3.json", "reduce_coned_chi_doc.json",
            "integrate_trellis_h.json", "dot_trellis_h.dot",
        )
    ]
    out = subprocess.run(
        [sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(calls)],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out))
    assert not {"numpy.ma", "numpy.random"} & loaded
    outside = {
        name for name in loaded
        if name.split(".")[0] not in sys.stdlib_module_names | {"eulerscan"}
    }
    assert not outside, sorted(outside)


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_exit_zero_on_success():
    code, _ = run_cli("chi", "--input", DATA / "antichain3.json")
    assert code == 0


def test_exit_one_on_malformed_document(capsys):
    code, _ = run_cli("chi", "--input", DATA / "malformed.json")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_exit_one_on_missing_file():
    code, _ = run_cli("chi", "--input", DATA / "no_such.json")
    assert code == 1


def test_exit_one_on_unknown_function():
    code, _ = run_cli(
        "integrate", "--input", DATA / "antichain3.json", "--function", "h"
    )
    assert code == 1


def test_exit_one_on_function_value_overflow(tmp_path):
    doc = tmp_path / "wide.json"
    doc.write_text(
        '{"elements": [{"id": 0}], "covers": [],'
        ' "functions": {"h": {"0": 99999999999999999999999999}}}'
    )
    code, _ = run_cli("integrate", "--input", doc, "--function", "h")
    assert code == 1


@pytest.mark.parametrize(
    "options",
    [
        ["chi"],
        ["integrate", "--function", "h"],
        ["reduce", "--mode", "chi"],
        ["reduce", "--mode", "chi", "--emit-document", "--json"],
        ["export-dot", "--function", "h"],
    ],
    ids=["chi", "integrate", "reduce", "emit-document", "export-dot"],
)
def test_exit_one_naming_function_and_id_on_value_outside_int64(
    tmp_path, capsys, options
):
    doc = json.loads((DATA / "chain5.json").read_text(encoding="utf-8"))
    doc["functions"] = {"h": {str(i): [0, 1, 1, 2, 2**63][i] for i in range(5)}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    command, *rest = options
    code, out = run_cli(command, "--input", path, *rest)
    assert code == 1
    assert out == ""
    err = capsys.readouterr().err
    assert err == "error: function 'h' has a value outside int64 at id 4\n"


def test_exit_one_naming_element_on_corrupt_reading_outside_int64(capsys):
    net = random_network([4, 4, 3], 0.5, 10, 7)
    message = "reading 99999999999999999999 for element 0 lies outside int64"
    with pytest.raises(OverflowError, match=message):
        corrupt(net, NoiseSpec({0: 99999999999999999999}))
    for edge in (-(2**63), 2**63 - 1):
        assert corrupt(net, NoiseSpec({0: edge}))[0] == edge
    for beyond in (-(2**63) - 1, 2**63):
        with pytest.raises(OverflowError):
            corrupt(net, NoiseSpec({0: beyond}))
    code, out = run_cli(
        "simulate", "--layers", "4x4x3", "--targets", "10",
        "--corrupt", "0=99999999999999999999", "--seed", "7",
    )
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_integrate_both_routes_agree_beyond_int64(tmp_path):
    big = 2**62
    doc = tmp_path / "big.json"
    doc.write_text(
        json.dumps(
            {
                "elements": [{"id": i} for i in range(3)],
                "covers": [],
                "functions": {"h": {str(i): big for i in range(3)}},
            }
        )
    )
    code, text = run_cli(
        "integrate", "--input", doc, "--function", "h", "--route", "both", "--json"
    )
    assert code == 0
    results = json.loads(text)["results"]
    assert results["integral_mobius"] == results["integral_excursion"] == 3 * big
    assert results["routes_agree"] is True


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": [{"id": 0}, {"id": 1}], "covers": [],'
        ' "functions": {"h": {"0": 1, "1": 2, "00": 3}}}',
        '{"elements": [{"id": 0}], "covers": [], "covers": []}',
        '{"elements": [{"id": 0}, {"id": 1}], "covers": [], "targets": [{"node": true}]}',
    ],
    ids=["non-canonical-id", "duplicate-key", "bool-target"],
)
def test_exit_one_on_strict_parse_errors(tmp_path, capsys, text):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    assert run_cli("chi", "--input", doc)[0] == 1
    assert "error" in capsys.readouterr().err


def test_exit_one_on_excursion_route_for_non_monotone():
    code, _ = run_cli(
        "integrate", "--input", DATA / "trellis.json",
        "--function", "noisy", "--route", "excursion",
    )
    assert code == 1


def test_exit_one_on_usage_error(capsys):
    assert run_cli("chi")[0] == 1  # --input is required
    assert run_cli("frobnicate")[0] == 1
    assert run_cli("simulate", "--layers", "x", "--seed", "1")[0] == 1
    assert run_cli(
        "simulate", "--layers", "2x2", "--seed", "1", "--corrupt", "bogus"
    )[0] == 1
    capsys.readouterr()


def test_exit_one_on_repeated_corrupt_id(capsys):
    code, out = run_cli(
        "simulate", "--layers", "2x2", "--seed", "1", "--corrupt", "0=1,0=2"
    )
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "usage error: bad --corrupt value '0=1,0=2': element 0 is given twice\n"
    )


def test_exit_two_on_simulation_mismatch():
    code, text = run_cli(
        "simulate", "--layers", "4x4x3", "--targets", "10",
        "--corrupt", "10=999", "--seed", "7",
    )
    assert code == 2
    assert 'verdict: "fail"' in text


def test_exit_codes_via_subprocess(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    ok = subprocess.run(
        [sys.executable, "-m", "eulerscan", "chi", "--input", str(DATA / "trellis.json")],
        capture_output=True, env=env,
    )
    assert ok.returncode == 0
    bad = subprocess.run(
        [sys.executable, "-m", "eulerscan", "chi", "--input", str(DATA / "malformed.json")],
        capture_output=True, env=env,
    )
    assert bad.returncode == 1
    fail = subprocess.run(
        [sys.executable, "-m", "eulerscan", "simulate", "--layers", "4x4x3",
         "--targets", "10", "--corrupt", "10=999", "--seed", "7"],
        capture_output=True, env=env,
    )
    assert fail.returncode == 2


# ----------------------------------------------------------------------
# --output
# ----------------------------------------------------------------------


def test_output_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(
        "chi", "--input", DATA / "trellis.json", "--json", "--output", out
    )
    assert code == 0
    assert text == ""
    assert out.read_text(encoding="utf-8") == (GOLDEN / "chi_trellis.json").read_text(
        encoding="utf-8"
    )


def test_emitted_reduced_document_reparses():
    _, text = run_cli(
        "reduce", "--input", DATA / "coned_circle.json",
        "--mode", "chi", "--emit-document", "--json",
    )
    from eulerscan import PosetDocument

    obj = json.loads(text)
    reduced = PosetDocument.from_obj(obj["document"])
    assert reduced.poset().n == 5
    assert reduced.poset().euler_characteristic() == 1


# ----------------------------------------------------------------------
# parser fuzz: exit 0 with agreeing routes, or exit 1 with a message
# ----------------------------------------------------------------------

TRELLIS = json.loads((DATA / "trellis.json").read_text(encoding="utf-8"))
FUZZ_INTS = st.one_of(
    st.integers(-3, 13),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63 - 1, 2**63, -(2**63), -(2**63) - 1]),
)
FUZZ_JUNK = st.one_of(
    FUZZ_INTS,
    st.booleans(),
    st.none(),
    st.floats(),
    st.text(max_size=3),
    st.lists(FUZZ_INTS, max_size=3),
    st.dictionaries(
        st.sampled_from(["id", "node", "edge", "count"]), FUZZ_INTS, max_size=2
    ),
)
FUZZ_KEYS = st.one_of(
    st.sampled_from(["0", "10", "11", "00", "+1", " 1", "-0", "x", ""]),
    FUZZ_INTS.map(str),
)


def _pick(draw, items):
    return draw(st.integers(0, len(items) - 1)) if items else None


def _mutate(draw, doc):
    # a broken top-level key hides every other mutation, so it is drawn
    # least often
    kind = draw(
        st.sampled_from(
            ["top"] + 2 * ["element", "function", "value", "cover", "target"]
        )
    )
    if kind == "top":
        key = draw(
            st.sampled_from(["elements", "covers", "functions", "targets", "extra"])
        )
        if key in doc and draw(st.booleans()):
            del doc[key]
        else:
            doc[key] = draw(FUZZ_JUNK)
        return
    elements = doc.get("elements")
    if kind == "element" and isinstance(elements, list):
        i = _pick(draw, elements)
        action = draw(
            st.sampled_from(["id", "drop-id", "label", "extra", "delete", "copy"])
        )
        if i is None or not isinstance(elements[i], dict):
            elements.append({"id": draw(FUZZ_INTS)})
        elif action == "id":
            elements[i]["id"] = draw(st.one_of(FUZZ_INTS, FUZZ_JUNK))
        elif action == "drop-id":
            elements[i].pop("id", None)
        elif action == "label":
            elements[i]["label"] = draw(FUZZ_JUNK)
        elif action == "extra":
            elements[i]["weight"] = draw(FUZZ_JUNK)
        elif action == "delete":
            del elements[i]
        else:
            elements.append(dict(elements[i]))
        return
    tables = doc.get("functions")
    if kind in ("function", "value") and isinstance(tables, dict) and tables:
        table = tables[draw(st.sampled_from(sorted(tables)))]
        if not isinstance(table, dict):
            return
        keys = sorted(table)
        key = keys[_pick(draw, keys)] if keys else draw(FUZZ_KEYS)
        if kind == "value" and draw(st.booleans()):
            # a positive factor keeps h monotone, so the excursion route
            # runs on wide values; a negative one makes it step aside
            factor = draw(FUZZ_INTS)
            for k, v in table.items():
                table[k] = v * factor if isinstance(v, int) else v
        elif kind == "value":
            table[key] = draw(st.one_of(FUZZ_INTS, FUZZ_INTS, FUZZ_JUNK))
        elif draw(st.booleans()):
            table.pop(key, None)
        else:
            table[draw(FUZZ_KEYS)] = table.pop(key, 0)
        return
    for name in ("covers", "targets"):
        items = doc.get(name)
        if kind == name[:-1] and isinstance(items, list):
            i = _pick(draw, items)
            if i is not None and draw(st.booleans()):
                del items[i]
            elif name == "covers":
                pair = st.lists(FUZZ_INTS, min_size=2, max_size=2)
                items.append(draw(st.one_of(pair, FUZZ_JUNK)))
            else:
                target = draw(FUZZ_JUNK)
                if isinstance(target, dict) and draw(st.booleans()):
                    edge = st.lists(st.integers(-1, 11), min_size=2, max_size=2)
                    target["edge"] = draw(edge)
                items.append(target)


@st.composite
def mutated_trellis(draw):
    doc = copy.deepcopy(TRELLIS)
    for _ in range(draw(st.integers(1, 3))):
        _mutate(draw, doc)
    return json.dumps(doc)


@settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_trellis())
def test_parser_fuzz_exits_zero_with_agreement_or_one_with_message(text):
    commands = [
        ["chi", "--json"],
        ["integrate", "--function", "h", "--route", "both", "--json"],
        ["reduce", "--json"],
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(text, encoding="utf-8")
        for command, *options in commands:
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code, out = run_cli(command, "--input", path, *options)
            if code == 1:
                assert out == ""
                assert err.getvalue().startswith("error: "), err.getvalue()
                continue
            assert code == 0, (command, out)
            results = json.loads(out)["results"]
            assert results.get("routes_agree", True) is True
