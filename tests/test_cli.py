import json
import os
import pathlib
import subprocess
import sys

import pytest

from cliharness import DATA, GOLDEN, GOLDEN_COMMANDS, run_cli

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
