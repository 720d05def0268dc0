import json
import pathlib
import random
import re

import pytest

import oracles
from eulerscan import (
    CycleDetected,
    ParseError,
    PosetDocument,
    UnknownFunction,
    enumerate_targets,
    integrate,
    to_dot,
)

DATA = pathlib.Path(__file__).parent / "data"


def load(name):
    return PosetDocument.from_file(str(DATA / name))


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def test_parse_trellis():
    doc = load("trellis.json")
    p = doc.poset()
    assert p.n == 11 and len(p.covers) == 16
    assert p.label(doc.dense_id(9)) == "b3"
    assert integrate(doc.function("h")) == 6
    assert enumerate_targets(doc.network()) == 6


def test_noisy_function_still_integrates_to_six():
    doc = load("trellis.json")
    assert integrate(doc.function("noisy")) == 6  # corrupted only at a chi-point


def test_sparse_document_ids():
    doc = PosetDocument.from_text(
        '{"elements": [{"id": 10}, {"id": 3}], "covers": [[3, 10]]}'
    )
    assert doc.ids == (3, 10)
    assert doc.poset().less_equal(doc.dense_id(3), doc.dense_id(10))


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        load("malformed.json")
    assert err.value.line is not None and err.value.column is not None


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": [], "covers": [], "extra": 1}',
        '{"covers": []}',
        '{"elements": []}',
        '{"elements": [{"id": 0, "name": "x"}], "covers": []}',
        '{"elements": [{"id": 0}, {"id": 0}], "covers": []}',
        '{"elements": [{"id": 0}], "covers": [[0, 1]]}',
        '{"elements": [{"id": 0}], "covers": [[0]]}',
        '{"elements": [{"id": 0}, {"id": 1}], "covers": [], "functions": {"h": {"0": 1}}}',
        '{"elements": [{"id": 0}], "covers": [], "functions": {"h": {"0": true}}}',
        '{"elements": [{"id": 0}], "covers": [], "targets": [{"spot": 0}]}',
        '{"elements": [{"id": 0}], "covers": [], "targets": [{"node": 0, "count": 0}]}',
        '{"elements": [{"id": 0}, {"id": 1}], "covers": [], "targets": [{"edge": [0, 1]}]}',
        "[1, 2]",
    ],
)
def test_schema_violations_rejected(text):
    with pytest.raises(ParseError):
        PosetDocument.from_text(text)


@pytest.mark.parametrize(
    "alias", ["00", "-0", "+0", "01", "+1", " 1", "1 ", "1_0", "１"]
)
def test_non_canonical_function_ids_rejected(alias):
    # each alias reads as 0, 1 or 10 through int() and would overwrite that entry
    table = {"0": 5, "1": 6, "10": 7, alias: 8}
    text = json.dumps(
        {
            "elements": [{"id": 0}, {"id": 1}, {"id": 10}],
            "covers": [],
            "functions": {"h": table},
        }
    )
    with pytest.raises(ParseError, match="canonical"):
        PosetDocument.from_text(text)


def _doc(functions=None, targets=None, **keys) -> str:
    """A three-element chain document, with the given extra parts."""
    obj = {"elements": [{"id": 0}, {"id": 1}, {"id": 2}], "covers": [[0, 1], [1, 2]]}
    if functions is not None:
        obj["functions"] = functions
    if targets is not None:
        obj["targets"] = targets
    return json.dumps({**obj, **keys})


@pytest.mark.parametrize(
    "text, message",
    [
        (_doc(extra=1, more=2), "unknown document keys: ['extra', 'more']"),
        (
            '{"elements": [{"id": 0, "name": "x", "at": 1}], "covers": []}',
            "unknown element keys: ['at', 'name']",
        ),
        (_doc(covers=[[0, 1], [1, 7]]), "cover [1, 7] references unknown ids"),
        (_doc({"h": [1, 2, 3]}), "function 'h' must be an object"),
        (
            _doc({"h": {"0": 1, "01": 2, "2": 3}}),
            "function 'h' has a non-canonical id '01'",
        ),
        (
            _doc({"h": {"0": 1, "1": 1.5, "2": 3}}),
            "function 'h' has a non-integer value at id 1",
        ),
        (
            _doc({"h": {"0": 1, "1": 2, "2": 2**63}}),
            "function 'h' has a value outside int64 at id 2",
        ),
        (
            _doc({"h": {"0": 1, "2": 3}}),
            "function 'h' must assign a value to every element",
        ),
        (_doc(targets=[{"node": 0}, {"spot": 1}]), "unknown target keys: ['spot']"),
        (_doc(targets=[{"node": 0}, {"node": 5}]), "target node 5 unknown"),
        (
            _doc(targets=[{"edge": [0, 1]}, {"edge": [1, 9]}]),
            "target edge [1, 9] references unknown ids",
        ),
        (
            _doc(targets=[{"edge": [0, 2]}]),
            "target edge [0, 2] is not a cover of the poset",
        ),
    ],
    ids=[
        "document-keys", "element-keys", "cover-ids", "function-object",
        "non-canonical-id", "non-integer-value", "value-outside-int64",
        "function-domain", "target-keys", "target-node", "target-edge-ids",
        "target-edge-cover",
    ],
)
def test_parse_error_messages_name_the_first_bad_entry(text, message):
    with pytest.raises(ParseError) as err:
        PosetDocument.from_text(text)
    assert str(err.value) == message


def test_negative_function_ids_are_canonical():
    doc = PosetDocument.from_text(
        '{"elements": [{"id": -3}, {"id": 0}], "covers": [[-3, 0]],'
        ' "functions": {"h": {"-3": 1, "0": 2}}}'
    )
    assert doc.functions["h"] == {-3: 1, 0: 2}


@pytest.mark.parametrize(
    "text",
    [
        '{"elements": [], "covers": [], "covers": []}',
        '{"elements": [{"id": 0, "id": 1}], "covers": []}',
        '{"elements": [{"id": 0}], "covers": [], "functions": {"h": {"0": 1, "0": 2}}}',
        '{"elements": [{"id": 0}], "covers": [],'
        ' "functions": {"h": {"0": 1}, "h": {"0": 2}}}',
        '{"elements": [{"id": 0}], "covers": [], "targets": [{"node": 0, "node": 0}]}',
    ],
)
def test_duplicate_json_keys_rejected(text):
    with pytest.raises(ParseError, match="duplicate"):
        PosetDocument.from_text(text)


@pytest.mark.parametrize(
    "target",
    [{"node": True}, {"node": 1.0}, {"edge": [0, True]}, {"edge": [0.0, 1]}],
)
def test_bool_and_float_target_ids_rejected(target):
    # True == 1 and 1.0 == 1, so a membership test alone would accept these
    text = json.dumps(
        {"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1]], "targets": [target]}
    )
    with pytest.raises(ParseError):
        PosetDocument.from_text(text)


def test_cyclic_covers_rejected():
    with pytest.raises(CycleDetected):
        PosetDocument.from_text(
            '{"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1], [1, 0]]}'
        )


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        load("antichain3.json").function("h")


def test_target_counts_expand():
    doc = PosetDocument.from_text(
        '{"elements": [{"id": 0}, {"id": 1}], "covers": [[0, 1]],'
        ' "targets": [{"edge": [0, 1], "count": 3}, {"node": 0}]}'
    )
    assert len(doc.target_set()) == 4
    assert enumerate_targets(doc.network()) == 4


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["trellis.json", "antichain3.json", "chain5.json", "coned_circle.json", "empty.json"],
)
def test_fixture_round_trip_is_stable(name):
    text = (DATA / name).read_text()
    doc = PosetDocument.from_text(text)
    assert doc.to_text() == text
    again = PosetDocument.from_text(doc.to_text())
    assert again.to_obj() == doc.to_obj()
    assert again.poset().order_identical(doc.poset())


def test_fuzzed_round_trips():
    rng = random.Random(61)
    for _ in range(60):
        p = oracles.random_poset(rng, max_n=7, shuffle=True)
        obj = {
            "elements": [{"id": 3 * x + 1} for x in range(p.n)],
            "covers": [[3 * a + 1, 3 * b + 1] for a, b in p.covers],
        }
        if rng.random() < 0.5 and p.n:
            obj["functions"] = {
                "f": {str(3 * x + 1): rng.randint(-9, 9) for x in range(p.n)}
            }
        doc = PosetDocument.from_text(json.dumps(obj))
        again = PosetDocument.from_text(doc.to_text())
        assert again.to_obj() == doc.to_obj()
        assert again.poset().order_identical(doc.poset())


def test_unicode_labels_round_trip():
    doc = PosetDocument.from_text(
        '{"elements": [{"id": 0, "label": "källa"}, {"id": 1, "label": "дельта"}],'
        ' "covers": [[0, 1]]}'
    )
    again = PosetDocument.from_text(doc.to_text())
    assert again.labels == {0: "källa", 1: "дельта"}
    assert "källa" in to_dot(doc)


def test_redundant_covers_are_canonicalized_not_rejected():
    doc = PosetDocument.from_text(
        '{"elements": [{"id": 0}, {"id": 1}, {"id": 2}],'
        ' "covers": [[0, 1], [1, 2], [0, 2]]}'
    )
    assert doc.poset().covers == frozenset({(0, 1), (1, 2)})


# ----------------------------------------------------------------------
# DOT export
# ----------------------------------------------------------------------


def test_dot_trellis_annotated():
    doc = load("trellis.json")
    dot = to_dot(doc, "h")
    assert dot.count(" -> ") == 16
    assert dot.count("[label=") == 16  # 11 node labels + 5 target-edge labels
    assert '"t2:4"' in dot
    assert '"b3:1 *"' in dot  # node target marker
    assert 'n3 -> n0 [label="*"]' in dot  # edge target marker
    assert dot.index("rankdir=BT") < dot.index("n0 ")


def test_dot_without_function_uses_labels_only():
    dot = to_dot(load("trellis.json"))
    assert '"t2"' in dot and ":4" not in dot


def test_dot_empty_poset_is_valid_digraph():
    dot = to_dot(load("empty.json"))
    assert dot == "digraph hasse {\n  rankdir=BT;\n}\n"


def test_dot_unknown_function():
    with pytest.raises(UnknownFunction):
        to_dot(load("trellis.json"), "nope")


def test_dot_is_deterministic():
    doc = load("trellis.json")
    assert to_dot(doc, "h") == to_dot(load("trellis.json"), "h")


def test_dot_escapes_quotes_and_backslashes_in_labels():
    doc = PosetDocument.from_text(
        json.dumps(
            {
                "elements": [{"id": 0, "label": 'a"b'}, {"id": 1, "label": "c\\"}],
                "covers": [[0, 1]],
            }
        )
    )
    dot = to_dot(doc)
    assert '  n0 [label="a\\"b"];' in dot
    assert '  n1 [label="c\\\\"];' in dot
    # every node label is one well-formed DOT string
    node_lines = [line for line in dot.splitlines() if "[label=" in line]
    assert len(node_lines) == 2
    for line in node_lines:
        assert re.fullmatch(r'  n\d+ \[label="(?:[^"\\]|\\.)*"\];', line)
