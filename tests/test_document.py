import copy
import json
import pathlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# ----------------------------------------------------------------------
# the loader against the per-entry oracle
# ----------------------------------------------------------------------


class Id(int):
    """An int subclass, which only ``from_obj`` can be handed."""


ID_POOL = [*range(-4, 12), 40, 2**62, 2**63, -(2**63) - 1, 2**70, -(2**70), 2**70 + 1]
LABELS = ["källa", "дельта", 'a"b', "c\\", "", "L0.1", "🛰"]
VALUES = [-5, -1, 0, 1, 3, 7, 2**63 - 1, -(2**63)]


def random_document(rng):
    """A valid document object: sparse, negative and huge ids, unicode
    labels, duplicate and implied covers, node and edge targets."""
    n = rng.randint(0, 7)
    ids = rng.sample(ID_POOL, n)
    if rng.random() < 0.15:
        ids = [Id(x) for x in ids]
    label_share = rng.choice([0.0, 0.5, 1.0])
    elements = []
    for x in ids:
        entry = {"id": x, "label": rng.choice(LABELS)} if rng.random() < label_share else {"id": x}
        elements.append(dict(reversed(entry.items())) if rng.random() < 0.2 else entry)
    # ids in rng order, and every cover runs up that order: acyclic
    order = rng.sample(range(n), n)
    covers = [
        [ids[order[i]], ids[order[j]]]
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.4
    ]
    covers += [list(pair) for pair in rng.choices(covers, k=rng.randint(0, 2))] if covers else []
    rng.shuffle(covers)
    obj = {"elements": elements, "covers": covers}
    if rng.random() < 0.7:
        obj["functions"] = {}
        for name in rng.sample(["h", "g", "ё", "noisy"], rng.randint(0, 3)):
            keys = [str(x) for x in ids]
            rng.shuffle(keys)
            obj["functions"][name] = {key: rng.choice(VALUES) for key in keys}
    if rng.random() < 0.7 and n:
        dense = {x: i for i, x in enumerate(ids)}
        reach = oracles.reachability(n, [(dense[a], dense[b]) for a, b in covers])
        between = {(a, b) for a, c in reach for d, b in reach if c == d and a != c != b}
        hasse = [[ids[a], ids[b]] for a, b in sorted(reach - between) if a != b]
        targets = []
        for _ in range(rng.randint(0, 5)):
            if hasse and rng.random() < 0.5:
                entry = {"edge": list(rng.choice(hasse))}
            else:
                entry = {"node": rng.choice(ids)}
            if rng.random() < 0.3:
                entry["count"] = rng.randint(1, 3)
            targets.append(entry)
        obj["targets"] = targets
    return obj


def _known_ids(obj):
    """The integer ids of the well-formed elements."""
    return [
        entry["id"]
        for entry in obj["elements"]
        if isinstance(entry, dict) and type(entry.get("id")) in (int, Id)
    ]


def _outside(obj):
    """An integer that is no element id."""
    return max([0, *_known_ids(obj)]) + 1


def _some(rng, entries, kind=object):
    """The index of a random entry of type ``kind``, or None."""
    at = [i for i, entry in enumerate(entries) if isinstance(entry, kind)]
    return rng.choice(at) if at else None


def _fault_element(rng, obj):
    elements, ids = obj["elements"], _known_ids(obj)
    i = _some(rng, elements, dict)
    if i is None or "id" not in elements[i] or not ids:
        bad = [{"id": 1.0}, {"id": True}, {"label": "x"}, [0], {"id": 0, "label": None}]
        elements.append(rng.choice(bad))
        return
    entry = elements[i]
    kind = rng.randrange(6)
    if kind == 0:
        entry["id"] = rng.choice([True, False, 1.0, 0.5, str(entry["id"]), None])
    elif kind == 1:
        entry[rng.choice(["name", "at", "ID"])] = 1
    elif kind == 2:
        entry["label"] = rng.choice([None, 3, ["a"]])
    elif kind == 3:
        elements.insert(rng.randrange(len(elements) + 1), {"id": rng.choice(ids)})  # duplicate id
    elif kind == 4:
        del entry["id"]
    else:
        elements[i] = rng.choice([[entry["id"]], entry["id"], None])


def _fault_cover(rng, obj):
    covers, ids = obj["covers"], _known_ids(obj)
    kind = rng.randrange(6)
    i = _some(rng, covers, list)
    if kind == 0 and ids:  # a cycle: a self-loop or a cover back down a path
        pair = covers[i] if i is not None and len(covers[i]) == 2 else [ids[0], ids[0]]
        loop = [pair[1], pair[0]] if rng.random() < 0.6 else [pair[0]] * 2
        covers.insert(rng.randrange(len(covers) + 1), loop)
        return
    if i is None:
        covers.append(rng.choice([[0, _outside(obj)], [True, 0], "0,1", [0]]))
    elif kind == 1:
        covers[i][rng.randrange(len(covers[i]))] = _outside(obj)
    elif kind == 2:
        covers[i][rng.randrange(len(covers[i]))] = rng.choice([True, 1.0, None, "1"])
    elif kind == 3:
        covers[i] = rng.choice([covers[i][:1], covers[i] * 2, tuple(covers[i]), {"lower": 0}])
    else:
        covers[i] = covers[i][::-1]  # reversed: a cycle when kept elsewhere


def _fault_function(rng, obj):
    tables = obj.setdefault("functions", {})
    if not tables:
        tables["h"] = {str(x): 1 for x in _known_ids(obj)}
    name = rng.choice(list(tables))
    table = tables[name]
    keys = list(table) if isinstance(table, dict) else []
    kind = rng.randrange(6)
    if kind == 0 or not keys:
        tables[name] = rng.choice([[1, 2], None, 5]) if kind == 0 else {"x": 1}
    elif kind == 1:
        table[rng.choice(keys)] = rng.choice([True, 1.5, None, "1", 2**63, -(2**63) - 1, 2**70])
    elif kind == 2:  # a non-canonical alias of an id
        key = rng.choice(keys)
        alias = rng.choice(["0" + key, "+" + key, " " + key, key + " ", "-0", "１"])
        table[alias] = table.pop(key)
    elif kind == 3:
        del table[rng.choice(keys)]  # a missing entry
    elif kind == 4:
        table[str(_outside(obj))] = 0  # an unknown id
    else:
        tables[name] = dict(rng.sample(list(table.items()), len(table)))
        tables[name][rng.choice(["1_0", "abc", "", "1e3"])] = 0


def _fault_target(rng, obj):
    targets = obj.setdefault("targets", [])
    ids = _known_ids(obj)
    i = _some(rng, targets, dict)
    kind = rng.randrange(7)
    if i is None or kind == 0:
        bad = rng.choice([
            {"node": _outside(obj)}, {"node": True}, {"node": 1.0}, {"edge": [0.0, 1]},
            {"spot": 0}, {"count": 2}, {"node": 0, "edge": [0, 1]}, {"node": None}, [0],
            {"edge": ids[:2] if len(ids) > 1 else [0, 0]},  # often not a cover
        ])
        targets.insert(rng.randrange(len(targets) + 1), bad)
        return
    entry = targets[i]
    if kind == 1:
        entry["count"] = rng.choice([0, 0, -1, True, 1.0, None])
    elif kind == 2:
        entry[rng.choice(["spot", "nodes", "Count"])] = 0
    elif kind == 3 and isinstance(entry.get("edge"), list) and entry["edge"]:
        entry["edge"][rng.randrange(len(entry["edge"]))] = rng.choice([_outside(obj), True, 0.5])
    elif kind == 4 and ids:  # an edge that is no cover: a loop, or a reversed edge
        edge = entry.get("edge")
        entry.pop("node", None)
        if isinstance(edge, list) and len(edge) == 2 and rng.random() < 0.5:
            entry["edge"] = edge[::-1]
        else:
            entry["edge"] = [rng.choice(ids)] * 2
    elif kind == 5:
        entry["node" if "edge" in entry else "edge"] = rng.choice(ids) if ids else 0
    else:
        entry["node" if "node" in entry else "edge"] = rng.choice([None, [1], {"id": 0}])


FAULTS = [_fault_element, _fault_cover, _fault_function, _fault_target]


def _outcome(load, raw):
    try:
        got = load(raw)
    except Exception as exc:  # the type and text must match
        return type(exc), str(exc)
    if isinstance(got, PosetDocument):
        got = {
            "ids": got.ids, "labels": got.labels, "covers": got.covers,
            "functions": got.functions, "targets": got.targets, "leq": got.poset().leq,
        }
    got["leq"] = got["leq"].tolist()
    got["types"] = [type(x) for x in got["ids"]]
    return got


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2), st.booleans())
def test_loader_matches_the_per_entry_oracle(seed, faults, as_text):
    rng = random.Random(seed)
    raw = random_document(rng)
    section = rng.choice(FAULTS)
    for _ in range(faults):  # half the second faults land in the first's section
        section = section if rng.random() < 0.5 else rng.choice(FAULTS)
        section(rng, raw)
    if as_text:  # through the JSON decoder; int subclasses become ints
        text = json.dumps(raw, ensure_ascii=rng.random() < 0.5)
        want = _outcome(oracles.document_by_entries, json.loads(text))
        assert _outcome(PosetDocument.from_text, text) == want
    else:
        want = _outcome(oracles.document_by_entries, copy.deepcopy(raw))
        assert _outcome(PosetDocument.from_obj, raw) == want
