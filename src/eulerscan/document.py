"""JSON documents describing a poset, named functions and targets.

The document is the single interchange format of the command-line tool:
UTF-8 JSON with the keys ``elements``, ``covers`` and the optional
``functions`` and ``targets``.  Element ids only need to be unique;
internally they are mapped onto the dense ids posets use.  Unknown keys
are rejected so that typos fail loudly.  Serialization is canonical
(sorted ids, covers, function names), which makes documents diffable and
output files byte-stable.
"""

from __future__ import annotations

import json
import operator
import re
from collections import Counter
from typing import Iterable, Mapping

from .calculus import PosetFunction
from .errors import ParseError, UnknownFunction
from .network import SensorNetwork, TargetPosition, TargetSet
from .poset import Poset

_TOP_KEYS = {"elements", "covers", "functions", "targets"}
# str(id) for an integer id; "00", "+1", "-0" or " 1" would alias another key
_CANONICAL_ID = re.compile(r"0|-?[1-9][0-9]*")


def _expect(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _is_int(value: object) -> bool:
    """JSON integers only: bools and floats are not ids or values."""
    return isinstance(value, int) and not isinstance(value, bool)


def _no_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        duplicates = sorted(key for key, count in counts.items() if count > 1)
        raise ParseError(f"duplicate JSON keys: {duplicates}")
    return obj


class PosetDocument:
    """Parsed, validated document contents keyed by document ids."""

    def __init__(
        self,
        ids: tuple[int, ...],
        labels: dict[int, str],
        covers: tuple[tuple[int, int], ...],
        functions: dict[str, dict[int, int]],
        targets: tuple[tuple[str, object, int], ...] | None,
    ):
        self.ids = ids
        self.labels = labels
        self.covers = covers
        self.functions = functions
        self.targets = targets
        self._dense = {doc: i for i, doc in enumerate(ids)}
        self._poset: Poset | None = None

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "PosetDocument":
        try:
            raw = json.loads(text, object_pairs_hook=_no_duplicate_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
        return cls.from_obj(raw)

    @classmethod
    def from_file(cls, path: str) -> "PosetDocument":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_obj(cls, raw: object) -> "PosetDocument":
        _expect(isinstance(raw, dict), "document must be a JSON object")
        unknown = set(raw) - _TOP_KEYS
        if unknown:
            raise ParseError(f"unknown document keys: {sorted(unknown)}")
        _expect("elements" in raw, "document is missing 'elements'")
        _expect("covers" in raw, "document is missing 'covers'")

        _expect(isinstance(raw["elements"], list), "'elements' must be a list")
        ids: list[int] = []
        labels: dict[int, str] = {}
        for entry in raw["elements"]:
            _expect(isinstance(entry, dict), "each element must be an object")
            extra = set(entry) - {"id", "label"}
            if extra:
                raise ParseError(f"unknown element keys: {sorted(extra)}")
            _expect(_is_int(entry.get("id")), "element ids must be integers")
            ids.append(entry["id"])
            if "label" in entry:
                _expect(isinstance(entry["label"], str), "labels must be strings")
                labels[entry["id"]] = entry["label"]
        _expect(len(set(ids)) == len(ids), "element ids must be unique")
        id_set = set(ids)

        _expect(isinstance(raw["covers"], list), "'covers' must be a list")
        covers: list[tuple[int, int]] = []
        for pair in raw["covers"]:
            _expect(
                isinstance(pair, list) and len(pair) == 2 and all(map(_is_int, pair)),
                "each cover must be a [lower, upper] id pair",
            )
            if not (pair[0] in id_set and pair[1] in id_set):
                raise ParseError(f"cover {pair} references unknown ids")
            covers.append((pair[0], pair[1]))

        functions: dict[str, dict[int, int]] = {}
        if "functions" in raw:
            _expect(isinstance(raw["functions"], dict), "'functions' must be an object")
            for name, table in raw["functions"].items():
                if not isinstance(table, dict):
                    raise ParseError(f"function {name!r} must be an object")
                parsed: dict[int, int] = {}
                for key, value in table.items():
                    if _CANONICAL_ID.fullmatch(key) is None:
                        raise ParseError(
                            f"function {name!r} has a non-canonical id {key!r}"
                        )
                    if not _is_int(value):
                        raise ParseError(
                            f"function {name!r} has a non-integer value at id {key}"
                        )
                    if not -(2**63) <= value < 2**63:
                        raise ParseError(
                            f"function {name!r} has a value outside int64 at id {key}"
                        )
                    parsed[int(key)] = value
                if set(parsed) != id_set:
                    raise ParseError(
                        f"function {name!r} must assign a value to every element"
                    )
                functions[name] = parsed

        targets = None
        if "targets" in raw:
            _expect(isinstance(raw["targets"], list), "'targets' must be a list")
            parsed_targets = []
            for entry in raw["targets"]:
                _expect(isinstance(entry, dict), "each target must be an object")
                extra = set(entry) - {"node", "edge", "count"}
                if extra:
                    raise ParseError(f"unknown target keys: {sorted(extra)}")
                count = entry.get("count", 1)
                _expect(
                    _is_int(count) and count >= 1,
                    "target count must be a positive integer",
                )
                if "node" in entry:
                    _expect("edge" not in entry, "a target is a node or an edge, not both")
                    if not (_is_int(entry["node"]) and entry["node"] in id_set):
                        raise ParseError(f"target node {entry['node']} unknown")
                    parsed_targets.append(("node", entry["node"], count))
                elif "edge" in entry:
                    edge = entry["edge"]
                    _expect(
                        isinstance(edge, list)
                        and len(edge) == 2
                        and all(map(_is_int, edge)),
                        "target edge must be a [lower, upper] id pair",
                    )
                    if not (edge[0] in id_set and edge[1] in id_set):
                        raise ParseError(f"target edge {edge} references unknown ids")
                    parsed_targets.append(("edge", (edge[0], edge[1]), count))
                else:
                    raise ParseError("each target needs a 'node' or an 'edge'")
            targets = tuple(parsed_targets)

        doc = cls(
            ids=tuple(sorted(ids)),
            labels=labels,
            covers=tuple(sorted(covers)),
            functions={k: functions[k] for k in sorted(functions)},
            targets=targets,
        )
        doc._validate_semantics()
        return doc

    def _validate_semantics(self):
        poset = self.poset()  # raises CycleDetected on cyclic covers
        if self.targets is not None:
            for kind, where, _count in self.targets:
                if kind == "edge":
                    dense = (self._dense[where[0]], self._dense[where[1]])
                    if not poset._is_cover(dense):
                        raise ParseError(
                            f"target edge {list(where)} is not a cover of the poset"
                        )

    # ------------------------------------------------------------------
    # conversion
    # ------------------------------------------------------------------

    def poset(self) -> Poset:
        if self._poset is None:
            dense_covers = [
                (self._dense[a], self._dense[b]) for a, b in self.covers
            ]
            label_row = tuple(
                self.labels.get(doc, str(doc)) for doc in self.ids
            )
            self._poset = Poset.from_covers(len(self.ids), dense_covers, label_row)
        return self._poset

    def doc_id(self, dense: int) -> int:
        return self.ids[dense]

    def dense_id(self, doc: int) -> int:
        return self._dense[doc]

    def function(self, name: str) -> PosetFunction:
        if name not in self.functions:
            raise UnknownFunction(f"document has no function named {name!r}")
        table = self.functions[name]
        return PosetFunction(self.poset(), [table[doc] for doc in self.ids])

    def target_set(self) -> TargetSet:
        positions = []
        for kind, where, count in self.targets or ():
            if kind == "node":
                pos = TargetPosition.at_node(self._dense[where])
            else:
                pos = TargetPosition.on_edge(self._dense[where[0]], self._dense[where[1]])
            positions.extend([pos] * count)
        return TargetSet.of(positions)

    def network(self) -> SensorNetwork:
        return SensorNetwork(self.poset(), self.target_set())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def to_obj(self) -> dict:
        out: dict = {
            "elements": [
                {"id": doc, "label": self.labels[doc]}
                if doc in self.labels
                else {"id": doc}
                for doc in self.ids
            ],
            "covers": [list(pair) for pair in sorted(self.covers)],
        }
        if self.functions:
            out["functions"] = {
                name: {str(doc): table[doc] for doc in sorted(table)}
                for name, table in self.functions.items()
            }
        if self.targets is not None:
            rendered = []
            for kind, where, count in sorted(self.targets):
                entry: dict = {kind: where if kind == "node" else list(where)}
                if count != 1:
                    entry["count"] = count
                rendered.append(entry)
            out["targets"] = rendered
        return out

    def to_text(self) -> str:
        return json.dumps(self.to_obj(), indent=2, ensure_ascii=False) + "\n"

    @classmethod
    def from_parts(
        cls,
        ids: Iterable[int],
        labels: Mapping[int, str] | None = None,
        covers: Iterable[tuple[int, int]] = (),
        functions: Mapping[str, Mapping[int, int]] | None = None,
        targets: Iterable[tuple[str, object, int]] | None = None,
    ) -> "PosetDocument":
        return cls(
            ids=tuple(sorted(operator.index(i) for i in ids)),
            labels=dict(labels or {}),
            covers=tuple(sorted((operator.index(a), operator.index(b)) for a, b in covers)),
            functions={
                name: {operator.index(k): operator.index(v) for k, v in table.items()}
                for name, table in sorted((functions or {}).items())
            },
            targets=tuple(targets) if targets is not None else None,
        )


# ----------------------------------------------------------------------
# DOT export
# ----------------------------------------------------------------------


def to_dot(doc: PosetDocument, function_name: str | None = None) -> str:
    """Render the Hasse diagram as a deterministic DOT digraph.

    Nodes appear in id order, one rank per level; with a function name
    every node label becomes ``label:value``.  Node targets append one
    asterisk per target to the node label; edge targets become asterisk
    edge labels.  Backslashes and double quotes in labels are escaped.
    """
    poset = doc.poset()
    values = doc.function(function_name) if function_name is not None else None

    node_stars: dict[int, int] = {}
    edge_stars: dict[tuple[int, int], int] = {}
    for kind, where, count in doc.targets or ():
        if kind == "node":
            node_stars[where] = node_stars.get(where, 0) + count
        else:
            key = (where[0], where[1])
            edge_stars[key] = edge_stars.get(key, 0) + count

    lines = ["digraph hasse {", "  rankdir=BT;"]
    for doc_id in doc.ids:
        dense = doc.dense_id(doc_id)
        label = doc.labels.get(doc_id, str(doc_id))
        if values is not None:
            label = f"{label}:{values[dense]}"
        if doc_id in node_stars:
            label += " " + "*" * node_stars[doc_id]
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{doc_id} [label="{label}"];')

    # level k of the poset, the elements whose longest chain below has k
    # steps, is rank k
    for level in poset._level_sets():
        doc_ids = sorted(doc.doc_id(x) for x in level.tolist())
        row = "; ".join(f"n{doc_id}" for doc_id in doc_ids)
        lines.append(f"  {{ rank=same; {row}; }}")

    kept = {
        (doc.doc_id(a), doc.doc_id(b)) for a, b in poset.covers
    }
    for a, b in sorted(kept):
        stars = edge_stars.get((a, b), 0)
        suffix = f' [label="{"*" * stars}"]' if stars else ""
        lines.append(f"  n{a} -> n{b}{suffix};")
    lines.append("}")
    return "\n".join(lines) + "\n"
