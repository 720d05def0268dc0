"""Command-line front end.

Subcommands: ``chi``, ``integrate``, ``reduce``, ``simulate`` and
``export-dot``.  Reports are deterministic given the same input and seed,
in plain text or JSON (``--json``).  Exit codes: 0 on success, 1 for
usage, parse or input errors, 2 when a mathematical verdict fails (for
example a simulation whose estimates miss the true count).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from .calculus import integrate, integrate_excursion
from .document import PosetDocument, to_dot
from .errors import EulerScanError, NegativeValues, NotMonotone
from .network import NoiseSpec, corrupt, enumerate_reduced, random_network
from .reduction import chi_minimal_model, core


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2 for verdicts
        raise _UsageError(message)


@dataclass
class RunReport:
    """One command's machine-readable outcome."""

    command: str
    results: dict
    input_name: str | None = None
    digest: str | None = None
    seed: int | None = None
    options: dict = field(default_factory=dict)
    verdict: str | None = None
    document: dict | None = None

    @property
    def exit_code(self) -> int:
        return 2 if self.verdict == "fail" else 0

    def to_obj(self) -> dict:
        out = {
            "command": self.command,
            "input": self.input_name,
            "digest": self.digest,
            "seed": self.seed,
            "options": self.options or None,
            "results": self.results,
            "verdict": self.verdict,
            "document": self.document,
        }
        return {key: value for key, value in out.items() if value is not None}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2, ensure_ascii=False) + "\n"

    def to_text(self) -> str:
        lines = []
        for key, value in _flatten(self.to_obj()):
            lines.append(f"{key}: {value}")
        return "\n".join(lines) + "\n"


def _flatten(obj, prefix=""):
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _flatten(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1], json.dumps(obj, ensure_ascii=False)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load(path: str) -> tuple[PosetDocument, str, str]:
    with open(path, "rb") as fh:
        data = fh.read()
    doc = PosetDocument.from_text(data.decode("utf-8"))
    return doc, os.path.basename(path), _digest(data)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------


def cmd_chi(doc: PosetDocument) -> RunReport:
    p = doc.poset()
    via_mobius = p.euler_characteristic()
    via_chains = p.euler_characteristic_by_chains()
    agree = via_mobius == via_chains
    return RunReport(
        command="chi",
        results={
            "chi_mobius": via_mobius,
            "chi_chains": via_chains,
            "routes_agree": agree,
        },
        verdict="pass" if agree else "fail",
    )


def cmd_integrate(doc: PosetDocument, function_name: str, route: str) -> RunReport:
    h = doc.function(function_name)
    results: dict = {"function": function_name, "route": route}
    verdict = "pass"
    if route in ("mobius", "both"):
        results["integral_mobius"] = integrate(h)
    if route == "excursion":
        results["integral_excursion"] = integrate_excursion(h)
    elif route == "both":
        try:
            results["integral_excursion"] = integrate_excursion(h)
            agree = results["integral_excursion"] == results["integral_mobius"]
            results["routes_agree"] = agree
            if not agree:
                verdict = "fail"
        except (NotMonotone, NegativeValues) as exc:
            results["integral_excursion"] = None
            results["excursion_skipped"] = type(exc).__name__
    return RunReport(
        command="integrate",
        options={"function": function_name, "route": route},
        results=results,
        verdict=verdict,
    )


def cmd_reduce(
    doc: PosetDocument, mode: str, tie_break: str, emit_document: bool = False
) -> RunReport:
    p = doc.poset()
    order = None if tie_break == "asc" else list(reversed(range(p.n)))
    report = core(p, order) if mode == "core" else chi_minimal_model(p, order)
    survivors = [doc.doc_id(x) for x in report.mapping]
    reduced_doc = None
    if emit_document:
        reduced_doc = PosetDocument.from_parts(
            ids=survivors,
            labels={d: doc.labels[d] for d in survivors if d in doc.labels},
            covers=[(survivors[a], survivors[b]) for a, b in report.result.covers],
            functions={
                name: {d: table[d] for d in survivors}
                for name, table in doc.functions.items()
            },
        ).to_obj()
    return RunReport(
        command="reduce",
        options={"mode": mode, "tie_break": tie_break},
        results={
            "removal_sequence": [
                [doc.doc_id(x), reason] for x, reason in report.removal_sequence
            ],
            "removed": len(report.removal_sequence),
            "surviving": survivors,
            "chi_before": p.euler_characteristic(),
            "chi_after": report.result.euler_characteristic(),
        },
        document=reduced_doc,
    )


def cmd_simulate(
    layers: str, density: float, targets: int, corrupt_mode: str, seed: int
) -> RunReport:
    sizes = _parse_layers(layers)
    net = random_network(sizes, density, targets, seed)
    true_count = net.target_count

    if corrupt_mode == "none":
        noise = NoiseSpec({})
    elif corrupt_mode == "chi-points":
        # the chi-points (R == 0) in ascending order, which fixes the noise draws
        chi_points = [x for x, r in enumerate(net.poset._row_sums()) if r == 0]
        noise = NoiseSpec.random(chi_points, seed=seed + 1000003)
    else:
        noise = NoiseSpec(_parse_corrupt_list(corrupt_mode))
    readings = corrupt(net, noise)

    full_estimate = integrate(readings)
    reduced_note = None
    try:
        reduced = enumerate_reduced(net, readings=readings)
        reduced_estimate = reduced.count
        support_size = len(reduced.support_ids)
    except (NotMonotone, NegativeValues) as exc:
        reduced_estimate = None
        support_size = None
        reduced_note = type(exc).__name__

    ok = full_estimate == true_count and reduced_estimate == true_count
    results = {
        "nodes": net.poset.n,
        "cover_edges": int(net.poset._hasse().sum()),
        "true_count": true_count,
        "corrupted": {str(k): noise.corrupted[k] for k in sorted(noise.corrupted)},
        "full_estimate": full_estimate,
        "reduced_estimate": reduced_estimate,
        "reduced_support_size": support_size,
    }
    if reduced_note:
        results["reduced_note"] = reduced_note
    params = f"layers={layers}&density={density}&targets={targets}&corrupt={corrupt_mode}&seed={seed}"
    return RunReport(
        command="simulate",
        digest=_digest(params.encode()),
        seed=seed,
        options={
            "layers": layers,
            "density": density,
            "targets": targets,
            "corrupt": corrupt_mode,
        },
        results=results,
        verdict="pass" if ok else "fail",
    )


def _parse_layers(text: str) -> list[int]:
    try:
        sizes = [int(part) for part in text.split("x")]
    except ValueError:
        raise _UsageError(f"bad --layers value {text!r}; expected e.g. 4x4x3") from None
    if not sizes or any(s < 0 for s in sizes):
        raise _UsageError(f"bad --layers value {text!r}")
    return sizes


def _parse_corrupt_list(text: str) -> dict[int, int]:
    table = {}
    for item in text.split(","):
        if "=" not in item:
            raise _UsageError(
                f"bad --corrupt value {text!r}; expected none, chi-points or ID=VALUE[,..]"
            )
        key, value = item.split("=", 1)
        try:
            element, reading = int(key), int(value)
        except ValueError:
            raise _UsageError(f"bad --corrupt entry {item!r}") from None
        if element in table:
            raise _UsageError(f"bad --corrupt value {text!r}: element {element} is given twice")
        table[element] = reading
    return table


# ----------------------------------------------------------------------
# argument parsing and dispatch
# ----------------------------------------------------------------------


@functools.cache  # built on first use, not at import; parse_args never mutates it
def _build_parser() -> _Parser:
    parser = _Parser(prog="euler-scan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True, help="poset document (JSON)")
        p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--json", action="store_true", help="emit a JSON report")

    p = sub.add_parser("chi", help="Euler characteristic by both routes")
    with_io(p)

    p = sub.add_parser("integrate", help="integrate a named function")
    with_io(p)
    p.add_argument("--function", required=True)
    p.add_argument("--route", choices=["mobius", "excursion", "both"], default="both")

    p = sub.add_parser("reduce", help="core or chi-minimal reduction")
    with_io(p)
    p.add_argument("--mode", choices=["core", "chi"], default="chi")
    p.add_argument("--tie-break", choices=["asc", "desc"], default="asc")
    p.add_argument("--emit-document", action="store_true")

    p = sub.add_parser("simulate", help="random network drill with optional noise")
    p.add_argument("--layers", required=True, help="layer sizes, e.g. 4x4x3")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--targets", type=int, default=0)
    p.add_argument("--corrupt", default="none", help="none | chi-points | ID=VALUE[,..]")
    p.add_argument("--seed", type=int, required=True)
    with_io(p, needs_input=False)

    p = sub.add_parser("export-dot", help="Hasse diagram as DOT")
    p.add_argument("--input", required=True)
    p.add_argument("--function", default=None)
    p.add_argument("--output")

    return parser


def _emit(text: str, output: str | None):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "simulate":
            report = cmd_simulate(
                args.layers, args.density, args.targets, args.corrupt, args.seed
            )
        else:
            doc, name, digest = _load(args.input)
            if args.command == "export-dot":
                _emit(to_dot(doc, args.function), args.output)
                return 0
            if args.command == "chi":
                report = cmd_chi(doc)
            elif args.command == "integrate":
                report = cmd_integrate(doc, args.function, args.route)
            else:  # reduce
                report = cmd_reduce(doc, args.mode, args.tie_break, args.emit_document)
            report.input_name, report.digest = name, digest
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (EulerScanError, OSError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _emit(report.to_json() if args.json else report.to_text(), args.output)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
