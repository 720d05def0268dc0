"""Spans around the public functions of eulerscan, recorded from outside.

The benchmark does not edit the library.  Instead it replaces each
function listed in ``TARGETS`` with a wrapper, in every ``eulerscan``
namespace that holds it: ``cli`` and ``network`` import
``chi_minimal_model`` by name, ``cli`` imports ``integrate``, and the
package re-exports almost everything.  Methods are replaced on their
class.  :func:`install` does the replacing and returns an undo function;
:class:`Tracer` supplies span-recording wrappers, and the tests supply a
fault-injecting one.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from typing import Callable

# module -> public callables wrapped there ("Class.method" for methods)
TARGETS = {
    "poset": (
        "Poset.from_covers",
        "Poset.mobius",
        "Poset.euler_characteristic_by_chains",
        "Poset.chi_of",
        "Poset.induced_subposet",
    ),
    "reduction": ("chi_minimal_model", "core"),
    "calculus": ("integrate", "integrate_excursion", "pushforward"),
    "network": (
        "random_network",
        "counting_function",
        "corrupt",
        "enumerate_reduced",
        "sensor_placement_plan",
    ),
    "document": ("PosetDocument.from_text", "to_dot"),
    "cli": ("main",),
}


def span_names() -> list[str]:
    """Every wrapped callable as ``<module>.<function>``."""
    return [f"{mod}.{q.split('.')[-1]}" for mod, names in TARGETS.items() for q in names]


def install(make_wrapper) -> Callable[[], None]:
    """Replace every target with ``make_wrapper(span_name, original)``.

    Returns a function that puts the originals back.
    """
    loaded = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "eulerscan"]
    undo: list[tuple[object, str, object]] = []
    for mod_name, qualnames in TARGETS.items():
        mod = sys.modules[f"eulerscan.{mod_name}"]
        for qualname in qualnames:
            name = f"{mod_name}.{qualname.split('.')[-1]}"
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(make_wrapper(name, raw.__func__))
                else:
                    new = make_wrapper(name, raw)
                undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            original = getattr(mod, qualname)
            wrapper = make_wrapper(name, original)
            for holder in loaded:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        undo.append((holder, attr, original))
                        setattr(holder, attr, wrapper)

    def restore():
        for holder, attr, value in reversed(undo):
            setattr(holder, attr, value)

    return restore


class Tracer:
    """Records one span per wrapped call made while an op is open.

    A span is ``[name, start, end, parent span index, op id]``.  Per name
    it keeps inclusive time, self time (inclusive time minus the time of
    its child spans) and calls, plus the counts in ``_count``, all read
    from arguments and return values.  Calls made outside an op (set-up
    and the correctness checks) pass straight through.
    """

    def __init__(self, shared_posets=()):
        self.spans: list[list] = []
        self.totals = defaultdict(lambda: [0.0, 0.0, 0])  # name -> [s, self_s, calls]
        self.counts = defaultdict(int)
        self.op = None
        self._stack: list[list] = []  # [span index, child time]
        # Posets that set-up built once and every op reads
        self._shared = {id(p): p for p in shared_posets}
        self._mobius_seen: dict[int, object] = {}
        self._reduced: dict[tuple, object] = {}

    def begin_op(self, op_id):
        self.op = op_id
        self._mobius_seen = dict(self._shared)
        self._reduced = {}

    def end_op(self):
        self.op = None
        self._mobius_seen = {}
        self._reduced = {}

    def wrapper(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            index = len(self.spans)
            self._count(name, args, kwargs)
            start = time.perf_counter()
            span = [name, start, None, parent, self.op]
            self.spans.append(span)
            self._stack.append([index, 0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _, child_time = self._stack.pop()
                elapsed = end - start
                span[2] = end
                if self._stack:
                    self._stack[-1][1] += elapsed
                total = self.totals[name]
                total[0] += elapsed
                total[1] += elapsed - child_time
                total[2] += 1
            self._count_result(name, result)
            return result

        return traced

    def _count(self, name, args, kwargs):
        c = self.counts
        if name == "poset.from_covers":
            c["poset.from_covers.n"] += int(args[1] if len(args) > 1 else kwargs["n"])
        elif name == "poset.mobius":
            poset = args[0]
            c["poset.mobius.hits"] += id(poset) in self._mobius_seen
            self._mobius_seen[id(poset)] = poset
        elif name == "poset.chi_of":
            c["poset.chi_of.elements"] += len(args[1] if len(args) > 1 else kwargs["s"])
        elif name == "reduction.chi_minimal_model":
            poset = args[0]
            tie_break = args[1] if len(args) > 1 else kwargs.get("tie_break")
            key = (id(poset), None if tie_break is None else tuple(tie_break))
            c["reduction.chi_minimal_model.repeats"] += key in self._reduced
            self._reduced[key] = poset
        elif name == "calculus.integrate_excursion":
            h = args[0] if args else kwargs["h"]
            c["calculus.integrate_excursion.levels"] += len(set(h.values.tolist()) - {0})
        elif name == "document.from_text":
            text = args[1] if len(args) > 1 else kwargs["text"]
            c["document.from_text.bytes"] += len(text.encode("utf-8"))

    def _count_result(self, name, result):
        if name in ("reduction.chi_minimal_model", "reduction.core"):
            self.counts[f"{name}.removed"] += len(result.removal_sequence)

    def metrics(self) -> dict:
        """Per-layer metrics, as ``{name: (value, unit)}``."""
        out = {}
        for name in span_names():
            s, self_s, calls = self.totals[name]
            out[f"{name}.s"] = (s, "s")
            out[f"{name}.self_s"] = (self_s, "s")
            out[f"{name}.calls"] = (calls, "count")
        c = self.counts
        for key in (
            "poset.from_covers.n",
            "poset.chi_of.elements",
            "reduction.chi_minimal_model.removed",
            "reduction.core.removed",
            "calculus.integrate_excursion.levels",
            "document.from_text.bytes",
        ):
            out[key] = (c[key], "count")
        out["poset.mobius.hit_ratio"] = (
            _ratio(c["poset.mobius.hits"], self.totals["poset.mobius"][2]),
            "ratio",
        )
        out["reduction.chi_minimal_model.repeat_ratio"] = (
            _ratio(
                c["reduction.chi_minimal_model.repeats"],
                self.totals["reduction.chi_minimal_model"][2],
            ),
            "ratio",
        )
        return out

    def top_self_time(self) -> tuple[str, float]:
        name = max(self.totals, key=lambda k: self.totals[k][1])
        return name, self.totals[name][1]

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": index, "name": name, "start": start, "end": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0
