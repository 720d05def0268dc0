"""The benchmark's three workloads.

Each workload makes its inputs from a seed during set-up and lays out a
fixed cycle of *slots*, one op each.  The timed loop runs the slots in
order, wrapping round, so a run of any length sees the same mix.  Every
op goes through the public API; ``check`` verifies its output against
what the benchmark generated, outside the timed call.

Slot costs are stratified rather than drawn at random: the shape grid
is fixed and the seed only moves covers, drill layer widths (at a fixed
total), targets and noise.  A quarter of the drill ops belong to the
most expensive shape class, so the 90th percentile falls inside one
class and stays put from seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from collections import Counter

# --------------------------------------------------------------------------
# sizes: the benchmark's own, and tiny ones for the smoke test
# --------------------------------------------------------------------------

FULL = {
    # (layers, mean width, density); n = layers * mean width = 32..104
    "drill_light": [
        (layers, width, density)
        for layers in range(4, 9)
        for width, density in ((8, 0.04), (10, 0.15), (13, 0.095))
    ],
    "drill_heavy": (8, 16, 0.095),  # n = 128
    "drill_widths": (8, 28),
    "drill_targets": (0, 60),
    "drill_rounds": 6,
    "doc_sizes": (96, 120, 144),
    "doc_layers": 6,
    "doc_density": 0.1,
    "doc_targets": (20, 60),
    "doc_rounds": 6,
    "net_layers": 8,
    "net_n": 240,
    "net_density": 0.1,
    "snapshots": 40,
    "snapshot_targets": (20, 60),
}

SMOKE = {
    "drill_light": [(2, 3, 0.5), (3, 2, 0.5), (2, 2, 0.5)],
    "drill_heavy": (3, 4, 0.5),
    "drill_widths": (1, 6),
    "drill_targets": (0, 5),
    "drill_rounds": 1,
    "doc_sizes": (8, 10),
    "doc_layers": 3,
    "doc_density": 0.5,
    "doc_targets": (1, 5),
    "doc_rounds": 1,
    "net_layers": 3,
    "net_n": 12,
    "net_density": 0.5,
    "snapshots": 4,
    "snapshot_targets": (1, 6),
}


NETWORK_SEED = 1605  # the one network of the readings workload


def _widths(rng: random.Random, total: int, parts: int, lo: int, hi: int) -> list[int]:
    """A random composition of total into parts, each within [lo, hi]."""
    widths = [lo] * parts
    for _ in range(total - lo * parts):
        open_parts = [i for i in range(parts) if widths[i] < hi]
        widths[rng.choice(open_parts)] += 1
    return widths


def _even_widths(total: int, parts: int) -> list[int]:
    """Layers as equal as total allows.  Uneven layers make the cost of an
    op swing with the seed far more than the structure within a layer."""
    return [total // parts + (i < total % parts) for i in range(parts)]


def _run_cli(es, argv: list[str]) -> tuple[int, str]:
    """``eulerscan.cli.main(argv)`` in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = es.cli.main(argv)
    return code, out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Drill:
    """``simulate --corrupt chi-points --json`` over seeded network shapes.

    The paper's headline use: each op builds a fresh network, corrupts
    its chi-points and counts targets twice.  ``chi_minimal_model`` runs
    twice per op and dominates; sizes cross the n=60 dtype switch.
    """

    def __init__(self, es, seed: int, sizes: dict, workdir: str):
        self.es = es
        self.shared_posets = ()
        rng = random.Random(seed)
        cycle = []
        for i, shape in enumerate(sizes["drill_light"]):
            cycle.append(shape)
            if i % 3 == 2:  # one heavy slot after every third light one
                cycle.append(sizes["drill_heavy"])
        lo, hi = sizes["drill_widths"]
        self.slots = []
        for _ in range(sizes["drill_rounds"]):
            for layers, width, density in cycle:
                widths = _widths(rng, layers * width, layers, lo, hi)
                targets = rng.randint(*sizes["drill_targets"])
                argv = [
                    "simulate",
                    "--layers", "x".join(map(str, widths)),
                    "--density", repr(density),
                    "--targets", str(targets),
                    "--corrupt", "chi-points",
                    "--json",
                    "--seed", str(rng.randrange(2**31)),
                ]
                self.slots.append((argv, targets))

    def run(self, slot):
        return _run_cli(self.es, slot[0])

    def check(self, slot, output) -> str | None:
        code, text = output
        if code != 0:
            return f"exit code {code}"
        report = json.loads(text)
        results = report["results"]
        want = slot[1]
        got = [results[k] for k in ("true_count", "full_estimate", "reduced_estimate")]
        if got != [want] * 3 or report["verdict"] != "pass":
            return f"asked for {want} targets, got {got} ({report['verdict']})"
        return None

    def digest(self, output) -> str:
        return _sha256(output[1])


class Documents:
    """One CLI command on one layered document per op.

    Covers parsing, order closure, the full Moebius table, the chain
    route and ``core``, none of which the drill stresses.
    """

    COMMANDS = (
        ("chi", ["chi", "--json"]),
        ("integrate", ["integrate", "--function", "h", "--route", "both", "--json"]),
        ("core", ["reduce", "--mode", "core", "--json"]),
        ("chi-model", ["reduce", "--mode", "chi", "--emit-document", "--json"]),
        ("dot", ["export-dot"]),
    )

    def __init__(self, es, seed: int, sizes: dict, workdir: str):
        self.es = es
        self.shared_posets = ()
        rng = random.Random(seed)
        os.makedirs(workdir, exist_ok=True)
        layers = sizes["doc_layers"]
        self.docs = []
        for index in range(sizes["doc_rounds"] * len(sizes["doc_sizes"])):
            n = sizes["doc_sizes"][index % len(sizes["doc_sizes"])]
            widths = _even_widths(n, layers)
            targets = rng.randint(*sizes["doc_targets"])
            net = es.random_network(widths, sizes["doc_density"], targets, rng.randrange(2**31))
            path = os.path.join(workdir, f"doc-{index:02d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self._document(es, net, widths).to_text())
            self.docs.append({"path": path, "n": n, "covers": len(net.poset.covers), "targets": targets})
        self.slots = [
            (doc, name, argv[:1] + ["--input", doc["path"]] + argv[1:])
            for doc in self.docs
            for name, argv in self.COMMANDS
        ]

    @staticmethod
    def _document(es, net, widths):
        """Document ids are dense ids + 1; labels name the layer."""
        labels = {}
        for layer, width in enumerate(widths):
            for k in range(width):
                labels[len(labels) + 1] = f"L{layer}.{k}"
        targets = [
            ("node", pos.node + 1, count)
            if pos.kind == "node"
            else ("edge", (pos.edge[0] + 1, pos.edge[1] + 1), count)
            for pos, count in sorted(Counter(net.targets.positions).items())
        ]
        values = net.counting.values.tolist()
        return es.PosetDocument.from_parts(
            ids=labels,
            labels=labels,
            covers=[(a + 1, b + 1) for a, b in net.poset.covers],
            functions={"h": {x + 1: v for x, v in enumerate(values)}},
            targets=targets,
        )

    def run(self, slot):
        return _run_cli(self.es, slot[2])

    def check(self, slot, output) -> str | None:
        doc, name, _ = slot
        code, text = output
        if code != 0:
            return f"{name}: exit code {code}"
        if name == "dot":
            lines = text.splitlines()
            nodes = sum(1 for line in lines if line.startswith("  n") and "[label=" in line and "->" not in line)
            edges = sum(1 for line in lines if "->" in line)
            if (nodes, edges) != (doc["n"], doc["covers"]):
                return f"dot: {nodes} nodes and {edges} edges, want {doc['n']} and {doc['covers']}"
            return None
        results = json.loads(text)["results"]
        if name == "chi":
            if results["chi_mobius"] != results["chi_chains"]:
                return f"chi: routes disagree {results}"
        elif name == "integrate":
            got = (results["integral_mobius"], results["integral_excursion"])
            if got != (doc["targets"],) * 2:
                return f"integrate: got {got}, want {doc['targets']}"
        else:
            if results["chi_before"] != results["chi_after"]:
                return f"{name}: chi {results['chi_before']} -> {results['chi_after']}"
            if results["removed"] + len(results["surviving"]) != doc["n"]:
                return f"{name}: removed + surviving != {doc['n']}"
        return None

    def digest(self, output) -> str:
        return _sha256(output[1])


class Readings:
    """Snapshots of fresh targets on one shared network.

    Set-up builds the network, its Moebius table, the sensor placement
    plan and a layer projection onto a chain.  Each op counts one
    snapshot: counting function, corruption outside the plan, the
    Moebius integral of the noisy readings, the excursion integral of
    the honest ones, and their pushforward onto the chain.
    """

    def __init__(self, es, seed: int, sizes: dict, workdir: str):
        self.es = es
        # The network is the same for every seed; the seed draws the
        # snapshots.  Which network is drawn moves the cost of an op by
        # about 20%, which would swamp run-to-run comparisons, while drill
        # and documents already cover many structures.
        layers = sizes["net_layers"]
        widths = _even_widths(sizes["net_n"], layers)
        poset = es.random_network(widths, sizes["net_density"], 0, NETWORK_SEED).poset
        poset.mobius()
        plan = es.sensor_placement_plan(poset)
        layer_of = [layer for layer, width in enumerate(widths) for _ in range(width)]
        chain = es.Poset.from_covers(layers, [(i, i + 1) for i in range(layers - 1)])
        self.poset = poset
        self.layer_map = es.PosetMap(poset, chain, layer_of)
        self.shared_posets = (poset,)

        rng = random.Random(seed)
        spots = [es.TargetPosition.at_node(x) for x in range(poset.n)]
        spots += [es.TargetPosition.on_edge(a, b) for a, b in sorted(poset.covers)]
        unplanned = [x for x in range(poset.n) if x not in plan]
        lo, hi = sizes["snapshot_targets"]
        k = sizes["snapshots"]
        counts = [lo + (hi - lo) * i // (k - 1) for i in range(k)]
        counts = [c for start in range(4) for c in counts[start::4]]  # every stretch spans lo..hi
        self.slots = []
        for count in counts:
            targets = es.TargetSet.of(spots[rng.randrange(len(spots))] for _ in range(count))
            noise = es.NoiseSpec({x: rng.randint(-100, 100) for x in unplanned})
            self.slots.append((targets, noise))

    def run(self, slot):
        es = self.es
        targets, noise = slot
        net = es.SensorNetwork(self.poset, targets)
        noisy = es.integrate(es.corrupt(net, noise))
        excursion = es.integrate_excursion(net.counting)
        pushed = es.pushforward(self.layer_map, net.counting)
        return noisy, excursion, pushed

    def check(self, slot, output) -> str | None:
        noisy, excursion, pushed = output
        want = len(slot[0])
        got = (noisy, excursion, self.es.integrate(pushed))
        if got != (want,) * 3:
            return f"snapshot of {want} targets counted as {got}"
        return None

    def digest(self, output) -> str:
        noisy, excursion, pushed = output
        return _sha256(json.dumps([noisy, excursion, pushed.values.tolist()]))


WORKLOADS = {"drill": Drill, "documents": Documents, "readings": Readings}
