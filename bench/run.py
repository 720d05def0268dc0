"""The eulerscan benchmark: one workload per run, one client in a closed loop.

    python3 bench/run.py --workload drill|documents|readings \\
        --seed N --seconds S --trace 0|1 [--smoke]

Without ``--workload`` it runs every workload in turn, each in a process
of its own.

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it runs one cycle of the
workload's ops untraced and the same cycle traced, and reports per-layer
metrics.  Human-readable lines go first; the last line of stdout is the
result as one JSON object.  Spans and a copy of the result, with the
environment, are written under ``.bench_out/``.

``--write-reference`` runs every slot of every workload once with the
default seed and pins the sha256 of each output in ``reference.json``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 1
SETUP_REPEATS = 3
TIMING_SCOPE = (
    "per-process timing only (time.perf_counter, getrusage); "
    "no system-wide profiling and no page-cache dropping"
)


def _start_s() -> float:
    """Wall time for a fresh interpreter to start and import the program."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import eulerscan.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, SRC], check=True, timeout=120)
    return time.perf_counter() - start


def _import_program():
    """Import eulerscan from this checkout's ``src/``, or exit with a message."""
    package = os.path.join(SRC, "eulerscan", "__init__.py")
    if not os.path.isfile(package):
        sys.exit(f"bench: {package} not found; run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import eulerscan
    import eulerscan.cli  # noqa: F401

    if os.path.dirname(os.path.abspath(eulerscan.__file__)) != os.path.dirname(package):
        sys.exit(f"bench: imported eulerscan from {eulerscan.__file__}, not from {SRC}")
    return eulerscan


def _environment(args) -> dict:
    import numpy

    digest = hashlib.sha256()
    package = os.path.join(SRC, "eulerscan")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "timing": TIMING_SCOPE,
    }


class Runner:
    """Runs slots, times the public call alone, and checks each output.

    With a tracer set, spans are recorded for the call but not for the
    check that follows it.
    """

    def __init__(self, workload, reference: list | None):
        self.workload = workload
        self.reference = reference
        self.tracer = None
        self.attempted = 0
        self.failed = 0

    def op(self, index: int) -> float:
        """Run slot ``index`` once; return the latency of the call."""
        wl = self.workload
        slot = wl.slots[index]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op(index)
        start = time.perf_counter()
        try:
            output, problem = wl.run(slot), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            output, problem = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_op()
        if problem is None:
            try:
                problem = wl.check(slot, output)
            except Exception as exc:  # output the check cannot read
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is None and self.reference is not None:
            if wl.digest(output) != self.reference[index]:
                problem = "output differs from the pinned sha256"
        if problem is not None:
            self.failed += 1
            print(f"bench: slot {index} failed: {problem}", file=sys.stderr)
        return elapsed


def _seconds(times: list[float]) -> str:
    return ", ".join(f"{t:.3f}" for t in times) + " s"


def _percentile_name(latencies: list[float]) -> tuple[str, float]:
    """The 90th percentile when there are >= 100 samples; otherwise the
    highest percentile with at least ten samples beyond it."""
    n = len(latencies)
    if n >= 100:
        return "op_p90_s", statistics.quantiles(latencies, n=10)[-1]
    q = int(100 * (1 - 10 / n)) if n > 10 else 0
    if q <= 50:
        return "op_p50_s", statistics.median(latencies)
    return f"op_p{q}_s", statistics.quantiles(latencies, n=100)[q - 1]


def _measure(runner: Runner, seconds: float) -> dict:
    """Closed loop over the slot cycle until ``seconds`` of op time."""
    latencies = []
    window = 0.0
    index = 0
    while window < seconds:
        elapsed = runner.op(index % len(runner.workload.slots))
        latencies.append(elapsed)
        window += elapsed
        index += 1
    tail_name, tail = _percentile_name(latencies)
    return {
        "ops_per_s": (len(latencies) / window, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        tail_name: (tail, "s"),
    }


def _cycle(runner: Runner) -> float:
    """Run every slot once; return the summed op time."""
    return sum(runner.op(i) for i in range(len(runner.workload.slots)))


def _traced(runner: Runner, spans_path: str) -> dict:
    import tracer

    untraced = _cycle(runner)
    t = tracer.Tracer(runner.workload.shared_posets)
    restore = tracer.install(t.wrapper)
    runner.tracer = t
    try:
        traced = _cycle(runner)
    finally:
        runner.tracer = None
        restore()
    t.write_spans(spans_path)
    name, self_s = t.top_self_time()
    print(f"top layer by self time: {name} ({self_s:.3f} s)")
    ops = len(runner.workload.slots)
    metrics = t.metrics()
    metrics["trace.untraced_ops_per_s"] = (ops / untraced, "1/s")
    metrics["trace.traced_ops_per_s"] = (ops / traced, "1/s")
    return metrics


def _write_reference(es):
    import workloads

    pinned = {"seed": DEFAULT_SEED}
    workdir = os.path.join(OUT, f"inputs-reference-{os.getpid()}")
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(es, DEFAULT_SEED, workloads.FULL, workdir)
        digests = []
        for slot in wl.slots:
            output = wl.run(slot)
            problem = wl.check(slot, output)
            if problem is not None:
                sys.exit(f"bench: {name}: {problem}")
            digests.append(wl.digest(output))
        pinned[name] = digests
        print(f"{name}: {len(digests)} outputs pinned")
    shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")


def main(argv=None) -> int:
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.workload is None and not args.write_reference:
        # every workload in turn, each in a process of its own
        code = 0
        for name in workloads.WORKLOADS:
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            )
            code = code or done.returncode
        return code

    es = _import_program()
    if args.write_reference:
        _write_reference(es)
        return 0
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"inputs-{tag}-{os.getpid()}")
    cls = workloads.WORKLOADS[args.workload]

    def build():
        start = time.perf_counter()
        workload = cls(es, args.seed, sizes, workdir)
        return time.perf_counter() - start, workload

    start_times = [] if args.trace else [_start_s()]
    build_s, workload = build()
    build_times = [build_s]

    reference = None
    if args.seed == DEFAULT_SEED and not args.smoke and os.path.isfile(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            reference = json.load(fh)[args.workload]
    runner = Runner(workload, reference)
    try:
        if args.trace:
            metrics = _traced(runner, os.path.join(OUT, f"spans-{tag}.jsonl"))
        else:
            metrics = _measure(runner, args.seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            # The other set-up samples come after the window, so that they
            # meet other stretches of the host's speed than the first one.
            for _ in range(SETUP_REPEATS - 1):
                start_times.append(_start_s())
                build_times.append(build()[0])
            print(f"setup: interpreter start and imports {_seconds(start_times)}, "
                  f"workload set-up {_seconds(build_times)}")
            setup_s = statistics.median(start_times) + statistics.median(build_times)
            metrics["setup_s"] = (setup_s, "s")
            metrics["success_ratio"] = (1 - runner.failed / runner.attempted, "ratio")
            metrics["peak_rss_mb"] = (peak_mb, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = _environment(args)
    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload}: attempted {runner.attempted}, failed {runner.failed}, "
          f"fail_ratio {runner.failed / runner.attempted:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
