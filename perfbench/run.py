"""polyinv benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload vrep_info --seed 1 --seconds 38 --trace 0
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-digests

Run from the root of a checkout; polyinv is imported from its `src/`.
Each input goes through `polyinv.cli.run(CliConfig(command=...), bytes)`,
the path `polyinv <command> file.json` takes after reading the file, in
one thread as a closed loop with a single caller. The inputs are run in
pass order until `--seconds` have gone by, with at least three whole
passes. A call's time is its fastest repeat: the work is deterministic,
so a slower repeat only measures other load on the machine (see
README.md). The first pass checks every output against closed forms
(see workloads.py); later passes must repeat its bytes.

Because passes repeat the same inputs in one process, a process-wide
cache keyed by input would be rewarded here although the CLI never
sees an input twice; such a cache does not count as a speed-up.

With `--trace 0` the last stdout line holds the end-to-end metrics:
set-up time of a fresh `python -m polyinv` process, inputs per second,
p50/p90 latency and peak RSS. With `--trace 1` untraced and traced passes
alternate and it holds the per-layer metrics of spans.py: calls and self
time per layer, lattice points counted, and traced/untraced wall time.
The spans of the first traced pass are written to .perfbench_out/.

`--smoke` runs a few inputs of each workload plain and traced twice, and
fails unless every output checks out and the traced counters repeat.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans  # perfbench/ is sys.path[0] when run as a script
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".perfbench_out"

MIN_PASSES = 3
SETUP_SPAWNS = 4  # before each of the first MIN_PASSES passes
SETUP_COMMAND = ["-m", "polyinv", "construct", "--family", "simplex", "--dim", "1"]

cli = None  # polyinv.cli, imported by _import_polyinv


def _import_polyinv():
    global cli
    if not (SRC / "polyinv" / "__init__.py").is_file():
        sys.exit(f"error: no polyinv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from polyinv import cli as module

    cli = module


class Run:
    """Outputs and failures of the passes over one workload's inputs."""

    def __init__(self, workload: str, cases: list):
        self.command = workloads.WORKLOADS[workload][0]
        self.cases = cases
        self.outputs: list = [None] * len(cases)
        self.times: list = [[] for _ in cases]
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def fail(self, problem: str):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)

    def call(self, i: int) -> float:
        case = self.cases[i]
        config = cli.CliConfig(command=self.command)
        self.attempted += 1
        start = time.perf_counter()
        try:
            code, out = cli.run(config, case.data)
        except Exception as e:  # a crash is a failed input, not a dead benchmark
            code, out = -1, f"raised {e!r}".encode()
        elapsed = time.perf_counter() - start
        self.times[i].append(elapsed)
        if code != 0:
            self.fail(f"{case.label}: exit {code}: {out[:200]!r}")
        elif self.outputs[i] is None:
            self.outputs[i] = out
            try:
                problem = case.check(json.loads(out))
            except (ValueError, TypeError, AttributeError, IndexError) as e:
                problem = f"unreadable output: {e!r}"
            if problem:
                self.fail(f"{case.label}: {problem}")
        elif out != self.outputs[i]:
            self.fail(f"{case.label}: output bytes differ between passes")
        return elapsed

    def one_pass(self) -> float:
        return sum(self.call(i) for i in range(len(self.cases)))

    def output_digest(self) -> str:
        h = hashlib.sha256()
        for out in self.outputs:
            h.update(out or b"")
        return h.hexdigest()


def _input_digest(cases) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.data + b"\n")
    return h.hexdigest()


def _recorded(kind: str, workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    doc = json.loads(DIGESTS.read_text())
    return doc[kind].get(workload) if doc["seed"] == seed else None


def _new_run(workload: str, seed: int, kinds: int = 0) -> Run:
    """A run over the workload's inputs, which must repeat byte for byte.
    With `kinds`, only the first input of the first `kinds` labels."""
    cases = workloads.generate(workload, seed)
    if kinds:
        firsts: dict = {}
        for case in cases:
            firsts.setdefault(case.label, case)
        run = Run(workload, list(firsts.values())[:kinds])
    else:
        run = Run(workload, cases)
    again = workloads.generate(workload, seed)
    if [c.data for c in cases] != [c.data for c in again]:
        run.fail("generator: one seed gave two different input sets")
    want = _recorded("inputs", workload, seed)
    if want is not None and _input_digest(cases) != want:
        run.fail("generator: inputs differ from the recorded digest")
    return run


def _spawn_setup(run: Run, samples: list, count: int):
    """Time `count` fresh `python -m polyinv` processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable] + SETUP_COMMAND
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, timeout=60)
        elapsed = time.perf_counter() - start
        run.attempted += 1
        ok = proc.returncode == 0
        if ok:
            try:
                ok = json.loads(proc.stdout)["vertices"] == [[0], [1]]
            except (ValueError, KeyError, TypeError):
                ok = False
        if not ok:
            run.fail(f"setup: exit {proc.returncode}: {proc.stderr[:200]!r}")
        samples.append(elapsed)


def _warm_up(run: Run):
    for i in range(min(5, len(run.cases))):
        cli.run(cli.CliConfig(command=run.command), run.cases[i].data)


def _end_to_end(run: Run, seconds: float) -> dict:
    """MIN_PASSES whole passes, each after a group of set-up spawns (so a
    slow spell of the machine hits only some of them), then more calls in
    pass order until `seconds` are up."""
    _spawn_setup(run, [], 1)  # warms the file cache
    _warm_up(run)
    setup: list = []
    deadline = time.perf_counter() + seconds
    for _ in range(MIN_PASSES):
        _spawn_setup(run, setup, SETUP_SPAWNS)
        run.one_pass()
    calls = 0
    while time.perf_counter() < deadline:
        run.call(calls % len(run.cases))
        calls += 1
    per_call = [min(t) for t in run.times]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = MIN_PASSES + calls / len(run.cases)
    print(f"{len(run.cases)} inputs x {passes:.1f} passes", file=sys.stderr)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "inputs_per_s": (len(per_call) / sum(per_call), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(per_call), "ms"),
        "latency_p90_ms": (1e3 * statistics.quantiles(per_call, n=10)[8], "ms"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }


def _traced_pass(run: Run) -> tuple[float, spans.Tracer]:
    with spans.Tracer() as tracer:
        wall = run.one_pass()
    return wall, tracer


def _per_layer(run: Run, seconds: float, spans_path: Path) -> dict:
    """Alternating untraced and traced passes; counters must repeat."""
    _warm_up(run)
    untraced, traced, self_times, counters = [], [], [], []
    first = None
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        untraced.append(run.one_pass())
        wall, tracer = _traced_pass(run)
        traced.append(wall)
        calls, self_s = tracer.summary()
        counters.append((calls, tracer.points))
        self_times.append(self_s)
        first = first or tracer
    first.write(spans_path)
    if any(c != counters[0] for c in counters[1:]):
        run.fail("trace: counters differ between traced passes")
    calls, points = counters[0]
    metrics = {}
    for name in spans.LAYERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_s"] = (min(s[name] for s in self_times), "s")
    metrics[f"{spans.POINTS_LAYER}.points"] = (points, "count")
    metrics["trace.overhead_ratio"] = (min(traced) / min(untraced), "ratio")
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = _new_run(workload, seed)
    if trace:
        path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
        metrics = _per_layer(run, seconds, path)
    else:
        metrics = _end_to_end(run, seconds)
    want = _recorded("outputs", workload, seed)
    if want is not None and run.output_digest() != want:
        run.fail("outputs differ from the recorded digest")
    for problem in run.problems:
        print("FAIL", problem, file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def smoke(seed: int) -> int:
    """A few inputs per workload, plain then traced twice."""
    bad = 0
    for workload in workloads.WORKLOADS:
        run = _new_run(workload, seed, kinds=6)
        run.one_pass()
        counters = []
        for _ in range(2):
            _, tracer = _traced_pass(run)
            calls, _ = tracer.summary()
            counters.append((calls, tracer.points))
        if counters[0] != counters[1]:
            run.fail("trace: counters differ between traced passes")
        bad += run.failed > 0
        status = "FAILED" if run.failed else "ok"
        print(f"smoke {workload}: {len(run.cases)} inputs, "
              f"{run.failed}/{run.attempted} failed, {status}")
        for problem in run.problems:
            print("  ", problem)
    return 1 if bad else 0


def record_digests(seed: int):
    """Write the input and output digests of one pass of every workload."""
    doc = {"seed": seed, "inputs": {}, "outputs": {}}
    for workload in workloads.WORKLOADS:
        cases = workloads.generate(workload, seed)
        run = Run(workload, cases)
        run.one_pass()
        if run.failed:
            sys.exit(f"{workload}: {run.problems}")
        doc["inputs"][workload] = _input_digest(cases)
        doc["outputs"][workload] = run.output_digest()
    DIGESTS.write_text(json.dumps(doc, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    _import_polyinv()
    if args.smoke:
        return smoke(args.seed)
    if args.record_digests:
        record_digests(args.seed)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
