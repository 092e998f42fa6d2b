"""Benchmark runner: one workload, one seed, one process, no threads.

    python3 perfbench/run.py --workload translate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. A run sets up the workload (imports the package and
builds its inputs), then runs rounds of its fixed list of operations in a
closed loop, one operation at a time, stopping at the round boundary
nearest to `--seconds` of timed work. The set-up is timed SETUP_REPEATS
times, spread over the run between rounds, and its time is the best of
these. Before
each operation the package's function caches are emptied and `gc.collect()`
runs, outside the timed region, so every operation starts as a fresh CLI
call would. An operation's time is the best of its rounds (see README.md).
Every output is checked against `reference.py`.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics. With `--trace 1` each operation runs twice in a
row, untraced and then traced; the JSON holds the per-layer metrics of the
traced runs and the tracing overhead (traced over untraced time, minus one)
and the spans are written to perfbench/out/. Metric names and units come
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

import workloads as W
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
PACKAGE = "gfmredux"
SETUP_REPEATS = 12
MIN_ROUNDS = 3
TAIL_BEYOND = 10

WORKLOADS = ("translate", "reduce", "solve")


def package_modules():
    return {k: m for k, m in sys.modules.items()
            if k == PACKAGE or k.startswith(PACKAGE + ".")}


def import_package():
    """Import gfmredux afresh from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, PACKAGE, "__init__.py")):
        raise SystemExit(f"error: no {PACKAGE} sources under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in package_modules():
        del sys.modules[name]
    G = importlib.import_module(PACKAGE)
    if not os.path.abspath(G.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: {PACKAGE} imported from {G.__file__}, not {src}")
    return G


def package_caches():
    """The cache_clear methods of every cached function in the package."""
    found = []
    for mod in package_modules().values():
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and clear not in found:
                found.append(clear)
    return found


def build_ops(G, workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "translate":
        ops = W.build_translate(G, rng)
    elif workload == "reduce":
        from importlib import resources

        def fixture_text(name):
            return (resources.files(G) / "fixtures" / name).read_text(encoding="utf-8")

        ops = W.build_reduce(G, rng, fixture_text)
    else:
        ops = W.build_solve(G, rng)
    rng.shuffle(ops)
    return ops


def set_up(workload, seed):
    """Import the package afresh and build the workload's operations;
    returns the package, the operations and the seconds taken."""
    gc.collect()
    t0 = time.perf_counter()
    G = import_package()
    ops = build_ops(G, workload, seed)
    return G, ops, time.perf_counter() - t0


def time_set_up(workload, seed):
    """Seconds of one more set-up; the package the run uses stays loaded."""
    live = package_modules()
    try:
        return set_up(workload, seed)[2]
    finally:
        for name in package_modules():
            del sys.modules[name]
        sys.modules.update(live)


class Run:
    """Times rounds of the operation list and checks their outputs."""

    def __init__(self, ops, caches, tracer=None):
        self.ops = ops
        self.caches = caches
        self.tracer = tracer
        self.times: list[list[float]] = [[] for _ in ops]
        self.untraced = 0.0
        self.traced = 0.0
        self.checked: list[str | None] = [None] * len(ops)
        self.failed_ops: set[int] = set()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.out_states = None

    def _timed(self, fn):
        """Empty the caches, collect garbage, then time fn() alone."""
        for clear in self.caches:
            clear()
        gc.collect()
        t0 = time.perf_counter()
        try:
            return fn(), None, time.perf_counter() - t0
        except Exception as exc:  # noqa: BLE001 - any crash fails the operation
            return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0

    def _check(self, i, op, out):
        """Check the output against the reference the first time, and again
        whenever it is not the answer already checked."""
        digest = op.digest(out)
        if digest != self.checked[i]:
            op.check(out)
            self.checked[i] = digest

    def round(self) -> float:
        """Run every operation once; returns the timed seconds."""
        values = []
        states = 0
        timed = 0.0
        for i, op in enumerate(self.ops):
            if self.tracer is not None:
                _, _, dt = self._timed(op.run)
                self.untraced += dt
                op_id = self.attempted
                out, err, dt = self._timed(lambda: self.tracer.op(op_id, op.run))
                self.traced += dt
            else:
                out, err, dt = self._timed(op.run)
            self.times[i].append(dt)
            timed += dt
            if err is None:
                try:
                    self._check(i, op, out)
                    states += op.size(out)
                    values.append((op.group, op.value(out)))
                except W.CheckFailed as exc:
                    err = f"wrong answer: {exc}"
            self.attempted += 1
            if err is not None:
                self.failed += 1
                self.failed_ops.add(i)
                if op.known_fault is None:
                    self.errors.append(f"{op.name}: {err}")
        try:
            W.check_routes_agree(values)
        except W.CheckFailed as exc:
            self.errors.append(str(exc))
        if self.out_states is not None and self.out_states != states:
            self.errors.append(f"out_states changed between rounds: "
                               f"{self.out_states} then {states}")
        self.out_states = states
        self.rounds += 1
        return timed

    def until(self, seconds, after_round):
        """Whole rounds, at least MIN_ROUNDS, stopping at the round boundary
        nearest to `seconds` of timed operations; `after_round` gets the
        share of `seconds` done so far."""
        timed = 0.0
        while True:
            timed += self.round()
            after_round(min(timed / seconds, 1.0))
            if self.rounds >= MIN_ROUNDS and timed + timed / self.rounds / 2 >= seconds:
                return

    def best(self):
        """Each operation's time, the best of its rounds; an operation that
        failed is left out, since the time of a wrong answer says nothing."""
        return [min(t) for i, t in enumerate(self.times) if i not in self.failed_ops]

    def end_to_end(self, setup_s):
        best = self.best()
        ranked = sorted(best)
        return {
            "setup_s": setup_s,
            "ops_per_s": len(best) / sum(best),
            "op_p50_s": statistics.median(best),
            # the highest percentile with TAIL_BEYOND operations beyond it
            "op_tail_s": ranked[-TAIL_BEYOND - 1],
            "out_states": self.out_states,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    G, ops, first_setup_s = set_up(args.workload, args.seed)
    caches = package_caches()
    if len(ops) < 4 * TAIL_BEYOND:
        raise SystemExit(f"error: {len(ops)} operations, the tail needs 40")
    setup_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the inputs live for the whole run: keep them out of every collection,
    # so each operation's heap is what one CLI call would hold
    gc.collect()
    gc.freeze()

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.prepare(G)
    # the machine's speed drifts over seconds: set-ups spread over the run
    # and their best, as for the operations, keep setup_s steady (README.md)
    setups = [first_setup_s]

    def sample_set_up(done):
        while len(setups) < 1 + (SETUP_REPEATS - 1) * done:
            setups.append(time_set_up(args.workload, args.seed))

    run = Run(ops, caches, tracer)
    run.until(args.seconds, sample_set_up)
    sample_set_up(1.0)
    setup_s = min(setups)

    print(f"# {args.workload} seed {args.seed}: {run.rounds} round(s) of "
          f"{len(ops)} operations, {run.attempted} attempted, {run.failed} failed")
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        values = tracer.summary(run.rounds)
        values["tracing.overhead_pct"] = 100 * (run.traced / run.untraced - 1)
        tracer.write(stem + "-spans.tsv", [op.name for op in ops])
        declared = spec["per_layer"]
    else:
        values = run.end_to_end(setup_s)
        declared = spec["end_to_end"]
    for err in run.errors[:20]:
        print(f"# ERROR {err}")
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value:.6g} {m['unit']}")
    result = {"correct": not run.errors, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        json.dump(dict(result, all_metrics=values, setup_rss_mb=setup_rss_mb, setups=setups,
                       op_times={op.name: t for op, t in zip(ops, run.times)}),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
