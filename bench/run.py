"""Benchmark of the gon package: one workload, one seed, one process.

    python3 bench/run.py --workload scan|corpus|requests --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/
directory, and the run stops with an error when there is none.

Set-up is timed apart from the operations: importing gon in a fresh
interpreter and building the workload's inputs, each repeated and the
medians added. The operations of a round run one after another in this
process, with no worker pools (a closed loop with one client). The first
round fixes how many whole rounds fill --seconds of operation time; every
round runs the same operations.

Times are reported at a reference speed of the machine. The speed of a
shared machine drifts by up to a factor of two within minutes, so about
every half second the run times reference_work(), a fixed stretch of the
exact rational arithmetic the program spends its time in. Each operation's
time is scaled by REF_S over the median of the five reference times taken
nearest to it; set-up is scaled by the median of those taken during set-up.
An operation's latency is the median of its scaled times over the rounds.
ops_per_s is the number of operations in a round over the sum of their
latencies, and op_p50_ms is their median. The raw times go to the result
file beside the metrics.

Every output is checked by oracles.py, outside the timed region. An
operation that raises, or whose output a check rejects, counts as failed;
a rejected output also makes "correct" false.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics. With --trace 1 the rounds run once untraced and once
under tracer.py, and the object holds the per-layer metrics of the traced
pass and trace.overhead_s, the traced minus the untraced operation time.
The object, and with tracing the per-function table, also go to bench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPEATS = 5

# reference_work() takes REF_S at the reference speed: its median on the
# 2-core machine the bounds were set on, when that machine was not loaded
REF_S = 0.006
SPEED_EVERY_S = 0.5

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import gon, gon.cli; print(time.perf_counter() - t)"
)


def reference_work():
    """A fixed stretch of small exact rational arithmetic."""
    acc = Fraction(0)
    for i in range(1, 1500):
        x = Fraction(i, i + 7) * Fraction(3, i % 11 + 1) - Fraction(i % 5, 9)
        if x > acc:
            acc = x / 2
    return acc


class Speed:
    """Times of reference_work() through the run, and the scale they give."""

    def __init__(self):
        self.starts = []
        self.times = []

    def sample(self):
        start = time.perf_counter()
        reference_work()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def maybe_sample(self):
        if not self.starts or time.perf_counter() - self.starts[-1] >= SPEED_EVERY_S:
            self.sample()

    def scale(self, at):
        """REF_S over the median of the five reference times nearest to `at`."""
        j = bisect.bisect(self.starts, at)
        lo = max(0, min(j - 3, len(self.times) - 5))
        return REF_S / statistics.median(self.times[lo:lo + 5])


def import_seconds(speed) -> float:
    """Median time to import gon and its command-line layer in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def import_gon():
    if not os.path.isfile(os.path.join(SRC, "gon", "__init__.py")):
        raise SystemExit(f"no gon package under {SRC}")
    sys.path.insert(0, SRC)
    gon = importlib.import_module("gon")
    importlib.import_module("gon.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(gon.__file__))) != SRC:
        raise SystemExit(f"gon was imported from {gon.__file__}, not from {SRC}")
    return gon


class Tally:
    """Op counts and the verdict on every distinct output of every op."""

    def __init__(self):
        self.attempted = 0
        self.raised = 0
        self.wrong = 0
        self.errors = []
        self._verdicts = {}

    @property
    def failed(self):
        return self.raised + self.wrong

    def record(self, i, op, out):
        # an op that returns what it returned before needs no second check
        seen = self._verdicts.setdefault(i, [])
        for prev, ok in seen:
            if prev == out:
                break
        else:
            try:
                op.check(out)
                ok = True
            except Exception as e:
                ok = False
                self.errors.append(f"{op.kind}: wrong output: {type(e).__name__}: {e}")
            seen.append((out, ok))
        if not ok:
            self.wrong += 1


def run_round(ops, calls, tally, speed):
    """Run every op once, appending (op index, start, duration) to `calls`.

    Checks and reference samples run outside the timed calls.
    """
    clock = time.perf_counter
    for i, op in enumerate(ops):
        speed.maybe_sample()
        tally.attempted += 1
        start = clock()
        try:
            out = op.call()
        except Exception as e:  # an op that raises is a failed op, not a crash
            tally.raised += 1
            tally.errors.append(f"{op.kind}: {type(e).__name__}: {e}")
            continue
        calls.append((i, start, clock() - start))
        tally.record(i, op, out)


def timed_rounds(ops, seconds, tally, speed, rounds=None):
    """Whole rounds: as many as fill `seconds`, judged by the first, or `rounds`."""
    calls = []
    run_round(ops, calls, tally, speed)
    if rounds is None:
        first = sum(d for _, _, d in calls)
        rounds = max(1, round(seconds / first)) if first > 0 else 1
    for _ in range(rounds - 1):
        run_round(ops, calls, tally, speed)
    speed.sample()
    return calls, rounds


def scaled_latencies(calls, speed, n_ops):
    """Per op, the median over the rounds of its times at the reference speed."""
    per = [[] for _ in range(n_ops)]
    for i, start, dur in calls:
        per[i].append(dur * speed.scale(start))
    return [statistics.median(p) for p in per if p]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan", "corpus", "requests"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gon = import_gon()
    sys.path.insert(0, HERE)
    from workloads import BUILDERS

    speed = Speed()
    import_s = import_seconds(speed)
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    tally = Tally()
    try:
        builds = []
        for _ in range(SETUP_REPEATS):
            speed.sample()
            start = time.perf_counter()
            ops = BUILDERS[args.workload](gon, args.seed, workdir)
            builds.append(time.perf_counter() - start)
        setup_raw = import_s + statistics.median(builds)
        setup_s = setup_raw * REF_S / statistics.median(speed.times)

        # one untimed call of the first op fills the program's lazy caches
        try:
            ops[0].call()
        except Exception:
            pass

        calls, rounds = timed_rounds(ops, args.seconds, tally, speed)
        if args.trace:
            from tracer import Tracer
            tracer = Tracer().install()
            try:
                traced, _ = timed_rounds(ops, args.seconds, tally, speed, rounds)
            finally:
                tracer.remove()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    latency = scaled_latencies(calls, speed, len(ops))
    if args.trace:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            layer_units = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
        # self times are scaled by the median reference time of the traced pass
        t0, t1 = traced[0][1], traced[-1][1] + traced[-1][2]
        during = [t for s, t in zip(speed.starts, speed.times) if t0 <= s <= t1] or speed.times
        scale = REF_S / statistics.median(during)
        values = {k: v * scale if k.endswith("_s") else v for k, v in tracer.metrics().items()}
        values["trace.overhead_s"] = (sum(scaled_latencies(traced, speed, len(ops)))
                                      - sum(latency)) * rounds
        # a function the tracer wrapped reads 0 when no op called it; a name it
        # did not wrap (renamed, removed, not public) must not read as 0
        missing = sorted(set(layer_units) - set(values))
        if missing:
            raise SystemExit(f"per-layer metrics not traced: {', '.join(missing)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layer_units.items()}
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": rounds,
                       "ops_per_round": len(ops), "functions": dict(sorted(values.items()))},
                      f, indent=1)
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(latency) / sum(latency),
            "op_p50_ms": 1000 * statistics.median(latency),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    for line in tally.errors[:20]:
        print(line, file=sys.stderr)
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    raw_s = sum(d for _, _, d in calls)
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(dict(result, rounds=rounds, ops=[op.kind for op in ops],
                       setup_raw_s=setup_raw, calls=calls,
                       reference=list(zip(speed.starts, speed.times))), f)
    print(f"{args.workload}: {rounds} rounds of {len(ops)} ops, {raw_s:.3f} s of op time",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
