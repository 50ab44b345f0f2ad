"""The quasitoric benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {fan-scaling,algebraic}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; quasitoric is imported from its src/.
The load is a closed loop with one caller: passes run one at a time, each
in a fresh interpreter (passrun.py), because every CLI user pays that cold
start and no program state may outlive a pass.  A pass builds the
workload's inputs from the seed (set-up), then runs the workload's whole
op list through ``quasitoric.cli.main`` and judges every report
(oracle.py).  Passes repeat while the next one is expected to end
within 1.1 S seconds; metrics are taken over whole passes only, so every
run weighs the ops alike.  Set-up and op times are at the reference speed
(speed.py), which takes the host's changing speed out of them; the wall
clock figures are printed as a note.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes (layers.py) and prints the per-layer metrics of a
traced pass plus trace.overhead_ratio.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5       # set-up is measured at least this often per run
OVERSHOOT = 1.1         # a run may end this factor past --seconds
PASS_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def spawn(workload, seed, work: Path, trace=False, setup_only=False):
    """Run one pass in a fresh interpreter and return its JSON result."""
    shutil.rmtree(work, ignore_errors=True)
    argv = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
            "--seed", str(seed), "--work", str(work)]
    argv += ["--trace"] if trace else []
    argv += ["--setup-only"] if setup_only else []
    spawned = time.monotonic()
    proc = subprocess.run(argv + ["--spawned", repr(spawned)], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_type_latencies(passes, key="seconds") -> list:
    """Median latency in ms of each op of the workload over the passes.

    Latency percentiles are taken over the op list with each op weighted
    once, at its median: the op list is fixed, so every run weighs the
    same ops alike however many passes fitted in it, and the median damps
    the machine's slow phases."""
    by_id = {}
    for p in passes:
        for op in p["ops"]:
            by_id.setdefault(op["id"], []).append(op[key] * 1000)
    return [statistics.median(v) for v in by_id.values()]


def percentile(values, q):
    """Linear-interpolation percentile (q in 1..99), as numpy's default."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tally(passes):
    ops = [op for p in passes for op in p["ops"]]
    counts = {k: sum(op["outcome"] == k for op in ops)
              for k in ("correct", "capped", "failed")}
    return ops, counts


def end_to_end(passes, setups):
    ops, counts = tally(passes)
    latencies = op_type_latencies(passes)
    n = len(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (counts["correct"] / sum(op["seconds"] for op in ops),
                      "1/s"),
        "op_p50_ms": (percentile(latencies, 50), "ms"),
        "op_p90_ms": (percentile(latencies, 90), "ms"),
        "correct_ratio": (counts["correct"] / n, "ratio"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }
    notes = [f"{n} ops in {len(passes)} passes ({len(latencies)} op types), "
             f"{len(setups)} set-ups; times at the reference speed"]
    if all("wall_seconds" in op for op in ops):
        wall = op_type_latencies(passes, "wall_seconds")
        notes.append(
            "wall clock: ops_per_s "
            f"{counts['correct'] / sum(op['wall_seconds'] for op in ops):.4g}"
            f", op_p50_ms {percentile(wall, 50):.4g}"
            f", op_p90_ms {percentile(wall, 90):.4g}"
            ", median slowdown "
            f"{statistics.median(op['wall_seconds'] / op['seconds'] for op in ops):.3f}")
    beyond = len(latencies) - math.ceil(0.9 * len(latencies))
    if beyond < 10:
        notes.append(f"op_p90_ms has {beyond} op types beyond it, fewer "
                     "than 10: it reads the slowest ops' latency, not a tail")
    return metrics, notes


def per_layer(pairs):
    """Mean per-pass layer totals of the traced passes, and the traced
    over untraced op time of the same op lists."""
    traced = [t for _, t in pairs]
    metrics = {}
    for name, unit in layers.LAYER_METRICS:
        metrics[name] = (statistics.fmean(t["layers"][name] for t in traced),
                         unit)
    plain = sum(op["seconds"] for u, _ in pairs for op in u["ops"])
    slow = sum(op["seconds"] for _, t in pairs for op in t["ops"])
    metrics["trace.overhead_ratio"] = (slow / plain, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "quasitoric" / "cli.py").is_file():
        print(f"no quasitoric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench-work"
    work = base / f"{args.workload}-{args.seed}"
    start = time.monotonic()
    passes, pairs = [], []
    budget = args.seconds * OVERSHOOT

    def another(count):
        """Start another pass (or pair) only if it should end in budget."""
        elapsed = time.monotonic() - start
        return elapsed * (count + 1) / count <= budget

    try:
        if args.trace:
            # alternate untraced and traced passes, at least one pair
            while not pairs or another(len(pairs)):
                plain = spawn(args.workload, args.seed, work)
                traced = spawn(args.workload, args.seed, work, trace=True)
                shutil.copyfile(work / "spans.jsonl",
                                base / f"spans-{args.workload}.jsonl")
                pairs.append((plain, traced))
                passes += [plain, traced]
        else:
            while not passes or another(len(passes)):
                passes.append(spawn(args.workload, args.seed, work))
            setups = [p["setup_s"] for p in passes]
            while len(setups) < SETUP_SAMPLES:
                setups.append(spawn(args.workload, args.seed, work,
                                    setup_only=True)["setup_s"])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops, counts = tally(passes)
    if args.trace:
        metrics, notes = per_layer(pairs), [f"{len(pairs)} traced passes"]
    else:
        metrics, notes = end_to_end(passes, setups)
    for op in ops:
        if op["outcome"] != "correct":
            notes.append(f"{op['outcome']}: {op['id']}: {op['reason']}")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{time.monotonic() - start:.1f} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for note in dict.fromkeys(notes):
        print(f"  note: {note}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": len(ops),
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
