"""One benchmark pass in a fresh interpreter (started by run.py).

Imports quasitoric from the checkout's src/, builds the workload's input
documents from the seed, then runs every op through
``quasitoric.cli.main(argv)`` with stdout and stderr captured, timing each
call and judging its report outside the timed region.  Prints one JSON
object: set-up time, per-op results, peak RSS and, when traced, the
per-layer totals of the pass.

    python3 perfbench/passrun.py --workload W --seed N --work DIR
        --spawned T [--trace] [--setup-only]

T is the parent's time.monotonic() just before it started this process,
so set-up time includes interpreter start-up.  An untraced pass reports
set-up and op times at the reference speed (speed.py) as ``setup_s`` and
``seconds``, and their wall times as ``wall_setup_s`` and
``wall_seconds``; a traced pass reports wall times only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def run_op(main, argv, recorder=None, op_id=None, meter=None):
    """Call cli.main(argv); returns (exit code or None, stdout, stderr,
    seconds, wall seconds).  An exception escaping main leaves its
    traceback in stderr and code None.  With a speedometer, seconds are at
    the reference speed; otherwise they equal the wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    stolen = meter.stolen if meter else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if recorder is None:
                code = main(argv)
            else:
                code = recorder.run_op(op_id, main, argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the gate counts any escaping exception
            traceback.print_exc(file=err)
            code = None
        end = time.perf_counter()
    if meter is None:
        seconds = wall = end - start
    else:
        wall = end - start - (meter.stolen - stolen)
        seconds = meter.at_reference(start, end, wall)
    return code, out.getvalue(), err.getvalue(), seconds, wall


def run_pass(args, meter):
    """Set up, then run and judge every op; returns the pass's result."""
    metered = time.perf_counter()
    import quasitoric.cli as cli
    import oracle
    import workloads

    recorder = None
    if args.trace:
        import layers
        recorder = layers.Recorder()
        recorder.install()
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    ops = workloads.BUILDERS[args.workload](work, args.seed)
    setup_s = time.monotonic() - args.spawned
    result = {"setup_s": setup_s, "ops": []}
    if meter is not None:
        set_up = time.perf_counter()
        result["wall_setup_s"] = setup_s = setup_s - meter.stolen
        result["setup_s"] = meter.at_reference(metered, set_up, setup_s)
    if not args.setup_only:
        references = oracle.load_references(args.workload)
        for op in ops:
            op_argv = [a.replace("{W}", str(work)) for a in op["argv"]]
            code, out, err, seconds, wall = run_op(
                cli.main, op_argv, recorder, op["id"], meter)
            if op["save"]:
                (work / op["save"]).write_text(out, encoding="utf-8")
            outcome, reason = oracle.judge(op, code, out, err, work,
                                           references)
            result["ops"].append({"id": op["id"], "seconds": seconds,
                                  "wall_seconds": wall,
                                  "outcome": outcome, "reason": reason})
    if recorder is not None:
        recorder.uninstall()
        recorder.dump(work / "spans.jsonl")
        result["layers"] = recorder.metrics()
    return result


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    meter = None
    if not args.trace:
        import speed
        meter = speed.Speedometer()
        meter.start()
    try:
        result = run_pass(args, meter)
    finally:
        if meter is not None:
            meter.stop()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
