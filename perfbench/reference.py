"""Record the reference outputs of the benchmark's fixed ops.

    python3 perfbench/reference.py

Runs every op whose check is "reference" (the corpus commands and the
seed-independent algebraic chains) once, in-process, and writes
reference/<workload>.json: exit code, stderr, and sha256 of the stdout
(work directory replaced by "{W}") and of any SVG written.  Run it only
when a report is meant to change; the references pin the program's
output as it was when they were taken.
"""

from __future__ import annotations

import json
import shutil
import sys

from passrun import HERE, run_op  # also puts src/ on sys.path

import oracle
import workloads


def main() -> int:
    import quasitoric.cli as cli

    work = HERE.parent / ".perfbench-work" / "reference"
    for workload in workloads.WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        refs = {}
        for op in workloads.BUILDERS[workload](work, 0):
            argv = [a.replace("{W}", str(work)) for a in op["argv"]]
            code, out, err, *_ = run_op(cli.main, argv)
            if op["save"]:
                (work / op["save"]).write_text(out, encoding="utf-8")
            if op["check"]["kind"] == "reference":
                if code is None:
                    raise SystemExit(f"{op['id']} raised:\n{err}")
                refs[op["id"]] = oracle.reference_entry(op, code, out, err,
                                                        work)
        shutil.rmtree(work)
        if refs:
            path = HERE / "reference" / f"{workload}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
            print(f"{path.name}: {len(refs)} ops")
    return 0


if __name__ == "__main__":
    sys.exit(main())
