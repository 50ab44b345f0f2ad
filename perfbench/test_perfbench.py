"""Tests of the benchmark's own gate and tracing.

    python3 -m pytest perfbench/test_perfbench.py

They show that the oracle counts a corrupted report, a wrong exit code and
an escaping exception as failures, that the documented 16-variable cap is
recognised only in its exact form, that the traced run's wrappers see
every call of a wrapped name, whichever module it was imported into, and
that the speedometer scales times by the kernel time around them and
stops its timer on every way out of a pass.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from passrun import run_op  # puts src/ and perfbench/ on sys.path

import layers
import oracle
import run
import speed
import workloads

import quasitoric.cli as cli


def op_by_id(ops, op_id):
    return next(op for op in ops if op["id"] == op_id)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Three corpus ops, each run once on freshly written entries."""
    work = tmp_path_factory.mktemp("corpus")
    ops = workloads.corpus_ops(0) + workloads.corpus_fan_ops()
    refs = {**oracle.load_references("fan-scaling"),
            **oracle.load_references("algebraic")}
    results = {}
    for op in ops:
        if op["id"].startswith("examples:"):
            run_op(cli.main, [a.replace("{W}", str(work))
                              for a in op["argv"]])
    for op_id in ("analyze:pentagon-default", "gale:kite-default",
                  "render:square-default"):
        op = op_by_id(ops, op_id)
        argv = [a.replace("{W}", str(work)) for a in op["argv"]]
        results[op_id] = (op, run_op(cli.main, argv)[:3])
    return work, refs, results


@pytest.fixture(scope="module")
def fan_inputs(tmp_path_factory):
    work = tmp_path_factory.mktemp("fan")
    return work, workloads.build_fan_scaling(work, 0)


KEEP = object()


def judge(corpus, op_id, code=KEEP, out=KEEP, err=KEEP):
    """Judge a recorded op, with any of its results replaced."""
    work, refs, results = corpus
    op, (code0, out0, err0) = results[op_id]
    return oracle.judge(op, code0 if code is KEEP else code,
                        out0 if out is KEEP else out,
                        err0 if err is KEEP else err, work, refs)


def flip(text: str, index: int) -> str:
    b = bytearray(text.encode("utf-8"))
    b[index] ^= 0x01
    return b.decode("utf-8")


class TestGate:
    def test_reference_reports_pass(self, corpus):
        assert judge(corpus, "analyze:pentagon-default") == ("correct", "")
        # the kite's documented NotBalanced answer is a success
        assert judge(corpus, "gale:kite-default") == ("correct", "")
        assert judge(corpus, "render:square-default") == ("correct", "")

    def test_one_flipped_byte_fails(self, corpus):
        out = corpus[2]["analyze:pentagon-default"][1][1]
        for index in (0, len(out) // 2, len(out) - 2):
            outcome, reason = judge(corpus, "analyze:pentagon-default",
                                    out=flip(out, index))
            assert outcome == "failed", index
            assert "golden" in reason

    def test_flipped_svg_byte_fails(self, corpus):
        work, _, results = corpus
        svg = work / "corpus" / "square-default.svg"
        text = svg.read_text("utf-8")
        try:
            svg.write_text(flip(text, len(text) // 2), "utf-8")
            assert judge(corpus, "render:square-default")[0] == "failed"
        finally:
            svg.write_text(text, "utf-8")

    def test_wrong_exit_code_fails(self, corpus):
        assert judge(corpus, "analyze:pentagon-default", code=1)[0] \
            == "failed"
        assert judge(corpus, "gale:kite-default", code=0)[0] == "failed"
        assert judge(corpus, "gale:kite-default", code=2)[0] == "failed"

    def test_escaping_exception_fails(self, corpus):
        def crashing_main(argv):
            raise ValueError("zero normal")

        code, out, err, *_ = run_op(crashing_main, ["analyze", "x.json"])
        assert code is None and "Traceback" in err
        outcome, reason = judge(corpus, "analyze:pentagon-default",
                                code=code, out=out, err=err)
        assert outcome == "failed" and "exception escaped" in reason

    def test_closed_form_flip_fails(self, fan_inputs):
        work, ops = fan_inputs
        op = op_by_id(ops, "analyze:cube0")
        code, out, err, *_ = run_op(
            cli.main, [a.replace("{W}", str(work)) for a in op["argv"]])
        assert oracle.judge(op, code, out, err, work, {}) == ("correct", "")
        # one vertex coordinate changed from 4 to 5
        bad = out.replace('"4"', '"5"', 1)
        assert oracle.judge(op, code, bad, err, work, {})[0] == "failed"
        assert oracle.judge(op, 1, out, err, work, {})[0] == "failed"

    def test_cap_recognised_only_exactly(self):
        op = {"id": "gale:int16", "check": {"kind": "gale-capped"}}
        line = "VariableBudgetExceeded: 17 variables exceed the budget of 16\n"
        assert oracle.judge(op, 1, "", line, Path("."), {})[0] == "capped"
        for code, err in ((2, line), (1, "NotBalanced: x\n"),
                          (1, line + line), (None, line)):
            assert oracle.judge(op, code, "", err, Path("."), {})[0] \
                == "failed"


class TestTrace:
    def test_wrappers_rebind_every_module(self):
        import quasitoric.lp

        original = quasitoric.lp.strict_lp_feasible
        holders = [m for n, m in sys.modules.items()
                   if n.startswith("quasitoric")
                   and getattr(m, "strict_lp_feasible", None) is original]
        assert len(holders) >= 5  # lp, fan, polytope, gale, package
        recorder = layers.Recorder()
        recorder.install()
        try:
            for module in holders:
                assert module.strict_lp_feasible is not original
        finally:
            recorder.uninstall()
        assert all(m.strict_lp_feasible is original for m in holders)

    def test_lp_calls_match_cprofile(self, fan_inputs):
        work, ops = fan_inputs
        op = op_by_id(ops, "analyze:cube0")
        argv = [a.replace("{W}", str(work)) for a in op["argv"]]
        profile = cProfile.Profile()
        profile.enable()
        run_op(cli.main, argv)
        profile.disable()
        profiled = sum(
            calls for (path, _, name), (_, calls, _, _, _)
            in pstats.Stats(profile).stats.items()
            if name == "strict_lp_feasible" and path.endswith("lp.py"))
        recorder = layers.Recorder()
        recorder.install()
        try:
            code, out, err, *_ = run_op(cli.main, argv, recorder, op["id"])
        finally:
            recorder.uninstall()
        assert code == 0
        metrics = recorder.metrics()
        assert profiled > 0
        assert metrics["lp.calls"] == profiled
        assert set(metrics) == {name for name, _ in layers.LAYER_METRICS}
        assert 0 < metrics["fan.valid_s"] < metrics["trace.op_s"]


class TestInputsAndStatistics:
    def test_seed_changes_values_not_combinatorics(self):
        a, b = (workloads.fan_scaling_params(s) for s in (1, 2))
        assert a != b
        for c in workloads.CUBE_CUTS:
            facets = [workloads.truncated_cube_facets(p["cubes"][c])
                      for p in (a, b)]
            assert len(facets[0]) == len(facets[1]) == 6 + c
            for p in (a, b):
                assert all(2 < d < 3 for d in p["cubes"][c])
                assert len(workloads.truncated_cube_vertices(
                    p["cubes"][c])) == 8 + 2 * c
        assert [op["id"] for op in workloads.corpus_ops(1)] \
            == [op["id"] for op in workloads.corpus_ops(2)]

    def test_only_fan_scaling_decides_fan_validity(self):
        commands = {w: {op["argv"][0] for op in
                        (workloads.corpus_ops(0) if w == "algebraic"
                         else workloads.corpus_fan_ops())}
                    for w in workloads.WORKLOADS}
        assert commands["fan-scaling"] == {"analyze", "polytopal"}
        assert not commands["algebraic"] & {"analyze", "polytopal"}

    def test_latency_percentiles_weigh_each_op_once(self):
        def passes(*seconds):
            return [{"ops": [{"id": f"op{i}", "seconds": s}
                             for i, s in enumerate(row)]} for row in seconds]

        one = passes([0.001, 0.002, 0.003, 0.010])
        assert run.op_type_latencies(one) == [1.0, 2.0, 3.0, 10.0]
        assert run.op_type_latencies(one * 3) == [1.0, 2.0, 3.0, 10.0]
        three = passes([0.001, 0.002], [0.003, 0.002], [0.002, 0.002])
        assert run.op_type_latencies(three) == [2.0, 2.0]
        assert run.percentile([1.0, 2.0, 3.0, 10.0], 50) == 2.5

    def test_result_line_keys(self):
        passes = [{"setup_s": 0.5, "peak_rss_mb": 20.0,
                   "ops": [{"id": f"op{i}", "seconds": 0.1 * (i + 1),
                            "outcome": "correct", "reason": ""}
                           for i in range(4)]}]
        metrics, _ = run.end_to_end(passes, [0.5] * 5)
        bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
        assert set(metrics) == {m["name"] for m in bench["end_to_end"]}
        assert all(value > 0 for value, _ in metrics.values())
        assert {m["name"] for m in bench["per_layer"]} == {
            name for name, _ in layers.LAYER_METRICS} | {
            "trace.overhead_ratio"}


class TestSpeed:
    def test_times_scale_by_kernel_time_around_them(self):
        meter = speed.Speedometer()
        ref = speed.REFERENCE_KERNEL_S
        meter.samples = [(0.0, 2 * ref), (0.5, 4 * ref), (9.0, ref)]
        assert meter.at_reference(0.0, 0.5, 0.3) == pytest.approx(0.1)
        assert meter.at_reference(9.0, 9.01, 0.01) == pytest.approx(0.01)
        # no sample in the window: the nearest two stand in
        assert meter.slowdown(3.0, 3.1) == pytest.approx(3.0)

    def test_timer_samples_then_stops(self):
        meter = speed.Speedometer()
        meter.start()
        try:
            end = time.perf_counter() + 10 * speed.PERIOD_S
            while time.perf_counter() < end:
                pass
        finally:
            meter.stop()
        assert len(meter.samples) >= 5
        assert meter.stolen == pytest.approx(
            sum(spent for _, spent in meter.samples))
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL

    def test_failing_pass_exits_with_its_error(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, str(Path(run.HERE) / "passrun.py"),
             "--workload", "no-such-workload", "--seed", "1",
             "--work", str(tmp_path / "work"), "--spawned", "0"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1     # not killed by SIGALRM
        assert "KeyError" in proc.stderr
