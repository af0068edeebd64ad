"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

import refclock  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from llgtw.model import Grid, Params, Regime  # noqa: E402
from llgtw.verification import CheckResult  # noqa: E402


# --- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert wl.make_inputs(workload, 7) == wl.make_inputs(workload, 7)
    assert wl.make_inputs(workload, 7) != wl.make_inputs(workload, 8)


def test_every_workload_has_a_pass():
    assert sorted(WORKLOADS) == sorted(wl.PASSES)


# --- oracles -----------------------------------------------------------------

K2, ALPHA = 1.0, 0.1
H_W = 0.5 * ALPHA * K2


def _branch(fractions, scale_at=None):
    sols = []
    for i, f in enumerate(fractions):
        V = float(wl.walker_speed(f * H_W, K2, ALPHA))
        sols.append(SimpleNamespace(params=Params(f * H_W, 0, 0, K2, ALPHA),
                                    V=V * (1.01 if i == scale_at else 1.0)))
    return sols


def _judged(fn, *args):
    out = wl.Outcome()
    fn(out, *args)
    return out


BRANCH = (0.0, 0.3, 0.6, 0.9, 0.99, 1.0 - 1e-5)
STOPPED = SimpleNamespace(reached_end=False)


def test_walker_oracle_accepts_exact_and_rejects_scaled_speed():
    out = _judged(wl.judge_branch, "b", _branch(BRANCH), STOPPED, K2, ALPHA)
    assert out.attempted == len(BRANCH) + 1 and out.failed == 0
    for i in range(1, len(BRANCH)):
        out = _judged(wl.judge_branch, "b", _branch(BRANCH, scale_at=i), STOPPED, K2, ALPHA)
        assert out.failed == 1, out.failures


@pytest.mark.parametrize("fractions, report", [
    (BRANCH, SimpleNamespace(reached_end=True)),       # no breakdown found
    (BRANCH[:-2], STOPPED),                            # ends 10% short of the fold
    (BRANCH[:-1] + (1.0 + 1e-3,), STOPPED),            # ends past the fold
    (BRANCH[:-2] + (0.99, 0.95), STOPPED),             # turns back
])
def test_branch_end_oracle_rejects(fractions, report):
    sols = _branch(fractions)
    out = _judged(wl.judge_branch, "b", sols, report, K2, ALPHA)
    assert any("branch end" in f for f in out.failures)


def test_symmetry_oracle():
    plus = _branch(BRANCH)
    minus = _branch([-f for f in BRANCH])
    assert _judged(wl.judge_symmetry, plus, minus).failed == 0
    assert _judged(wl.judge_symmetry, plus, _branch([-f for f in BRANCH], scale_at=3)).failed == 1
    assert _judged(wl.judge_symmetry, plus, minus[:-1]).failed == 1


def test_dynamics_oracles_reject_perturbed_results():
    assert _judged(wl.judge_driven, -0.1, -0.1 * 1.01, 1e-15).failed == 0
    assert _judged(wl.judge_driven, -0.1, -0.1 * 1.03, 1e-15).failed == 1
    assert _judged(wl.judge_driven, -0.1, -0.1, 1e-8).failed == 1
    energy = np.linspace(1.0, 0.5, 50)
    assert _judged(wl.judge_relax, energy, 1e-15).failed == 0
    risen = energy.copy()
    risen[20] = risen[19] + 1e-8
    assert _judged(wl.judge_relax, risen, 1e-15).failed == 1


def test_failed_check_and_raising_call_count_as_failed():
    out = wl.Outcome()
    wl._judge_check(out, "check03", CheckResult("3", "", {}, {}, False))
    assert out.attempt("check07", 2, lambda: 1 / 0) is None
    assert (out.attempted, out.failed) == (3, 3)


# --- tracing -----------------------------------------------------------------

def test_self_times_on_hand_made_tree():
    spans = [
        ["root", 0.0, 10.0, -1, True],
        ["a", 1.0, 4.0, 0, True],
        ["a.1", 2.0, 3.0, 1, True],
        ["b", 5.0, 9.0, 0, True],
        ["b.1", 6.0, 7.0, 3, True],
        ["b.2", 6.5, 8.0, 3, True],    # overlaps b.1: covered once
        ["b.3", 8.5, 9.5, 3, True],    # runs past b: clipped
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 1.0, 1.5, 1.0])


def test_tracer_records_nesting_and_counts():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert tracer.run(outer, 2) == 9
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("pass", -1), ("outer", 0), ("inner", 1), ("inner", 1)]
    st = tracing.self_times(tracer.spans)
    assert sum(st) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])


def _originals():
    return {(owner, attr): tracing._resolve(owner).__dict__[attr]
            for owner, attr, _, _ in tracing.TARGETS}


def test_every_wrapped_name_is_restored():
    before = _originals()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert all(_originals()[k] is not v for k, v in before.items())
            1 / 0
    assert _originals() == before
    assert all(_originals()[k] is v for k, v in before.items())


def test_traced_solve_reports_layers_and_restores():
    import llgtw.solver as solver

    before = _originals()
    tracer = tracing.Tracer()
    grid = Grid(20.0, 201)
    with tracer.installed():
        sol = tracer.run(solver.solve_tw, Params(0.01, 0, 0, 1.0, 0.1), Regime.walker(1.0), grid)
    assert _originals() == before
    m = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert m["solver.solve_tw.calls"] == 1 and m["solver.solve_tw.failed"] == 0
    assert m["solver.newton_iters"] == sol.iterations > 0
    assert m["lapack.solve_banded.calls"] == m["solver.jacobian_builds"] == sol.iterations
    assert m["solver.residual_evals"] >= sol.iterations + 1
    selfs = sum(tracing.self_times(tracer.spans))
    assert selfs == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert set(m) | {"trace.overhead_s"} == PER_LAYER


# --- reference clock -----------------------------------------------------------

def test_refclock_samples_during_cpu_work_and_restores_the_timer():
    clock = refclock.RefClock()
    before = signal.getsignal(signal.SIGPROF)
    with clock.sampling():
        c0 = time.process_time()
        while time.process_time() - c0 < 0.5:
            sum(i * i for i in range(1000))
    assert len(clock.samples) >= 3 and min(clock.samples) > 0
    assert clock.slowdown() == pytest.approx(statistics.fmean(clock.samples) / refclock.NOMINAL_S)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_refclock_kernel_does_fixed_work():
    assert refclock.RefClock().kernel() == refclock.RefClock().kernel()


# --- the command ---------------------------------------------------------------

def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify_fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
