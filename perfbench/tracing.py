"""Spans around llgtw's public functions, recorded from outside the library.

`Tracer.installed()` replaces each target in TARGETS with a wrapper that
records a span [name, start, end, parent, ok] and restores every original
when the block ends, also on error.  Spans stay in memory; the benchmark
writes them out when it ends.  `layer_metrics` turns one traced pass into
the per-layer metrics that BENCHMARK.json lists.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from collections import defaultdict

import numpy as np

from llgtw import dynamics


def _solve_hook(tracer, args, kwargs, sol):
    tracer.counts["newton_iters"] += sol.iterations


def _integrate_hook(tracer, args, kwargs, traj):
    # the step count integrate takes: round(T / dt), dt defaulting to 0.2 h^2
    bound = _INTEGRATE_SIG.bind(*args, **kwargs).arguments
    dt = bound.get("dt") or 0.2 * bound["grid"].h ** 2
    tracer.counts["steps"] += max(1, int(round(bound["T"] / dt)))


_INTEGRATE_SIG = inspect.signature(dynamics.integrate)

_CHECKS = (
    ("check_static_residual_anisotropy", "check01"),
    ("check_static_residual_transverse", "check02"),
    ("check_bloch_azimuth_kernel", "check03"),
    ("check_shifted_bound", "check04"),
    ("check_tilt_bound", "check05"),
    ("check_transverse_azimuth_kernel", "check06"),
    ("check_tw_lattice_anisotropy", "check07"),
    ("check_tw_lattice_transverse", "check08"),
    ("check_velocity_identity", "check09"),
    ("check_mobility", "check10"),
    ("check_refinement", "check12"),
)

# (owner, attribute, span name, hook).  The package imports with
# `from .x import y`, so a function is wrapped in each module that looks it
# up (llgtw.solver.torques, not llgtw.energetics.torques).
TARGETS = (
    ("llgtw.solver", "solve_tw", "solver.solve_tw", _solve_hook),
    ("llgtw.verification", "solve_tw", "solver.solve_tw", _solve_hook),
    ("llgtw.solver", "continue_branch", "solver.continue_branch", None),
    ("llgtw.solver", "reference_profile", "solver.reference_profile", None),
    ("llgtw.verification", "reference_profile", "solver.reference_profile", None),
    ("llgtw.verification", "velocity_identity", "solver.velocity_identity", None),
    ("llgtw.solver", "torques", "energetics.torques", None),
    ("llgtw.solver", "torque_partials", "energetics.torque_partials", None),
    ("llgtw.solver", "solve_banded", "lapack.solve_banded", None),
    ("llgtw.solver", "equilibria", "energetics.equilibria", None),
    ("llgtw.dynamics", "equilibria", "energetics.equilibria", None),
    ("llgtw.solver", "base_profile", "walls.base_profile", None),
    ("llgtw.verification", "base_profile", "walls.base_profile", None),
    ("llgtw.walls", "transverse_wall", "walls.transverse_wall", None),
    ("llgtw.spectral", "transverse_wall", "walls.transverse_wall", None),
    ("llgtw.spectral", "bloch_azimuth_operator", "spectral.operator_build", None),
    ("llgtw.spectral", "transverse_azimuth_operator", "spectral.operator_build", None),
    ("llgtw.spectral", "transverse_tilt_operator", "spectral.operator_build", None),
    ("llgtw.spectral:SchrodingerOp", "shifted", "spectral.operator_build", None),
    ("llgtw.spectral", "lowest_eigenpairs", "spectral.lowest_eigenpairs", None),
    ("llgtw.spectral", "eigh_tridiagonal", "lapack.eigh_tridiagonal", None),
    ("llgtw.dynamics", "integrate", "dynamics.integrate", _integrate_hook),
    ("llgtw.dynamics", "energy_cartesian", "energetics.energy_cartesian", None),
    ("llgtw.dynamics", "track_wall", "dynamics.track_wall", None),
) + tuple(("llgtw.verification", fn, f"verification.{label}", None) for fn, label in _CHECKS)

ROOT = "pass"

def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans and counts for one traced pass."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[list] = []      # [name, start, end, parent index or -1, ok]
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, name: str, fn, hook=None):
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[4] = True
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, hook in TARGETS:
                obj = _resolve(owner)
                original = obj.__dict__[attr]
                saved.append((obj, attr, original))
                setattr(obj, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    def run(self, fn, *args):
        """Call fn(*args) inside the root span of a pass."""
        return self.wrap(ROOT, fn)(*args)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for lo, hi in sorted(children[i]):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer metrics of one traced pass: every per_layer name of
    BENCHMARK.json except trace.overhead_s, which needs the untraced passes."""
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for span, st in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st

    solve_ms = [1e3 * (s[2] - s[1]) for s in spans if s[0] == "solver.solve_tw"]
    branch_ids = {i for i, s in enumerate(spans) if s[0] == "solver.continue_branch"}
    attempts = [s for s in spans if s[0] == "solver.solve_tw" and s[3] in branch_ids]
    accepted = sum(1 for s in attempts if s[4])
    root = next(s for s in spans if s[0] == ROOT)
    m = {}
    for layer in ("solver.solve_tw", "solver.continue_branch", "lapack.solve_banded",
                  "walls.base_profile", "walls.transverse_wall", "spectral.lowest_eigenpairs",
                  "lapack.eigh_tridiagonal", "energetics.equilibria", "dynamics.integrate",
                  "energetics.energy_cartesian"):
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.self_s"] = self_s[layer]
    for layer in ("solver.reference_profile", "solver.velocity_identity", "energetics.torques",
                  "energetics.torque_partials", "dynamics.track_wall"):
        m[f"{layer}.self_s"] = self_s[layer]
    m["solver.solve_tw.failed"] = sum(1 for s in spans if s[0] == "solver.solve_tw" and not s[4])
    m["solver.solve_tw.p50_ms"] = float(np.percentile(solve_ms, 50)) if solve_ms else 0.0
    m["solver.solve_tw.p90_ms"] = float(np.percentile(solve_ms, 90)) if solve_ms else 0.0
    m["solver.newton_iters"] = counts["newton_iters"]
    m["solver.residual_evals"] = calls["energetics.torques"]
    m["solver.jacobian_builds"] = calls["energetics.torque_partials"]
    m["solver.line_search_useful"] = _ratio(calls["lapack.solve_banded"],
                                            calls["energetics.torques"])
    m["solver.continue_branch.attempts"] = len(attempts)
    m["solver.continue_branch.accepted"] = accepted
    m["solver.continue_branch.useful_ratio"] = _ratio(accepted, len(attempts))
    m["spectral.operator_build_s"] = self_s["spectral.operator_build"]
    m["dynamics.steps"] = counts["steps"]
    m["dynamics.step_us"] = 1e6 * _ratio(self_s["dynamics.integrate"], counts["steps"])
    for _, label in _CHECKS:
        m[f"verification.{label}_s"] = inclusive_s(spans, f"verification.{label}")
    m["trace.wall_s"] = root[2] - root[1]
    m["trace.unwrapped_self_s"] = self_s[ROOT]
    return m


def inclusive_s(spans, name: str) -> float:
    """Inclusive time of the spans called `name`."""
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
