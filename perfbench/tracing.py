"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.installed``
swaps the module attributes that saddlescape's run loops look up at call
time for wrappers that open a span, and restores them on exit.  A span
holds its name, start, end and parent; a name's self time is its duration
minus the part covered by its child spans.  Each span name belongs to
exactly one layer metric (``LAYER_OF``), so the layer self times add up to
the time spent inside the root spans (the sweep and the summarize pass).
"""

from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

from saddlescape import diagnostics, harness, psgd, scrn
from saddlescape.seeds import SeedStream

LAYER_OF = {
    "seeds.child": "seeds.derive_s",
    "seeds.seeds": "seeds.derive_s",
    "seeds.rng": "seeds.rng_s",
    "problems.sample_value_batch": "problems.sample_s",
    "problems.sample_grad_batch": "problems.sample_s",
    "problems.sample_hess_batch": "problems.sample_s",
    "problems.exact_value": "problems.exact_s",
    "problems.exact_grad": "problems.exact_s",
    "problems.exact_hess": "problems.exact_s",
    "estimators.fo_gradient": "estimators.fo_grad_s",
    "estimators.so_hessian": "estimators.so_hess_s",
    "estimators.zo_gradient": "estimators.zo_grad_s",
    "estimators.zo_hessian": "estimators.zo_hess_s",
    "psgd.psgd_step": "psgd.step_s",
    "psgd.clamp_to_box": "psgd.step_s",
    "psgd.draw_perturbation": "psgd.perturb_s",
    "scrn._estimate_step": "scrn.step_s",
    "scrn.clamp_to_box": "scrn.step_s",
    "scrn.solve_cubic": "scrn.solve_s",
    "scrn.brentq": "scrn.solve_s",
    "diagnostics.certify": "diagnostics.certify_s",
    "diagnostics.min_eigenvalue": "diagnostics.eigh_s",
    "harness.run_cell": "harness.loop_self_s",
    "harness._run_psgd_stopping": "harness.loop_self_s",
    "scrn.run_scrn": "harness.loop_self_s",
    "harness.write_trace": "harness.write_trace_s",
    "harness.run_experiment": "harness.sweep_self_s",
    "harness.read_trace": "harness.read_trace_s",
    "cli.summarize": "cli.summarize_s",
}


class Tracer:
    """Records spans in memory; ``wrap`` turns a callable into a traced one."""

    def __init__(self):
        self.spans = []  # (span_id, parent_id, name, start_ns, end_ns), in end order
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.zo_hess_peak_bytes = 0
        self._open = []  # [span_id, child_ns] of each open span, innermost last

    def wrap(self, name, fn):
        if name not in LAYER_OF:
            raise KeyError(f"span {name!r} has no layer")

        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._open)
            parent = self._open[-1][0] if self._open else -1
            frame = [span_id, 0]
            self._open.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._open.pop()
                duration = end - start
                if self._open:
                    self._open[-1][1] += duration
                self.self_ns[name] += duration - frame[1]
                self.calls[name] += 1
                self.spans.append((span_id, parent, name, start, end))

        return traced

    def layer_seconds(self) -> dict:
        out = dict.fromkeys(LAYER_OF.values(), 0.0)
        for name, ns in self.self_ns.items():
            out[LAYER_OF[name]] += ns * 1e-9
        return out

    def write_spans(self, path) -> None:
        """CSV of every span, times in ns from the first span's start."""
        origin = min((s[3] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,name,start_ns,end_ns\n")
            for span_id, parent, name, start, end in sorted(self.spans):
                fh.write(f"{span_id},{parent},{name},{start - origin},{end - origin}\n")

    # -- counting wrappers: each returns a callable with the original's signature

    def _counting_sample(self, fn):
        def sample(points, seeds):
            self.counts["problems.samples"] += len(seeds)
            return fn(points, seeds)
        return sample

    def _counting_brentq(self, fn):
        def brentq(f, *args, **kwargs):
            def secular(s):
                self.counts["scrn.secular_evals"] += 1
                return f(s)
            return fn(secular, *args, **kwargs)
        return brentq

    def _counting_solve(self, fn):
        def solve_cubic(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self.counts["scrn.hard_cases"] += sol.hard_case
            return sol
        return solve_cubic

    def _counting_clamp(self, fn, counter):
        def clamp_to_box(x, radius):
            out = fn(x, radius)
            self.counts[counter] += out is not x
            return out
        return clamp_to_box

    def _counting_certify(self, fn):
        def certify(*args, **kwargs):
            cert = fn(*args, **kwargs)
            self.counts["diagnostics.certified"] += cert.certified
            return cert
        return certify

    def _peak_zo_hessian(self, fn):
        def zo_hessian(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.zo_hess_peak_bytes = max(self.zo_hess_peak_bytes, peak)
        return zo_hessian

    def _traced_problem_from_config(self, fn):
        def problem_from_config(source):
            p = fn(source)
            fields = {
                name: self.wrap(f"problems.{name}", getattr(p, name))
                for name in ("exact_value", "exact_grad", "exact_hess")
            }
            for name in ("sample_value_batch", "sample_grad_batch", "sample_hess_batch"):
                oracle = getattr(p, name)
                if oracle is not None:
                    fields[name] = self.wrap(f"problems.{name}", self._counting_sample(oracle))
            return dataclasses.replace(p, **fields)
        return problem_from_config

    @contextmanager
    def installed(self):
        """Swap saddlescape's call-time attributes for traced wrappers."""
        saved = []

        def patch(owner, attr, replacement):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, replacement)

        def span(owner, attr, name, counting=None):
            fn = getattr(owner, attr)
            patch(owner, attr, self.wrap(name, counting(fn) if counting else fn))

        try:
            for method in ("child", "seeds", "rng"):
                span(SeedStream, method, f"seeds.{method}")
            patch(harness, "problem_from_config",
                  self._traced_problem_from_config(harness.problem_from_config))
            for module in (psgd, scrn):
                for est in ("fo_gradient", "zo_gradient"):
                    span(module, est, f"estimators.{est}")
            span(scrn, "so_hessian", "estimators.so_hessian")
            span(scrn, "zo_hessian", "estimators.zo_hessian", self._peak_zo_hessian)
            span(psgd, "psgd_step", "psgd.psgd_step")
            span(psgd, "draw_perturbation", "psgd.draw_perturbation")
            span(psgd, "clamp_to_box", "psgd.clamp_to_box",
                 lambda fn: self._counting_clamp(fn, "psgd.clamped_steps"))
            span(scrn, "_estimate_step", "scrn._estimate_step")
            span(scrn, "solve_cubic", "scrn.solve_cubic", self._counting_solve)
            span(scrn, "brentq", "scrn.brentq", self._counting_brentq)
            span(scrn, "clamp_to_box", "scrn.clamp_to_box",
                 lambda fn: self._counting_clamp(fn, "scrn.clamped_steps"))
            for module in (psgd, scrn, harness):
                span(module, "certify", "diagnostics.certify", self._counting_certify)
            span(diagnostics, "min_eigenvalue", "diagnostics.min_eigenvalue")
            span(harness, "run_cell", "harness.run_cell")
            span(harness, "_run_psgd_stopping", "harness._run_psgd_stopping")
            span(scrn, "run_scrn", "scrn.run_scrn")
            span(harness, "write_trace", "harness.write_trace")
            span(harness, "read_trace", "harness.read_trace")
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

