"""Span tracing of polgeo's public functions, installed from outside the package.

``Tracer.install`` wraps each function in ``TARGETS`` and rebinds the wrapper
under every name that refers to the original in every loaded ``polgeo``
module, so calls made inside the package (``gd_run`` -> ``lqr_eval`` ->
``dlyap`` -> ``spectral_radius``) are seen as well as calls made by the
benchmark. Each wrapper records a span: layer name, start, end, parent span
and instance id. Spans stay in memory until the caller writes them out.

Self time of a span is its duration minus the durations of its direct
children. Children nest strictly inside their parent (one thread), so that
sum is exactly the part of the parent's interval the children cover.
"""

import functools
import statistics
import sys
import time

import numpy as np

# (module, function, layer). Several functions may feed one layer.
TARGETS = (
    ("numerics", "spectral_radius", "numerics.spectral_radius"),
    ("numerics", "solve_linear", "numerics.solve_linear"),
    ("numerics", "sym_lambda_max", "numerics.eig"),
    ("numerics", "sym_lambda_min", "numerics.eig"),
    ("numerics", "hermitian_lambda_max", "numerics.eig"),
    ("numerics", "spectral_norm", "numerics.eig"),
    ("lyapunov", "dlyap", "lyapunov.dlyap"),
    ("policy_core", "is_stabilizing_static", "policy_core.membership"),
    ("policy_core", "is_stabilizing_dynamic", "policy_core.membership"),
    ("policy_core", "connectivity_scan", "policy_core.scan"),
    ("policy_core", "landscape_slice", "policy_core.scan"),
    ("policy_core", "stability_certificate", "policy_core.certificate"),
    ("lqr", "lqr_eval", "lqr.lqr_eval"),
    ("lqr", "lqr_grad_riemannian", "lqr.grad"),
    ("lqr", "lqr_grad_euclidean", "lqr.grad"),
    ("lqr", "backtrack", "lqr.backtrack"),
    ("lqr", "gd_run", "lqr.gd_run"),
    ("lqr", "hewer_step", "lqr.hewer_step"),
    ("structured", "tangential_project", "structured.project"),
    ("structured", "structured_gd_run", "structured.gd_run"),
    ("lqg", "lqg_eval", "lqg.lqg_eval"),
    ("lqg", "lqg_grad", "lqg.grad"),
    ("lqg", "km_grad", "lqg.km_grad"),
    ("lqg", "km_inner", "lqg.km_inner"),
    ("lqg", "gramians", "lqg.gramians"),
    ("lqg", "lqg_gd_run", "lqg.gd_run"),
    ("hinf", "hinf_freq_response", "hinf.freq_response"),
    ("hinf", "hinf_cost", "hinf.hinf_cost"),
    ("hinf", "hinf_descent_run", "hinf.descent"),
    ("zeroth", "estimate_gradient", "zeroth.estimate"),
    ("zeroth", "zo_gd_run", "zeroth.gd_run"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "run_experiment", "cli.run_experiment"),
)

# Functions only counted, not spanned: they are tiny and called per sample.
COUNTED = (("zeroth", "sample_sphere", "zeroth.draws"),)

# Spans the benchmark opens around callables it hands to polgeo (scan
# membership/cost callbacks, zeroth-order cost queries), so that the
# callable's own Python is not charged to the caller's self time.
CALLBACK = "bench.callback"
COST_QUERY = "bench.cost_query"

MODULES = ("numerics", "lyapunov", "policy_core", "lqr", "structured", "lqg",
           "hinf", "zeroth", "cli")


def solve_flops(G, b):
    """Computed flops of LU with partial pivoting plus k solve pairs; complex x4."""
    n = np.shape(G)[0]
    k = 1 if np.ndim(b) == 1 else np.shape(b)[1]
    flops = 2.0 * n ** 3 / 3.0 + 2.0 * n * n * k
    if np.iscomplexobj(G) or np.iscomplexobj(b):
        flops *= 4.0
    return flops


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent index, instance]
        self.stack = []
        self.instance = None
        self.counts = {}
        self.step_ratios = []    # accepted eta / s_K(V), one per certified step
        self._certificate = None
        self._saved = []

    def begin_instance(self, instance_id):
        self.instance = instance_id
        self._certificate = None

    def _open(self, layer):
        idx = len(self.spans)
        self.spans.append([layer, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1, self.instance])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, key, amount=1):
        """Add to a named counter (work counts the spans cannot see)."""
        self.counts[key] = self.counts.get(key, 0) + amount

    def span(self, layer, fn):
        """Wrap a callable so that each call is a span named ``layer``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def _counted(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fname, layer, fn):
        before = getattr(self, "_before_" + fname, None)
        after = getattr(self, "_after_" + fname, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            idx = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result
        return traced

    # ---- hooks: argument rewrites before the call, counters after ---------
    def _before_connectivity_scan(self, args):
        return (self.span(CALLBACK, args[0]),) + tuple(args[1:])

    _before_landscape_slice = _before_connectivity_scan

    def _before_zo_gd_run(self, args):
        return (self.span(COST_QUERY, args[0]),) + tuple(args[1:])

    def _before_backtrack(self, args):
        feasible = args[0]

        def tried(eta):
            self.add("lqr.backtrack.tried")
            return feasible(eta)
        return (tried,) + tuple(args[1:])

    def _after_solve_linear(self, args, result):
        self.add("numerics.solve_linear.flops", solve_flops(args[0], args[1]))

    def _after_dlyap(self, args, result):
        n = np.shape(args[0])[0]
        self.add("lyapunov.dlyap.smith_iters", result.iterations)
        # each Smith step forms M P M^T (two products) and M M; plus the residual
        self.add("lyapunov.dlyap.flops",
                  6.0 * n ** 3 * result.iterations + 4.0 * n ** 3)

    def _after_is_stabilizing_static(self, args, result):
        if not result:
            self.add("policy_core.membership.rejects")

    _after_is_stabilizing_dynamic = _after_is_stabilizing_static

    def _after_connectivity_scan(self, args, result):
        self.add("policy_core.scan.cells", int(args[2]) ** len(args[1]))

    def _after_landscape_slice(self, args, result):
        self.add("policy_core.scan.cells", int(args[5]) ** 2)

    def _after_stability_certificate(self, args, result):
        self._certificate = float(result)

    def _after_backtrack(self, args, result):
        eta, accepted = result
        if accepted:
            self.add("lqr.backtrack.accepted")
            s = self._certificate
            if s is not None and np.isfinite(s) and s > 0.0:
                self.step_ratios.append(eta / s)
        self._certificate = None

    def _after_hinf_descent_run(self, args, result):
        self.add("hinf.descent.iters", len(result[1]))

    def _after_estimate_gradient(self, args, result):
        self.add("zeroth.samples", args[2].samples)

    # ---- install / uninstall ---------------------------------------------
    def install(self):
        import polgeo
        loaded = [m for name, m in list(sys.modules.items())
                  if m is not None and (name == "polgeo" or name.startswith("polgeo."))]
        wrappers = [(modname, fname, self._wrap(fname, layer,
                                                getattr(getattr(polgeo, modname), fname)))
                    for modname, fname, layer in TARGETS]
        wrappers += [(modname, fname, self._counted(key, getattr(getattr(polgeo, modname), fname)))
                     for modname, fname, key in COUNTED]
        for modname, fname, wrapper in wrappers:
            orig = getattr(getattr(polgeo, modname), fname)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()


def _ratio(num, den):
    return num / den if den else 0.0


def aggregate(tracer):
    """Per-layer metrics of everything the tracer recorded.

    Returns ``(counts, times)``: counts are exact functions of the work done
    and repeat across runs of the same seed; times are self seconds per layer
    and per module.
    """
    spans = tracer.spans
    child = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = {}, {}
    for i, (layer, start, end, _, _) in enumerate(spans):
        calls[layer] = calls.get(layer, 0) + 1
        self_s[layer] = self_s.get(layer, 0.0) + (end - start) - child[i]

    def parent_layer(i):
        p = spans[i][3]
        return spans[p][0] if p >= 0 else None

    def under(i, loops):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] in loops:
                return True
            p = spans[p][3]
        return False

    lqr_iters = lqg_iters = zo_iters = lqr_loop_evals = lqg_loop_evals = 0
    for i, span in enumerate(spans):
        layer = span[0]
        if layer == "lqr.grad" and parent_layer(i) == "lqr.gd_run":
            lqr_iters += 1
        elif layer == "lqr.hewer_step":
            lqr_iters += 1
        elif layer in ("lqg.grad", "lqg.km_grad") and parent_layer(i) == "lqg.gd_run":
            lqg_iters += 1
        elif layer == "zeroth.estimate" and parent_layer(i) == "zeroth.gd_run":
            zo_iters += 1
        elif layer == "lqr.lqr_eval" and under(i, ("lqr.gd_run", "lqr.hewer_step")):
            lqr_loop_evals += 1
        elif layer == "lqg.lqg_eval" and under(i, ("lqg.gd_run",)):
            lqg_loop_evals += 1

    c = tracer.counts
    n = calls.get
    draws, samples = c.get("zeroth.draws", 0), c.get("zeroth.samples", 0)
    counts = {
        "numerics.spectral_radius.calls": n("numerics.spectral_radius", 0),
        "numerics.solve_linear.calls": n("numerics.solve_linear", 0),
        "numerics.solve_linear.flops": c.get("numerics.solve_linear.flops", 0.0),
        "numerics.eig.calls": n("numerics.eig", 0),
        "lyapunov.dlyap.calls": n("lyapunov.dlyap", 0),
        "lyapunov.dlyap.smith_iters": c.get("lyapunov.dlyap.smith_iters", 0),
        "lyapunov.dlyap.flops": c.get("lyapunov.dlyap.flops", 0.0),
        "policy_core.membership.calls": n("policy_core.membership", 0),
        "policy_core.membership.reject_ratio": _ratio(
            c.get("policy_core.membership.rejects", 0), n("policy_core.membership", 0)),
        "policy_core.scan.cells": c.get("policy_core.scan.cells", 0),
        "policy_core.certificate.calls": n("policy_core.certificate", 0),
        "policy_core.certificate.step_ratio.p50": (
            statistics.median(tracer.step_ratios) if tracer.step_ratios else 0.0),
        "lqr.lqr_eval.calls": n("lqr.lqr_eval", 0),
        "lqr.grad.calls": n("lqr.grad", 0),
        "lqr.iters": lqr_iters,
        "lqr.evals_per_iter": _ratio(lqr_loop_evals, lqr_iters),
        "lqr.backtrack.accept_ratio": _ratio(c.get("lqr.backtrack.accepted", 0),
                                             c.get("lqr.backtrack.tried", 0)),
        "structured.project.calls": n("structured.project", 0),
        "lqg.lqg_eval.calls": n("lqg.lqg_eval", 0),
        "lqg.km_grad.calls": n("lqg.km_grad", 0),
        "lqg.km_inner.calls": n("lqg.km_inner", 0),
        "lqg.gramians.calls": n("lqg.gramians", 0),
        "lqg.iters": lqg_iters,
        "lqg.evals_per_iter": _ratio(lqg_loop_evals, lqg_iters),
        "hinf.freq_response.calls": n("hinf.freq_response", 0),
        "hinf.hinf_cost.calls": n("hinf.hinf_cost", 0),
        "hinf.freq_per_cost": _ratio(n("hinf.freq_response", 0), n("hinf.hinf_cost", 0)),
        "hinf.descent.iters": c.get("hinf.descent.iters", 0),
        "zeroth.cost_queries": n(COST_QUERY, 0),
        "zeroth.resample_ratio": _ratio(draws - samples, draws),
        "zeroth.iters": zo_iters,
        "cli.run_experiment.calls": n("cli.run_experiment", 0),
        "cli.bytes_written": c.get("cli.bytes_written", 0),
    }
    times = {layer + ".self_s": value for layer, value in self_s.items()}
    for module in MODULES:
        times[module + ".self_s"] = sum(
            value for layer, value in self_s.items() if layer.split(".")[0] == module)
    return counts, times
