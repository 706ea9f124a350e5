"""In-memory span tracer that wraps carleman_lab functions from outside.

Each wrapped call records one span: the function's name, its start and end
(``time.perf_counter``) and the index of the enclosing span.  Spans live in
compact arrays until the run ends; ``summarize`` then turns them into the
per-layer metrics that ``run.py`` reports.

A span's self time is its duration minus the time covered by its child
spans.  Metric groups charge a span's self time to the nearest enclosing
span of the same module that belongs to a named group, so private helpers
count towards the public function that called them.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

PACKAGE = "carleman_lab"

# Modules whose module-level functions are wrapped; cli and config make up
# set-up, and svgplot is too small to track.
LAYERS = ("geometry", "weight", "pde_solver", "carleman_check", "inverse",
          "config", "outputs")

# Methods wrapped in addition to the module-level functions.
METHODS = {
    "geometry": {"DomainLayout": ("classify",)},
    "weight": {"TransmissionWeight": ("psi", "grad", "hessian", "laplacian")},
    "pde_solver": {"SchrodingerOperator": ("__init__", "step")},
}

# metric group -> spans whose calls it counts and whose self time it sums
GROUPS = {
    "config.load": ("config.load_config", "config.apply_overrides"),
    "geometry.classify": ("geometry.DomainLayout.classify",),
    "weight.eval": tuple(f"weight.TransmissionWeight.{m}"
                         for m in METHODS["weight"]["TransmissionWeight"]),
    "weight.verify": ("weight.verify_hypotheses",),
    "weight.fit_params": ("weight.fit_carleman_params",),
    "weight.pair": ("weight.build_epsilon_pair",),
    "pde_solver.flux_assembly": ("pde_solver._assemble_flux_matrix",),
    "pde_solver.lu_factor": ("pde_solver.SchrodingerOperator.__init__",),
    "pde_solver.cn_step": ("pde_solver.SchrodingerOperator.step",),
    "pde_solver.forward_solve": ("pde_solver.solve_forward",),
    "pde_solver.trace_operator": ("pde_solver.trace_operator",),
    "pde_solver.neumann_trace": ("pde_solver.neumann_trace",),
    "carleman_check.ratio": ("carleman_check.carleman_ratio",),
    "carleman_check.conjugation": ("carleman_check._conjugation_factors",
                                   "carleman_check.conjugate",
                                   "carleman_check._common_log_shift"),
    "carleman_check.p1": ("carleman_check.apply_P1",),
    "carleman_check.p2": ("carleman_check.apply_P2",),
    "carleman_check.weighted_norm": ("carleman_check.weighted_norm_sq",),
    "carleman_check.residual": ("carleman_check.apply_transmission_operator",),
    "carleman_check.boundary_term": ("carleman_check._boundary_term",),
    "carleman_check.suite_build": ("carleman_check.build_test_suite",),
    "inverse.misfit": ("inverse.misfit",),
    "inverse.misfit_grad": ("inverse.misfit_and_gradient",),
    "inverse.reconstruct": ("inverse.reconstruct",),
    "inverse.trace_distance": ("inverse.trace_distance",),
    "inverse.instance": ("inverse.make_instance",),
    "outputs.write": ("outputs.write_csv", "outputs.write_json",
                      "outputs.write_svg"),
}

# groups reported by self time (.s) and call count (.count)
SELF_TIMED = (
    "geometry.classify", "weight.eval", "weight.verify", "weight.fit_params",
    "pde_solver.flux_assembly", "pde_solver.lu_factor", "pde_solver.cn_step",
    "pde_solver.forward_solve", "pde_solver.trace_operator",
    "pde_solver.neumann_trace", "outputs.write",
)
# groups reported by self time only
SELF_ONLY = (
    "weight.pair", "carleman_check.conjugation", "carleman_check.p1",
    "carleman_check.p2", "carleman_check.weighted_norm",
    "carleman_check.residual", "carleman_check.boundary_term",
    "carleman_check.suite_build",
)
# groups whose .s is the wall time inside the call, children included
INCLUSIVE = ("inverse.misfit", "inverse.misfit_grad", "inverse.instance")
# groups reported as per-call latency (median and tail, in ms)
LATENCY = ("carleman_check.ratio", "inverse.trace_distance")

# fraction of the final relative error that counts as having plateaued
PLATEAU_TOL = 0.01


class Tracer:
    """Wraps functions so each call appends one span to in-memory arrays."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._wrapped: dict[int, tuple] = {}   # id(original) -> (orig, wrapper)
        self.np_gradient_calls = 0
        self.lu_nnz: dict[int, int] = {}        # unknowns -> nnz(L) + nnz(U)
        self.inverse_iterates: list = []        # (q, instance) per gradient call
        self.written: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """Return a wrapper of fn that records a span named name."""
        nid = self._id(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if on_return is not None:
                on_return(args, result)
            return result

        self._wrapped[id(fn)] = (fn, traced)
        return traced

    # ------------------------------------------------------------------
    # installation

    def _hooks(self):
        def lu_fill(args, _result):
            nnz = lu_fill_nnz(args[0])
            if nnz is not None:
                self.lu_nnz.setdefault(nnz[0], nnz[1])

        def iterate(args, _result):
            self.inverse_iterates.append((args[0].copy(), args[1]))

        def written(_args, result):
            self.written.append(str(result))

        hooks = {
            "pde_solver.SchrodingerOperator.__init__": lu_fill,
            "inverse.misfit_and_gradient": iterate,
        }
        for name in GROUPS["outputs.write"]:
            hooks[name] = written
        return hooks

    def install(self):
        """Wrap every module-level function of LAYERS and the METHODS, then
        rebind every carleman_lab module attribute that still refers to an
        original.  Raises RuntimeError if an original is left anywhere."""
        hooks = self._hooks()
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    self.wrap(name, value, hooks.get(name))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        name = f"{layer}.{cls_name}.{meth}"
                        setattr(cls, meth, self.wrap(name, fn, hooks.get(name)))
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self._count_np_gradient()
        left = self.leftover_originals()
        if left:
            raise RuntimeError("unwrapped originals left: " + ", ".join(left))

    def leftover_originals(self) -> list[str]:
        """Names under which a wrapped original is still reachable from
        vars() of a carleman_lab module or of a class it defines."""
        left = []
        for mod in _package_modules():
            for attr, value in vars(mod).items():
                if self._is_original(value):
                    left.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(value) and value.__module__ == mod.__name__:
                    for key, member in vars(value).items():
                        if self._is_original(member):
                            left.append(f"{mod.__name__}.{attr}.{key}")
        return left

    def _is_original(self, value) -> bool:
        hit = self._wrapped.get(id(value))
        return hit is not None and hit[0] is value

    def _count_np_gradient(self):
        """Count numpy.gradient calls made directly by carleman_check."""
        import numpy

        original = numpy.gradient
        names, name_id, stack = self.names, self.name_id, self._stack

        @functools.wraps(original)
        def counted(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[name_id[top]].startswith("carleman_check."):
                self.np_gradient_calls += 1
            return original(*args, **kwargs)

        numpy.gradient = counted

    # ------------------------------------------------------------------
    # reporting

    def summarize(self) -> dict:
        """Per-layer metrics from the recorded spans (see run.PER_LAYER)."""
        import numpy as np

        n = len(self.start)
        names = self.names
        nid = np.frombuffer(self.name_id, dtype=np.int_, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int_, count=n)
        dur = (np.frombuffer(self.end, dtype=float, count=n)
               - np.frombuffer(self.start, dtype=float, count=n))
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        group_of_name = {}
        for group, members in GROUPS.items():
            for member in members:
                group_of_name[member] = group
        module_of = [name.split(".", 1)[0] for name in names]
        name_group = [group_of_name.get(name) for name in names]
        charge = [None] * n
        for i in range(n):
            k = int(nid[i])
            g = name_group[k]
            if g is None:
                p = int(parent[i])
                if p >= 0 and module_of[int(nid[p])] == module_of[k]:
                    g = charge[p]
            charge[i] = g

        calls = {g: 0 for g in GROUPS}
        inclusive = {g: [] for g in GROUPS}
        for k, name in enumerate(names):
            g = name_group[k]
            if g is not None:
                sel = nid == k
                calls[g] += int(sel.sum())
                inclusive[g].extend(dur[sel].tolist())
        charged = {g: 0.0 for g in GROUPS}
        layer_self = {}
        for i in range(n):
            if charge[i] is not None:
                charged[charge[i]] += self_time[i]
            layer = module_of[int(nid[i])]
            layer_self[layer] = layer_self.get(layer, 0.0) + self_time[i]

        out = {}
        for g in SELF_TIMED:
            out[f"{g}.count"] = calls[g]
            out[f"{g}.s"] = charged[g]
        for g in SELF_ONLY:
            out[f"{g}.s"] = charged[g]
        for g in INCLUSIVE:
            out[f"{g}.count"] = calls[g]
            out[f"{g}.s"] = float(sum(inclusive[g]))
        out["config.load_s"] = float(sum(inclusive["config.load"]))
        for g in LATENCY:
            p50, tail, pct = latency_ms(inclusive[g])
            out[f"{g}.count"] = calls[g]
            out[f"{g}.ms_p50"] = p50
            out[f"{g}.ms_tail"] = tail
            out[f"{g}.tail_pct"] = pct
        out["inverse.adjoint.s"] = charged["inverse.misfit_grad"]
        out["carleman_check.np_gradient.count"] = self.np_gradient_calls

        nnz = self.lu_nnz[max(self.lu_nnz)] if self.lu_nnz else 0
        out["pde_solver.lu_fill_nnz"] = nnz
        out["pde_solver.lu_solve_bytes_computed"] = 16 * nnz

        iterations = max(calls["inverse.misfit_grad"] - 1, 0) \
            if calls["inverse.reconstruct"] else 0
        trials = _count_under(names, nid, parent, "inverse.misfit",
                              "inverse.reconstruct")
        solves = _count_under(names, nid, parent, "pde_solver.solve_forward",
                              "inverse.reconstruct")
        out["inverse.iterations"] = iterations
        out["inverse.accept_ratio"] = iterations / trials if trials else 0.0
        out["inverse.solves_per_iter"] = solves / iterations if iterations else 0.0
        out["inverse.iters_to_plateau"] = self._iters_to_plateau()

        out["outputs.write.bytes"] = sum(os.path.getsize(p) for p in self.written
                                         if os.path.exists(p))
        for layer in ("cli",) + LAYERS:
            out[f"layer.{layer}.s"] = float(layer_self.get(layer, 0.0))
        return out

    def _iters_to_plateau(self) -> int:
        """First gradient evaluation whose relative error is within
        PLATEAU_TOL of the last one; evaluation k follows iteration k."""
        import numpy as np

        errs = []
        for q, inst in self.inverse_iterates:
            denom = float(np.linalg.norm(inst.p_true))
            errs.append(float(np.linalg.norm(q - inst.p_true)) / denom)
        if not errs:
            return 0
        final = errs[-1]
        for k, err in enumerate(errs):
            if abs(err - final) <= PLATEAU_TOL * final:
                return k
        return len(errs) - 1

    def dump(self, path: str):
        """Write the spans out (names table plus one row per span)."""
        import numpy as np

        n = len(self.start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int_, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int_, count=n),
            start=np.frombuffer(self.start, dtype=float, count=n),
            end=np.frombuffer(self.end, dtype=float, count=n),
        )


def lu_fill_nnz(operator):
    """(unknowns, nnz(L) + nnz(U)) of a SchrodingerOperator's stored LU, or
    None when the operator keeps no SuperLU object."""
    lu = getattr(operator, "_lu", None)
    if lu is None or not hasattr(lu, "L"):
        return None
    return lu.shape[0], int(lu.L.nnz + lu.U.nnz)


def latency_ms(durations) -> tuple[float, float, float]:
    """Median and tail of durations (s) in ms, plus the tail's percentile.

    The tail is the highest percentile with at least ten samples beyond
    it; with ten samples or fewer it is the maximum, reported as 100.
    """
    if not durations:
        return 0.0, 0.0, 0.0
    xs = sorted(1e3 * d for d in durations)
    n = len(xs)
    mid = n // 2
    p50 = xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
    if n <= 10:
        return p50, xs[-1], 100.0
    k = n - 10
    return p50, xs[k - 1], 100.0 * k / n


def _count_under(names, nid, parent, child: str, ancestor: str) -> int:
    """Number of child spans that have an ancestor span named ancestor."""
    try:
        c, a = names.index(child), names.index(ancestor)
    except ValueError:
        return 0
    count = 0
    for i in (nid == c).nonzero()[0]:
        p = int(parent[i])
        while p >= 0 and nid[p] != a:
            p = int(parent[p])
        count += p >= 0
    return count


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
