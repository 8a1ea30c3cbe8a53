"""Outside-in tracing of diffgeo's layers.

The tracer replaces each layer's public entry points, at every diffgeo
module namespace that binds them, with wrappers that record a span: its
name, its parent span, and its duration.  Spans stay in memory, aggregated
per (span, parent); a span's self time is its duration minus its child
spans.  Callables handed to the solvers (ODE right-hand sides, quadrature
integrands, root-finder functions) are wrapped per call, which is where
the exact work counts come from.  ``restore`` puts every original back.

Jet arithmetic is not wrapped: its cost is part of ``expr.eval``, whose
calls are counted by argument kind (Jet2, Jet1 or float).
"""

import collections
import importlib
import sys
import time

# layer -> public entry points wrapped as spans named "<layer>.<function>"
ENTRY_POINTS = {
    "catalog": ("make",),
    "expr": ("load_definition", "parse_text"),
    "surfaces": ("metric_and_gamma", "curvatures", "forms", "riemann_R1212",
                 "gauss_weingarten_residuals",
                 "codazzi_compatibility_residuals", "form_identity_residual",
                 "surface_frame", "surface_area", "total_curvature"),
    "curves": ("frenet", "frenet_residuals", "classify_curve",
               "reconstruct_from_kappa_tau", "arc_length",
               "reparam_to_arclength"),
    "surfacecurves": ("geodesic_ivp", "parallel_transport",
                      "gauss_bonnet_global", "gauss_bonnet_local",
                      "curvature_split", "kappa_n_quotient",
                      "geodesic_torsion", "geodesic_torsion_principal",
                      "asymptotic_directions", "principal_direction_field",
                      "liouville_check", "bonnet_torsion_check"),
    "report": ("write_json", "write_csv"),
    "cli": ("main",),
}
REPORT_METHODS = ("add_record", "add_suite", "sort_records", "to_obj")

POINTWISE = tuple(f"surfaces.{n}" for n in (
    "curvatures", "forms", "riemann_R1212", "gauss_weingarten_residuals",
    "codazzi_compatibility_residuals", "form_identity_residual"))
EXPR_EVAL = "expr.eval"
RHS = "surfacecurves.rhs"          # every right-hand side given to ode_solve
INTEGRAND = "surfaces.integrand"   # every integrand given to quadrature
BVP = "surfacecurves.geodesic_bvp"
# Gauss points per panel, from the rule the quadrature module documents
POINTS_PER_PANEL = {"quad_adaptive": 15, "quad2d": 225}


def _jet_kind(x, Jet1, Jet2):
    if isinstance(x, Jet2):
        return "jet2"
    if isinstance(x, Jet1):
        return "jet1"
    return "float"


class Tracer:
    """Install with ``install()``, run the work, then ``restore()``."""

    def __init__(self):
        self.stack = [["root", 0.0]]
        self.agg = {}                   # (span, parent) -> [calls, total, self]
        self.counts = collections.Counter()
        self.broken = set()             # counters whose identity failed
        self.missing = []               # entry points that no longer exist
        self._patches = []              # (owner, attribute, original)
        self._bvp_depth = 0

    # -- spans ---------------------------------------------------------------

    def span(self, name, fn, tally=None):
        """``fn`` wrapped in a span; ``tally[0]`` counts its calls."""
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        def wrapper(*args, **kwargs):
            if tally is not None:
                tally[0] += 1
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                rec = agg.get((name, parent[0]))
                if rec is None:
                    agg[(name, parent[0])] = [1, dt, dt - frame[1]]
                else:
                    rec[0] += 1
                    rec[1] += dt
                    rec[2] += dt - frame[1]

        return wrapper

    # -- special entry points --------------------------------------------------

    def _shape_eval(self, fn, Jet1, Jet2):
        counts, inner = self.counts, self.span(EXPR_EVAL, fn)

        def shape_eval(definition, *args, **kwargs):
            kind = _jet_kind(args[0], Jet1, Jet2) if args else "float"
            counts[f"expr.eval.calls.{kind}"] += 1
            return inner(definition, *args, **kwargs)

        return shape_eval

    def _eval_scalar(self, fn, Jet1, Jet2):
        # eval_scalar recurses through its module global; only the outermost
        # call of a tree is one evaluation
        counts, stack, inner = self.counts, self.stack, self.span(EXPR_EVAL, fn)

        def eval_scalar(node, env):
            if stack[-1][0] == EXPR_EVAL:
                return fn(node, env)
            kind = "float"
            for val in env.values():
                k = _jet_kind(val, Jet1, Jet2)
                if k != "float":
                    kind = k
                    break
            counts[f"expr.eval.calls.{kind}"] += 1
            return inner(node, env)

        return eval_scalar

    def _ode_solve(self, fn):
        counts, broken = self.counts, self.broken
        inner = self.span("ode.ode_solve", fn)

        def ode_solve(field_fn, *args, **kwargs):
            calls = [0]
            post = kwargs.get("post_step", args[4] if len(args) > 4 else None)
            counts["ode.solves"] += 1
            if self._bvp_depth:
                counts["ode.solves_in_bvp"] += 1
            rhs = self.span(RHS, field_fn, calls)
            try:
                res = inner(rhs, *args, **kwargs)
            except Exception:
                # a solve that raised (the shooting method catches a singular
                # surface point) is counted apart: its rhs calls are exact,
                # its accepted steps unknown.  Without post_step its attempts
                # are the finished ones plus the one cut short, if any.
                counts["ode.solves_raised"] += 1
                counts["ode.rhs_calls"] += calls[0]
                if post is None and calls[0]:
                    done, partial = divmod(calls[0] - 1, 6)
                    counts["ode.attempts_raised"] += done + (partial > 0)
                raise
            # Dormand-Prince with FSAL: one initial evaluation, six per
            # attempted step, one more per accepted step when post_step
            # replaces the state
            accepted = res.n_steps
            extra = 1 + (accepted if post is not None else 0)
            if calls[0] < extra or (calls[0] - extra) % 6:
                broken.add("ode")
            attempts = (calls[0] - extra) // 6
            counts["ode.rhs_calls"] += calls[0]
            counts["ode.attempts"] += attempts
            counts["ode.steps.accepted"] += accepted
            return res

        return ode_solve

    def _quad(self, fn, short):
        counts, broken = self.counts, self.broken
        inner = self.span(f"quadrature.{short}", fn)
        per_panel = POINTS_PER_PANEL[short]

        def quad(f, *args, **kwargs):
            calls = [0]
            counts["quadrature.calls"] += 1
            try:
                return inner(self.span(INTEGRAND, f, calls), *args, **kwargs)
            finally:
                counts["quadrature.integrand_calls"] += calls[0]
                if calls[0] % per_panel:
                    broken.add("quadrature")
                counts["quadrature.panels"] += calls[0] // per_panel

        return quad

    def _root_find(self, fn):
        counts, broken = self.counts, self.broken
        inner = self.span("roots.root_find", fn)

        def root_find(f, *args, **kwargs):
            calls = [0]
            counts["roots.calls"] += 1
            layer = _layer_of(f)
            try:
                return inner(self.span(f"{layer}.root_fn", f, calls),
                             *args, **kwargs)
            finally:
                # f(a) and f(b) come first, then one evaluation per iteration
                if calls[0] < 2:
                    broken.add("roots")
                counts["roots.iterations"] += max(calls[0] - 2, 0)

        return root_find

    def _bvp(self, fn):
        counts, inner = self.counts, self.span(BVP, fn)

        def geodesic_bvp(*args, **kwargs):
            counts["surfacecurves.geodesic_bvp.calls"] += 1
            self._bvp_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._bvp_depth -= 1

        return geodesic_bvp

    # -- installing ------------------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` in every diffgeo module namespace."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diffgeo"
                                   or modname.startswith("diffgeo.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_attr(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Patch every entry point; returns the number of bindings patched."""
        mods = {name: importlib.import_module(f"diffgeo.{name}") for name in
                ("catalog", "expr", "jets", "surfaces", "curves",
                 "surfacecurves", "ode", "quadrature", "roots", "report",
                 "cli")}
        Jet1, Jet2 = mods["jets"].Jet1, mods["jets"].Jet2

        def lookup(layer, name):
            fn = getattr(mods[layer], name, None)
            if fn is None:
                self.missing.append(f"{layer}.{name}")
            return fn

        for layer, names in ENTRY_POINTS.items():
            for name in names:
                fn = lookup(layer, name)
                if fn is not None:
                    self._patch_everywhere(fn, self.span(f"{layer}.{name}", fn))
        special = (("ode", "ode_solve", self._ode_solve),
                   ("roots", "root_find", self._root_find),
                   ("surfacecurves", "geodesic_bvp", self._bvp),
                   ("quadrature", "quad2d",
                    lambda fn: self._quad(fn, "quad2d")),
                   ("quadrature", "quad_adaptive",
                    lambda fn: self._quad(fn, "quad_adaptive")),
                   ("expr", "eval_scalar",
                    lambda fn: self._eval_scalar(fn, Jet1, Jet2)))
        for layer, name, make in special:
            fn = lookup(layer, name)
            if fn is not None:
                self._patch_everywhere(fn, make(fn))

        methods = [("expr", "ShapeDefinition", "eval",
                    lambda fn: self._shape_eval(fn, Jet1, Jet2))]
        methods += [("report", "Report", name,
                     lambda fn, name=name: self.span(f"report.{name}", fn))
                    for name in REPORT_METHODS]
        for layer, cls_name, name, make in methods:
            cls = getattr(mods[layer], cls_name, None)
            fn = getattr(cls, name, None)
            if fn is None:
                self.missing.append(f"{layer}.{cls_name}.{name}")
            else:
                self._patch_attr(cls, name, make(fn))
        return len(self._patches)

    def restore(self):
        """Put every original back; returns the bindings that still do not
        hold their original (empty when all is well)."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in patches
                if getattr(o, a) is not orig]

    # -- results -----------------------------------------------------------------

    def spans(self):
        """Aggregated spans, one row per (span, parent)."""
        return [{"span": s, "parent": p, "calls": rec[0], "total_s": rec[1],
                 "self_s": rec[2]}
                for (s, p), rec in sorted(self.agg.items())]

    def calls(self, *names):
        return sum(rec[0] for (s, _), rec in self.agg.items() if s in names)

    def self_s(self, *names):
        return sum((rec[2] for (s, _), rec in self.agg.items() if s in names),
                   0.0)

    def layer_self_s(self, layer):
        prefix = layer + "."
        return sum((rec[2] for (s, _), rec in self.agg.items()
                    if s.startswith(prefix)), 0.0)


def _layer_of(fn):
    mod = getattr(fn, "__module__", None) or ""
    return mod.rsplit(".", 1)[-1] if mod.startswith("diffgeo") else "caller"
