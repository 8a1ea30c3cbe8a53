"""Command-line front-end.

Subcommands: eval, verify, geodesic, transport, gauss-bonnet, reconstruct.
Shapes come from the catalog (--shape name --param k=v) or definition files
(--file path.pc / .ps).  Reports go to stdout; --json (and --csv, for the
commands with a trajectory) write deterministic artifacts (see
diffgeo.report).  Exit codes: 2 argument errors, 3 evaluation errors,
4 verification failure, 5 geodesic solver errors.
"""

import argparse
import math
import os
import random
import sys
import time

from . import catalog, report, verify
from .curves import classify_curve, frenet, reconstruct_from_kappa_tau
from .errors import DiffGeoError, InvalidParameter, UmbilicPoint, UnknownShape
from .expr import compile_expr, eval_literal, load_definition, parse_text
from .ode import OdeSpec
from .quadrature import QuadSpec
from .surfaces import curvatures, forms, total_curvature
from .surfacecurves import (BoundaryLoop, SurfaceCurve, asymptotic_directions,
                            curvature_split, gauss_bonnet_global,
                            gauss_bonnet_local, geodesic_bvp, geodesic_ivp,
                            parallel_transport, principal_direction_field)
from .vectors import Vec3

_EXIT_ARGS = 2
_EXIT_EVAL = 3
_EXIT_SUITE = 4
_EXIT_GEODESIC = 5
# an argument error, in an argparse type or found by a command: exit 2
_Usage = argparse.ArgumentTypeError
_MAX_LENGTH = 1000.0    # keeps every accepted --length to bounded work
_MAX_POINTS = 10_000    # and every accepted --grid


def _grid(text):
    """'NxM' point counts; a lone 'N' means N points on a curve and NxN on
    a surface."""
    nu, _, nv = text.partition("x")
    try:
        counts = (int(nu), int(nv or nu))
    except ValueError:
        counts = (0, 0)
    if min(counts) < 1:
        raise _Usage(
            f"expected N or NxM with counts of at least 1, got {text!r}")
    return counts


def _number(text, what):
    """A finite number written as an expression over numbers and pi."""
    try:
        x = eval_literal(text)
    except DiffGeoError as exc:
        raise _Usage(f"{what} {text!r}: {exc}") from None
    if not math.isfinite(x):
        raise _Usage(f"{what} {text!r} is not finite")
    return x


def _tolerance(text):
    """--tol, whose default comes from $DIFFGEO_TOL."""
    x = _number(text, "--tol or $DIFFGEO_TOL")
    if x <= 0.0:
        raise _Usage(f"--tol or $DIFFGEO_TOL {text!r} is not positive")
    return x


def _length(signed):
    """--length: finite, nonzero (positive unless ``signed``) and at most
    _MAX_LENGTH in size."""
    def parse(text):
        x = _number(text, "--length")
        if not 0.0 < (abs(x) if signed else x) <= _MAX_LENGTH:
            sign = "nonzero" if signed else "positive"
            raise _Usage(f"--length {text!r} must be {sign} and at most "
                         f"{_MAX_LENGTH:g} in size")
        return x

    return parse


def _samples(lo, hi):
    """--samples: an integer from ``lo`` to ``hi``."""
    def parse(text):
        if not (text.isdecimal() and lo <= int(text) <= hi):
            raise _Usage(
                f"--samples {text!r} must be an integer from {lo} to {hi}")
        return int(text)

    return parse


def _parse_params(items, ent):
    """--param k=v items; the value stays text where the entry's default is
    an expression (monge's f)."""
    out = {}
    for item in items or ():
        if "=" not in item:
            raise _Usage(f"--param expects k=v, got {item!r}")
        k, v = (x.strip() for x in item.split("=", 1))
        if isinstance(ent.params.get(k), str):
            out[k] = v
        else:
            out[k] = _number(v, f"--param {k}")
    return out


def _parse_point(text, what, n):
    """'u=0.3,v=0.4' or '0.3,0.4' or 't=1.2' -> tuple of n floats."""
    vals = tuple(_number(p.split("=", 1)[-1], what) for p in text.split(","))
    if len(vals) != n:
        raise _Usage(
            f"{what} {text!r} has {len(vals)} coordinate(s), expected {n}")
    return vals


def _read_definition(path):
    with open(path) as fh:
        try:
            return load_definition(fh.read())
        except DiffGeoError as exc:
            raise _Usage(f"{path}: {exc}") from None


def _load_shape(args):
    """Returns (shape, kind, descriptor dict)."""
    if getattr(args, "shape", None):
        try:
            ent = catalog.entry(args.shape)
            params = _parse_params(getattr(args, "param", None), ent)
            shape = catalog.make(args.shape, **params)
        except (UnknownShape, InvalidParameter) as exc:
            raise _Usage(str(exc)) from None
        desc = {"source": "catalog", "name": args.shape,
                "params": {k: params.get(k, ent.params[k])
                           for k in sorted(ent.params)}}
        return shape, ent.kind, desc
    if getattr(args, "file", None):
        definition = _read_definition(args.file)
        desc = {"source": "file", "path": os.path.basename(args.file),
                "name": definition.name}
        return catalog.build(definition), definition.kind, desc
    raise _Usage("one of --shape or --file is required")


def _load_surface(args):
    """_load_shape for the commands that need a surface."""
    shape, kind, desc = _load_shape(args)
    if kind != "surface":
        raise _Usage(f"{args.command} needs a surface shape")
    return shape, desc


def _surface_curve(definition, shape):
    """A 'surfacecurve' definition over ``shape``."""
    (pname,) = definition.params
    return SurfaceCurve(shape, definition.eval, definition.params[pname])


def _sample_rect(args_shape_name, shape):
    if args_shape_name:
        ent = catalog.entry(args_shape_name)
        if ent.sample_domain is not None:
            return ent.sample_domain
    d = shape.domain
    if len(d) == 4:
        su, sv = 0.02 * (d[1] - d[0]), 0.02 * (d[3] - d[2])
        return (d[0] + su, d[1] - su, d[2] + sv, d[3] - sv)
    s = 0.02 * (d[1] - d[0])
    return (d[0] + s, d[1] - s)


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------

_CURVE_QUANTITIES = ("kappa", "tau", "frenet", "class")
_SURFACE_QUANTITIES = ("K", "H", "kappa1", "kappa2", "curvatures", "forms",
                       "shape-class", "asymptotic", "principal")


def _vec(v):
    return [v.x, v.y, v.z]


def _eval_curve_quantity(shape, t, q):
    if q == "class":
        return classify_curve(shape).kind
    fd = frenet(shape, t)
    if q == "kappa":
        return fd.kappa
    if q == "tau":
        return fd.tau
    if q == "frenet":
        return {"T": _vec(fd.T), "N": _vec(fd.N), "B": _vec(fd.B),
                "kappa": fd.kappa, "tau": fd.tau,
                "darboux": _vec(fd.darboux)}
    raise DiffGeoError(f"unknown curve quantity {q!r}; "
                       f"choose from {_CURVE_QUANTITIES}")


def _eval_surface_quantity(shape, u, v, q):
    if q in ("K", "H", "kappa1", "kappa2", "curvatures", "shape-class"):
        cd = curvatures(shape, u, v)
        if q == "shape-class":
            return cd.shape
        if q == "curvatures":
            out = {"K": cd.K, "H": cd.H, "kappa1": cd.kappa1,
                   "kappa2": cd.kappa2, "shape": cd.shape,
                   "umbilic": cd.is_umbilic}
            if cd.dir1_uv is not None:
                out["dir1"] = list(cd.dir1_uv)
                out["dir2"] = list(cd.dir2_uv)
            return out
        return getattr(cd, q)
    if q == "forms":
        fb = forms(shape, u, v)
        return {"E": fb.E, "F": fb.F, "G": fb.G, "e": fb.e, "f": fb.f,
                "g": fb.g, "c11": fb.c11, "c12": fb.c12, "c22": fb.c22,
                "sqrt_a": fb.sqrt_a, "gamma1": list(fb.gamma1),
                "gamma2": list(fb.gamma2), "n": _vec(fb.n)}
    if q == "asymptotic":
        dirs = asymptotic_directions(shape, u, v)
        if dirs == "all":
            return "all"
        return [list(d) for d in dirs]
    if q == "principal":
        try:
            dirs, res = principal_direction_field(shape, u, v)
        except UmbilicPoint:
            return "umbilic"
        return {"dir1": list(dirs[0]), "dir2": list(dirs[1]),
                "rodrigues_residuals": list(res)}
    raise DiffGeoError(f"unknown surface quantity {q!r}; "
                       f"choose from {_SURFACE_QUANTITIES}")


def cmd_eval(args):
    shape, kind, desc = _load_shape(args)
    rep = report.Report("eval", desc)
    quantities = sorted(set(args.quantity))

    points = []
    if args.at:
        pt = _parse_point(args.at, "--at", 1 if kind == "curve" else 2)
        dom = shape.domain
        fixed = []
        for k, x in enumerate(pt):
            lo, hi = dom[2 * k], dom[2 * k + 1]
            if not lo <= x <= hi:
                if not args.clamp:
                    raise DiffGeoError(
                        f"point component {x!r} outside [{lo!r}, {hi!r}] "
                        f"(pass --clamp to pull it inside)")
                x = min(max(x, lo), hi)
            fixed.append(x)
        points.append(tuple(fixed))
    if args.grid:
        nu, nv = args.grid
        n = nu if kind == "curve" else nu * nv
        if n > _MAX_POINTS:
            raise _Usage(f"--grid asks for {n} points; at most {_MAX_POINTS}")
        rect = _sample_rect(getattr(args, "shape", None), shape)

        def axis(lo, hi, n, periodic):
            # inclusive of both endpoints, except the upper end of a
            # periodic (seam) direction to avoid double counting
            if periodic and n > 1:
                return [lo + (hi - lo) * i / n for i in range(n)]
            if n == 1:
                return [0.5 * (lo + hi)]
            return [lo + (hi - lo) * i / (n - 1) for i in range(n)]

        if kind == "surface":
            us = axis(rect[0], rect[1], nu, shape.periodic[0] is not None)
            vs = axis(rect[2], rect[3], nv, shape.periodic[1] is not None)
            for uu in us:
                for vv in vs:
                    points.append((uu, vv))
        else:
            points.extend((t,) for t in axis(rect[0], rect[1], nu, False))
    if not points:
        raise _Usage("give --at or --grid")

    failed = None
    for pt in points:
        for q in quantities:
            try:
                if kind == "curve":
                    val = _eval_curve_quantity(shape, pt[0], q)
                else:
                    val = _eval_surface_quantity(shape, pt[0], pt[1], q)
                rep.add_record(list(pt), q, val)
            except (DiffGeoError, OverflowError) as exc:
                status = f"{type(exc).__name__}: {exc}"
                rep.add_record(list(pt), q, None, status=status)
                if failed is None:
                    failed = (pt, q, status)
    _finish(rep, args)
    for rec in rep.records:
        print(f"  {rec['point']} {rec['quantity']} = {rec['value']}"
              + ("" if rec["status"] == "ok" else f"  [{rec['status']}]"))
    if failed is not None:
        print(f"error at point {failed[0]} ({failed[1]}): {failed[2]}",
              file=sys.stderr)
        return _EXIT_EVAL
    return 0


# --------------------------------------------------------------------------
# verify
# --------------------------------------------------------------------------

def cmd_verify(args):
    shape, kind, desc = _load_shape(args)
    rng = random.Random(args.seed)
    rep = report.Report("verify", desc)
    rep.summary["seed"] = args.seed
    rect = _sample_rect(getattr(args, "shape", None), shape)
    make = verify.curve_suites if kind == "curve" else verify.surface_suites
    suites = make(shape, rng, args.samples, rect)
    known = [row[0] for row in suites]
    unknown = sorted(set(args.suite or ()) - set(known))
    if unknown:
        raise _Usage(
            f"unknown suite(s) {', '.join(unknown)} for a {kind}; "
            f"known: {', '.join(known)}")

    marks = []
    for name, residual, points, tol in suites:
        if args.suite and name not in args.suite:
            continue
        mark, worst, detail = verify.run(residual, points, tol)
        rep.add_suite(name, worst, tol, mark != "FAIL", detail)
        marks.append(mark)
    _finish(rep, args)
    for mark, s in zip(marks, rep.suites):
        extra = f"  ({s['detail']})" if s["detail"] else ""
        print(f"  {mark} {s['suite']:24s} max residual {s['max_residual']:.3e}"
              f" (tol {s['tol']:.1e}){extra}")
    return _EXIT_SUITE if "FAIL" in marks else 0


# --------------------------------------------------------------------------
# geodesic / transport / gauss-bonnet / reconstruct
# --------------------------------------------------------------------------

def cmd_geodesic(args):
    shape, desc = _load_surface(args)
    spec = OdeSpec(tol=args.tol)
    rep = report.Report("geodesic", desc)
    p0 = _parse_point(getattr(args, "from"), "--from", 2)
    if args.to:
        p1 = _parse_point(args.to, "--to", 2)
        path = geodesic_bvp(shape, p0, p1, spec)
        du, dv = shape.wrap_delta(path.end_uv[0] - p1[0],
                                  path.end_uv[1] - p1[1])
        rep.summary["endpoint_error"] = math.hypot(du, dv)
    else:
        if not args.dir or args.length is None:
            raise _Usage("give --to, or --dir plus --length")
        path = geodesic_ivp(shape, p0[0], p0[1],
                            _parse_point(args.dir, "--dir", 2), args.length,
                            spec)
        rep.summary["left_domain"] = path.left_domain
    rep.summary["length"] = path.length

    sc = path.as_curve()
    max_kg = 0.0
    probes = [path.length * (k + 0.5) / 16.0 for k in range(16)]
    for s in probes:
        max_kg = max(max_kg, abs(curvature_split(sc, s).kappa_g))
    rep.summary["max_kappa_g"] = max_kg

    rows = []
    for s, st in zip(path.s, path.states):
        p = shape.eval(st[0], st[1]).value()
        rows.append((s, st[0], st[1], p.x, p.y, p.z))
    _finish(rep, args, csv=("s,u,v,x,y,z".split(","), rows))
    print(f"  length {path.length!r}  max|kappa_g| {max_kg:.3e}")
    _print_summary(rep, skip=("length", "max_kappa_g"))
    return 0


def _load_surface_curve(args, shape):
    if args.curve:
        definition = _read_definition(args.curve)
        if definition.kind != "surfacecurve":
            raise _Usage(
                "transport --curve file must be a 'surfacecurve' definition "
                "(u =, v =)")
        return _surface_curve(definition, shape)
    if args.loop:
        which, _, val = args.loop.partition(":")
        value = _number(val, "--loop")
        u0, u1, v0, v1 = shape.domain
        # the sweep runs over the other parameter, which must close up
        if which == "const-v":
            if not shape.contains(u0, value):
                raise _Usage(f"--loop {args.loop!r}: v outside [{v0!r}, {v1!r}]")
            if shape.periodic[0] is None:
                raise _Usage(f"--loop {args.loop!r}: the u sweep does not close")
            return SurfaceCurve.const_v(shape, value)
        if which == "const-u":
            if not shape.contains(value, v0):
                raise _Usage(f"--loop {args.loop!r}: u outside [{u0!r}, {u1!r}]")
            if shape.periodic[1] is None:
                raise _Usage(f"--loop {args.loop!r}: the v sweep does not close")
            return SurfaceCurve.const_u(shape, value)
        raise _Usage("--loop expects const-v:<value> or const-u:<value>")
    raise _Usage("give --curve file or --loop const-v:<value>")


def cmd_transport(args):
    shape, desc = _load_surface(args)
    spec = OdeSpec(tol=args.tol)
    rep = report.Report("transport", desc)
    sc = _load_surface_curve(args, shape)
    A0 = _parse_point(args.vector, "--vector", 2)
    state = parallel_transport(sc, A0, spec)
    rep.summary["holonomy"] = state.holonomy
    rep.summary["norm_drift"] = max(state.norms) - min(state.norms)

    if args.loop and args.loop.startswith("const-v:"):
        v0 = sc.point(sc.domain[0])[1]
        rect = (shape.domain[0], shape.domain[1], v0, shape.domain[3])
        enclosed = total_curvature(shape, rect,
                                   QuadSpec(tol=max(args.tol, 1e-9)))
        rep.summary["enclosed_total_curvature"] = enclosed

    rows = []
    for t, (a1, a2), nv, ang in zip(state.ts, state.components, state.norms,
                                    state.angles_to_initial()):
        rows.append((t, a1, a2, nv, ang))
    _finish(rep, args, csv=("t,A1,A2,norm,angle".split(","), rows))
    _print_summary(rep)
    return 0


def _load_loop(path, shape):
    definition = _read_definition(path)
    if definition.kind != "loop":
        raise _Usage("--loop-file must be a 'loop' definition")
    return BoundaryLoop(
        arcs=[_surface_curve(arc, shape) for arc in definition.arcs],
        corner_angles=list(definition.corners),
        region_rects=list(definition.regions))


def cmd_gauss_bonnet(args):
    shape, desc = _load_surface(args)
    rep = report.Report("gauss-bonnet", desc)
    qspec = QuadSpec(tol=max(args.tol, 1e-9))
    if args.glob:
        if args.chi is None:
            ent = catalog.entry(args.shape) if args.shape else None
            if ent is None or not ent.is_closed:
                raise _Usage(
                    "--global needs --chi (or a closed catalog shape)")
            args.chi = ent.chi
        total, defect = gauss_bonnet_global(shape, shape.domain, args.chi,
                                            qspec)
        rep.summary["total_curvature"] = total
        rep.summary["chi"] = args.chi
        rep.summary["defect"] = defect
    else:
        if not args.loop_file:
            raise _Usage("give --global or --loop-file")
        loop = _load_loop(args.loop_file, shape)
        budget = gauss_bonnet_local(shape, loop, qspec)
        rep.summary["sum_kappa_g"] = budget.sum_kg
        rep.summary["sum_corner_angles"] = budget.sum_angles
        rep.summary["total_curvature"] = budget.total_K
        rep.summary["defect"] = budget.defect
    _finish(rep, args)
    _print_summary(rep)
    return 0


def cmd_reconstruct(args):
    rep = report.Report("reconstruct", {"source": "intrinsic",
                                        "kappa": args.kappa, "tau": args.tau})
    kap_fn = compile_expr(parse_text(args.kappa))
    tau_fn = compile_expr(parse_text(args.tau))

    def kap(s):
        return float(kap_fn({"s": s}))

    def tau(s):
        return float(tau_fn({"s": s}))

    spec = OdeSpec(tol=args.tol)
    rec = reconstruct_from_kappa_tau(
        kap, tau, Vec3(0.0, 0.0, 0.0),
        (Vec3(1.0, 0.0, 0.0), Vec3(0.0, 1.0, 0.0), Vec3(0.0, 0.0, 1.0)),
        args.length, spec, n_samples=args.samples)

    curve = rec.as_curve()
    dev = 0.0
    for k in range(1, 24):
        s = args.length * k / 24.0
        fd = frenet(curve, s)
        dev = max(dev, abs(fd.kappa - kap(s)), abs(fd.tau - tau(s)))
    rep.summary["roundtrip_kappa_tau_dev"] = dev
    rep.summary["length"] = args.length

    rows = [(s, p.x, p.y, p.z) for s, p in zip(rec.s, rec.r)]
    _finish(rep, args, csv=("s,x,y,z".split(","), rows))
    _print_summary(rep)
    return 0


# --------------------------------------------------------------------------
# plumbing
# --------------------------------------------------------------------------

def _finish(rep, args, csv=None):
    rep.sort_records()
    if getattr(args, "json", None):
        report.write_json(args.json, rep.to_obj())
    if csv is not None and getattr(args, "csv", None):
        report.write_csv(args.csv, csv[0], csv[1])


def _print_summary(rep, skip=()):
    for k, val in sorted(rep.summary.items()):
        if k not in skip:
            print(f"  {k}: {val!r}")


def _add_shape_args(p, files=True):
    p.add_argument("--shape", help="catalog shape name")
    p.add_argument("--param", action="append", default=[],
                   help="shape parameter k=v (repeatable)")
    if files:
        p.add_argument("--file", help="definition file (.pc or .ps)")


def _add_common(p, tol=True, csv=True):
    p.add_argument("--json", help="write the report as deterministic JSON")
    if csv:
        p.add_argument("--csv", help="write the trajectory as CSV")
    if tol:
        p.add_argument("--tol", type=_tolerance,
                       default=os.environ.get("DIFFGEO_TOL") or "1e-10",
                       help="integration/quadrature tolerance "
                            "(default 1e-10 or $DIFFGEO_TOL)")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="diffgeo",
        description="Differential geometry of parametric curves and "
                    "surfaces: evaluation, identity verification, "
                    "geodesics, parallel transport, Gauss-Bonnet.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate quantities at points or grids")
    _add_shape_args(p)
    p.add_argument("--at", help="point, e.g. u=0.3,v=0.4 or t=1.2")
    p.add_argument("--grid", type=_grid,
                   help=f"grid spec, e.g. 3x3 (surfaces) or 5 (curves); at "
                        f"most {_MAX_POINTS} points")
    p.add_argument("--quantity", action="append", required=True,
                   help=f"curve: {_CURVE_QUANTITIES}; "
                        f"surface: {_SURFACE_QUANTITIES}")
    p.add_argument("--clamp", action="store_true",
                   help="clamp out-of-domain --at points to the boundary")
    _add_common(p, tol=False, csv=False)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("verify", help="run identity/residual suites")
    _add_shape_args(p)
    p.add_argument("--suite", action="append",
                   help="restrict to named suites (repeatable)")
    p.add_argument("--samples", type=_samples(1, 1000), default=40,
                   help="random sample points per suite (1 to 1000, "
                        "default 40)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sample points (default 0)")
    _add_common(p, tol=False, csv=False)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("geodesic", help="solve geodesic IVP/BVP")
    _add_shape_args(p)
    p.add_argument("--from", required=True, help="start point u,v")
    p.add_argument("--to", help="target point u,v (boundary-value problem)")
    p.add_argument("--dir", help="initial direction du,dv (initial-value)")
    p.add_argument("--length", type=_length(signed=True),
                   help=f"arc length for --dir (nonzero, |length| <= "
                        f"{_MAX_LENGTH:g})")
    _add_common(p)
    p.set_defaults(fn=cmd_geodesic)

    p = sub.add_parser("transport", help="parallel transport along a curve")
    _add_shape_args(p)
    p.add_argument("--curve", help="surfacecurve definition file (.sc)")
    p.add_argument("--loop", help="builtin loop: const-v:<v0> or const-u:<u0>")
    p.add_argument("--vector", required=True, help="initial components A1,A2")
    _add_common(p)
    p.set_defaults(fn=cmd_transport)

    p = sub.add_parser("gauss-bonnet", help="local/global Gauss-Bonnet budget")
    _add_shape_args(p)
    p.add_argument("--global", dest="glob", action="store_true",
                   help="closed-surface variant over the full domain")
    p.add_argument("--chi", type=int, help="Euler characteristic")
    p.add_argument("--loop-file", help="boundary description (.loop)")
    _add_common(p, csv=False)
    p.set_defaults(fn=cmd_gauss_bonnet)

    p = sub.add_parser("reconstruct",
                       help="rebuild a curve from kappa(s), tau(s)")
    p.add_argument("--kappa", required=True, help="expression in s")
    p.add_argument("--tau", required=True, help="expression in s")
    p.add_argument("--length", type=_length(signed=False), required=True,
                   help=f"arc length (positive, at most {_MAX_LENGTH:g})")
    p.add_argument("--samples", type=_samples(2, 10000), default=257,
                   help="output samples (2 to 10000, default 257)")
    _add_common(p)
    p.set_defaults(fn=cmd_reconstruct)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_ARGS
    except (DiffGeoError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.command == "geodesic":
            return _EXIT_GEODESIC
        return _EXIT_EVAL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_EVAL
    print(f"[{args.command}: {time.monotonic() - start:.3f}s]",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
