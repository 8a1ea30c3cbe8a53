"""Seeded job lists for the two benchmark workloads, and their output checks.

A job is one ``diffgeo`` CLI invocation plus a check of what it wrote.  Every
check compares the program's report with a reference that does not go
through the jet code: the catalog's closed forms, great-circle and unrolled
distances, Clairaut's integral, the holonomy and total curvature of
parallels on surfaces of revolution, and the closed-form helix.  Tolerances
of the CLI are never passed, so the program runs at its defaults.

Endpoints and parameters are drawn from ``random.Random`` by rules fixed
here, before any job runs (for example, sphere BVPs exclude near-antipodal
pairs, whose minimizer is not unique).  A draw that breaks such a rule is
redrawn; a job is never dropped or redrawn because it failed.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field

TWO_PI = 2.0 * math.pi

# tolerances of the checks (the program's own defaults are 1e-10 for ODE and
# 1e-9 for quadrature, and 1e-6 for BVP endpoints)
REF_TOL = 1e-8        # catalog closed forms, relative to max(1, |ref|)
ENDPOINT_TOL = 1e-6   # geodesic_bvp's default endpoint tolerance
IVP_TOL = 1e-7        # closed-form IVP end points
CLAIRAUT_TOL = 1e-5   # Clairaut integral and unit speed, by finite differences
HOLONOMY_TOL = 1e-8
QUAD_TOL = 1e-6       # Gauss-Bonnet defects and total curvatures
ROUNDTRIP_TOL = 1e-6  # reconstruct round trip and helix end point
# round trip with varying kappa(s), tau(s): tau at points between the 257
# knots needs the third derivative of the quintic Hermite interpolant
ROUNDTRIP_TOL_VARYING = 1e-5

WORKLOADS = ("pointwise", "solvers")

# the shapes the solvers workload builds; set-up time is measured on these
SOLVER_SHAPES = ("sphere", "cylinder", "torus", "catenoid")

KNOWN_CLASS = {"line": "StraightLine", "circle": "Planar",
               "ellipse": "Planar", "helix": "Helix",
               "spherical-spiral": "General"}


@dataclass
class Job:
    name: str
    argv: list
    check: object              # check(job) -> None, or a one-line cause
    json: str
    csv: str = None
    data: dict = field(default_factory=dict)

    def report(self):
        with open(self.json) as fh:
            return json.load(fh)


def shapes_for(workload, catalog):
    if workload == "pointwise":
        return tuple(catalog.names())
    return SOLVER_SHAPES


def generate(workload, seed, workdir, catalog):
    """The workload's job list for ``seed``; files it needs go to workdir.

    ``solvers`` is the geodesic jobs plus the integral jobs: one workload,
    so that each run measures longer."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pointwise":
        jobs = _pointwise(rng, workdir, catalog)
    else:
        jobs = _geodesic(rng, workdir) + _integrals(rng, workdir)
    rng.shuffle(jobs)
    return jobs


def _job(workdir, name, argv, check, csv=False, **data):
    out = os.path.join(workdir, name + ".json")
    argv = list(argv) + ["--json", out]
    csv_path = None
    if csv:
        csv_path = os.path.join(workdir, name + ".csv")
        argv += ["--csv", csv_path]
    return Job(name=name, argv=argv, check=check, json=out, csv=csv_path,
               data=data)


def _pt(values):
    return ",".join(repr(float(x)) for x in values)


def _wrap(x, period=TWO_PI):
    return (x + 0.5 * period) % period - 0.5 * period


# --------------------------------------------------------------------------
# pointwise: every catalog entry, eval grids and points, verify
# --------------------------------------------------------------------------

N_POINT_JOBS = 3      # seeded single-point eval jobs per catalog entry
GRID = "4x4"          # surface grid of the grid eval job
CURVE_GRID = "16"

SURFACE_GRID_QUANTITIES = ("curvatures", "forms", "principal", "asymptotic")


def _pointwise(rng, workdir, catalog):
    jobs = []
    for name in catalog.names():
        ent = catalog.entry(name)
        shape = catalog.make(name)
        rect = ent.sample_domain or shape.domain
        jobs.append(_job(workdir, f"verify-{name}",
                         ["verify", "--shape", name,
                          "--seed", str(rng.randrange(1 << 30))],
                         check_verify))
        if ent.kind == "surface":
            argv = ["eval", "--shape", name, "--grid", GRID]
            for q in SURFACE_GRID_QUANTITIES:
                argv += ["--quantity", q]
            jobs.append(_job(workdir, f"grid-{name}", argv, check_eval,
                             shape=name))
            for k in range(N_POINT_JOBS):
                pt = (rng.uniform(rect[0], rect[1]),
                      rng.uniform(rect[2], rect[3]))
                jobs.append(_job(workdir, f"point-{name}-{k}",
                                 ["eval", "--shape", name, f"--at={_pt(pt)}",
                                  "--quantity", "curvatures"],
                                 check_eval, shape=name))
        else:
            qs = ["class"] if name == "line" else ["frenet", "class"]
            argv = ["eval", "--shape", name, "--grid", CURVE_GRID]
            for q in qs:
                argv += ["--quantity", q]
            jobs.append(_job(workdir, f"grid-{name}", argv, check_eval,
                             shape=name))
            for k in range(N_POINT_JOBS):
                t = rng.uniform(rect[0], rect[1])
                jobs.append(_job(workdir, f"point-{name}-{k}",
                                 ["eval", "--shape", name, f"--at={t!r}",
                                  "--quantity", qs[0]],
                                 check_eval, shape=name))
    return jobs


def _nonfinite(value):
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, dict):
        return any(_nonfinite(v) for v in value.values())
    if isinstance(value, list):
        return any(_nonfinite(v) for v in value)
    return False


def _near(have, want, tol):
    return abs(have - want) <= tol * max(1.0, abs(want))


def check_verify(job):
    rep = job.report()
    if not rep.get("suites"):
        return "verify ran no suite"
    for s in rep["suites"]:
        if not math.isfinite(s["max_residual"]):
            return f"suite {s['suite']}: residual {s['max_residual']!r}"
        if not s["passed"]:
            return (f"suite {s['suite']}: residual {s['max_residual']:.3e} "
                    f"above tol {s['tol']:.1e}")
    return None


def check_eval(job):
    import diffgeo.catalog as catalog  # the program under test, for references

    name = job.data["shape"]
    ent = catalog.entry(name)
    rep = job.report()
    if not rep.get("records"):
        return "no records"
    for rec in rep["records"]:
        where = f"{rec['quantity']} at {rec['point']}"
        if rec["status"] != "ok":
            return f"{where}: {rec['status']}"
        val = rec["value"]
        if _nonfinite(val):
            return f"{where}: non-finite value"
        pt = rec["point"]
        if rec["quantity"] == "class":
            if val != KNOWN_CLASS[name]:
                return f"{where}: class {val!r}, expected {KNOWN_CLASS[name]!r}"
            continue
        if rec["quantity"] in ("curvatures", "frenet"):
            point = pt[0] if ent.kind == "curve" else tuple(pt)
            for q in sorted(ent.references):
                want = catalog.reference(name, point=point, quantity=q)
                have = val.get(q)
                if have is None or not _near(have, want, REF_TOL):
                    return f"{where}: {q}={have!r}, closed form {want!r}"
    return None


# --------------------------------------------------------------------------
# geodesic: boundary-value problems and long initial-value problems
# --------------------------------------------------------------------------

# BVPs per shape.  The IVPs, the cylinder BVPs and the integral jobs take
# 0.04 to 0.6 s each, sphere BVPs about 0.7 s, torus and catenoid BVPs 0.8
# to 4 s.  With these counts the median job sits inside the first group and
# the job with ten beyond it inside the sphere group, not at a seam between
# groups, where the order statistic would jump with noise.
N_BVP = {"sphere": 8, "cylinder": 5, "torus": 4, "catenoid": 4}
N_IVP = 7             # per shape of IVP_SHAPES
# long IVPs stay in the chart on these; on the catenoid every geodesic but
# the waist leaves |v| <= 2 within a few units of length
IVP_SHAPES = ("sphere", "cylinder", "torus")
BVP_STEP = (0.9, 1.6)  # parameter-space distance between BVP endpoints


def _sphere_xyz(u, v):
    return (math.cos(u) * math.cos(v), math.sin(u) * math.cos(v), math.sin(v))


def _angle_between(p, q):
    cx = p[1] * q[2] - p[2] * q[1]
    cy = p[2] * q[0] - p[0] * q[2]
    cz = p[0] * q[1] - p[1] * q[0]
    return math.atan2(math.sqrt(cx * cx + cy * cy + cz * cz),
                      p[0] * q[0] + p[1] * q[1] + p[2] * q[2])


def _bvp_endpoints(rng, shape):
    """Endpoints by the fixed rule of each shape: a start in a box away from
    chart singularities and edges, and an end at parameter distance
    BVP_STEP in a uniform direction, redrawn while it leaves the box or the
    minimizer may not be unique: near-antipodal on the sphere, or close to
    half a turn apart in u."""
    while True:
        th = rng.uniform(-math.pi, math.pi)
        step = rng.uniform(*BVP_STEP)
        if shape == "torus":
            p0 = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
            vbox = None
        else:
            vbox = {"sphere": 0.9, "cylinder": 3.0, "catenoid": 1.2}[shape]
            p0 = (rng.uniform(-math.pi, math.pi), rng.uniform(-vbox, vbox))
        du, dv = step * math.cos(th), step * math.sin(th)
        p1 = [p0[0] + du, p0[1] + dv]
        if vbox is not None and abs(p1[1]) > vbox:
            continue
        if shape == "torus":
            p1 = [p1[0] % TWO_PI, p1[1] % TWO_PI]
        else:
            p1[0] = _wrap(p1[0])
        if shape == "sphere" and _angle_between(
                _sphere_xyz(*p0), _sphere_xyz(*p1)) > 0.8 * math.pi:
            continue
        if abs(_wrap(p1[0] - p0[0])) > 0.8 * math.pi:
            continue
        return p0, tuple(p1)


def _ivp_start(rng, shape):
    """Start, direction and length of a long IVP that stays inside the chart
    (sphere: the great circle's top latitude is at most 1.2; cylinder: the
    path keeps |v| <= 6)."""
    length = rng.uniform(6.0, 10.0)
    while True:
        if shape == "sphere":
            v0 = rng.uniform(-0.5, 0.5)
            az = rng.uniform(-math.pi, math.pi)   # azimuth from north
            if abs(math.cos(v0) * math.sin(az)) < math.cos(1.2):
                continue
            p0 = (rng.uniform(-math.pi, math.pi), v0)
            return p0, (math.sin(az) / math.cos(v0), math.cos(az)), length
        if shape == "cylinder":
            p0 = (rng.uniform(-math.pi, math.pi), rng.uniform(-2.0, 2.0))
            a = rng.uniform(-0.4, 0.4)
            if abs(p0[1] + length * math.sin(a)) > 6.0:
                continue
            return p0, (math.cos(a), math.sin(a)), length
        # torus: periodic in both directions
        p0 = (rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI))
        a = rng.uniform(-math.pi, math.pi)
        return p0, (math.cos(a), math.sin(a)), length


def _isometry(rng, shape):
    """A random isometry of the surface that keeps the chart: a rotation
    about the axis, plus a shift along it on the cylinder."""
    du = rng.uniform(-math.pi, math.pi)
    dv = rng.uniform(-1.0, 1.0) if shape == "cylinder" else 0.0
    if shape == "torus":
        return lambda p: ((p[0] + du) % TWO_PI, p[1])
    return lambda p: (_wrap(p[0] + du), p[1] + dv)


def _geodesic(rng, workdir):
    # The BVP and IVP geometries come from a fixed stream; the run's seed
    # moves each one by an isometry of its surface and sets the job order.
    # Shooting work is chaotic in the endpoints (secant iterations per
    # seed angle), so fresh geometry per seed would make wall_s follow the
    # seed more than the code.  An isometric copy keeps the work, up to
    # rounding, and still gives each seed its own inputs.
    geometry = random.Random("geodesic-geometry")
    jobs = []
    for shape in SOLVER_SHAPES:
        for k in range(N_BVP[shape]):
            move = _isometry(rng, shape)
            p0, p1 = (move(p) for p in _bvp_endpoints(geometry, shape))
            jobs.append(_job(workdir, f"bvp-{shape}-{k}",
                             ["geodesic", "--shape", shape,
                              f"--from={_pt(p0)}", f"--to={_pt(p1)}"],
                             check_bvp, shape=shape, p0=p0, p1=p1))
        for k in range(N_IVP if shape in IVP_SHAPES else 0):
            move = _isometry(rng, shape)
            p0, d, length = _ivp_start(geometry, shape)
            p0 = move(p0)
            jobs.append(_job(workdir, f"ivp-{shape}-{k}",
                             ["geodesic", "--shape", shape,
                              f"--from={_pt(p0)}", f"--dir={_pt(d)}",
                              "--length", repr(length)],
                             check_ivp, csv=True, shape=shape, p0=p0, d=d,
                             length=length))
    return jobs


def _xyz(shape, u, v):
    # default catalog parameters: sphere R=1, cylinder rho=1, torus r=1 R=3,
    # catenoid c=1
    if shape == "sphere":
        return _sphere_xyz(u, v)
    if shape == "cylinder":
        return (math.cos(u), math.sin(u), v)
    if shape == "torus":
        rho = 3.0 + math.sin(v)
        return (rho * math.cos(u), rho * math.sin(u), math.cos(v))
    return (math.cosh(v) * math.cos(u), math.cosh(v) * math.sin(u), v)


def check_bvp(job):
    shape, p0, p1 = job.data["shape"], job.data["p0"], job.data["p1"]
    s = job.report()["summary"]
    if not s["endpoint_error"] <= ENDPOINT_TOL:
        return f"endpoint_error {s['endpoint_error']:.3e}"
    length = s["length"]
    if shape == "sphere":
        want = _angle_between(_sphere_xyz(*p0), _sphere_xyz(*p1))
    elif shape == "cylinder":
        want = math.hypot(_wrap(p1[0] - p0[0]), p1[1] - p0[1])
    else:
        want = None
    if want is not None and abs(length - want) > ENDPOINT_TOL:
        return f"length {length!r}, closed form {want!r}"
    chord = math.dist(_xyz(shape, *p0), _xyz(shape, *p1))
    if length < chord - 1e-12:
        return f"length {length!r} below the chord {chord!r}"
    return None


def _csv_rows(path):
    with open(path) as fh:
        lines = fh.read().split()
    return [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _unit_direction(shape, u, v, d):
    """Unit-speed (du/ds, dv/ds) of parameter direction d (orthogonal
    charts: E, G from the closed-form metric)."""
    E = {"sphere": math.cos(v) ** 2, "cylinder": 1.0,
         "torus": (3.0 + math.sin(v)) ** 2}[shape]
    n = math.sqrt(E * d[0] ** 2 + d[1] ** 2)   # G = 1 on all three
    return d[0] / n, d[1] / n, E


def check_ivp(job):
    shape, p0, d = job.data["shape"], job.data["p0"], job.data["d"]
    length = job.data["length"]
    s = job.report()["summary"]
    if s["left_domain"]:
        return "path left the domain"
    if abs(s["length"] - length) > 1e-12 * length:
        return f"length {s['length']!r}, asked {length!r}"
    rows = _csv_rows(job.csv)
    end = rows[-1][3:6]
    du, dv, E = _unit_direction(shape, p0[0], p0[1], d)
    if shape in ("sphere", "cylinder"):
        u, v = p0
        if shape == "sphere":
            # great circle: cos(L) p0 + sin(L) t0
            p = _sphere_xyz(u, v)
            t = (-math.sin(u) * math.cos(v) * du - math.cos(u) * math.sin(v) * dv,
                 math.cos(u) * math.cos(v) * du - math.sin(u) * math.sin(v) * dv,
                 math.cos(v) * dv)
            want = tuple(math.cos(length) * a + math.sin(length) * b
                         for a, b in zip(p, t))
        else:
            # straight line in the unrolled cylinder
            want = _xyz(shape, u + length * du, v + length * dv)
        err = math.dist(end, want)
        if err > IVP_TOL * max(1.0, length):
            return f"end point off the closed form by {err:.3e}"
        return None
    # Clairaut: x y' - y x' = E du/ds is constant along a geodesic of a
    # surface of revolution; r' has unit length.  Five-point differences.
    want = E * du
    h = rows[1][0] - rows[0][0]
    worst_l = worst_speed = 0.0
    for k in range(2, len(rows) - 2, 8):
        deriv = [(-rows[k + 2][c] + 8.0 * rows[k + 1][c] - 8.0 * rows[k - 1][c]
                  + rows[k - 2][c]) / (12.0 * h) for c in (3, 4, 5)]
        x, y = rows[k][3], rows[k][4]
        worst_l = max(worst_l, abs(x * deriv[1] - y * deriv[0] - want))
        worst_speed = max(worst_speed, abs(math.hypot(*deriv) - 1.0))
    if worst_l > CLAIRAUT_TOL * max(1.0, abs(want)):
        return f"Clairaut integral drifts by {worst_l:.3e}"
    if worst_speed > CLAIRAUT_TOL:
        return f"speed deviates from 1 by {worst_speed:.3e}"
    return None


# --------------------------------------------------------------------------
# integrals: Gauss-Bonnet, parallel transport, curve reconstruction
# --------------------------------------------------------------------------

N_GLOBAL = 3          # per closed shape
N_LOCAL = 3           # loop files per shape
N_TRANSPORT = 4       # per shape of revolution
N_RECONSTRUCT = 2     # constant (kappa, tau), plus as many variable ones


def _integrals(rng, workdir):
    jobs = []
    for k in range(N_GLOBAL):
        R = rng.uniform(0.5, 2.0)
        jobs.append(_job(workdir, f"gb-global-sphere-{k}",
                         ["gauss-bonnet", "--shape", "sphere", "--global",
                          "--param", f"R={R!r}"], check_gb_global, chi=2))
        r, R = rng.uniform(0.6, 1.2), rng.uniform(2.5, 3.5)
        jobs.append(_job(workdir, f"gb-global-torus-{k}",
                         ["gauss-bonnet", "--shape", "torus", "--global",
                          "--param", f"r={r!r}", "--param", f"R={R!r}"],
                         check_gb_global, chi=0))

    for k in range(N_LOCAL):
        v0 = rng.uniform(-0.8, 0.8)
        path = os.path.join(workdir, f"cap-{k}.loop")
        _write(path, _cap_loop(v0))
        jobs.append(_job(workdir, f"gb-local-sphere-{k}",
                         ["gauss-bonnet", "--shape", "sphere",
                          "--loop-file", path], check_gb_local,
                         total=TWO_PI * (1.0 - math.sin(v0))))
        for shape in ("torus", "catenoid"):
            if shape == "torus":
                v0 = rng.uniform(0.0, TWO_PI - 1.0)
                v1 = v0 + rng.uniform(0.4, 1.0)
                total_of = _torus_total
            else:
                v0 = rng.uniform(-1.5, 0.5)
                v1 = v0 + rng.uniform(0.4, 1.0)
                total_of = _catenoid_total
            u0 = rng.uniform(-2.5, 1.0)
            u1 = u0 + rng.uniform(0.5, 1.5)
            path = os.path.join(workdir, f"rect-{shape}-{k}.loop")
            _write(path, _rect_loop(u0, u1, v0, v1))
            jobs.append(_job(workdir, f"gb-local-{shape}-{k}",
                             ["gauss-bonnet", "--shape", shape,
                              "--loop-file", path], check_gb_local,
                             total=total_of(u0, u1, v0, v1)))

    for shape in ("sphere", "torus", "catenoid"):
        for k in range(N_TRANSPORT):
            if shape == "sphere":
                v0 = rng.uniform(-1.2, 1.2)
            elif shape == "torus":
                v0 = rng.uniform(0.0, TWO_PI)
            else:
                # below v = -0.9 the enclosed-curvature rectangle [v0, 2]
                # costs three times the panels
                v0 = rng.uniform(-0.8, 1.5)
            th = rng.uniform(-math.pi, math.pi)
            vec = (math.cos(th), math.sin(th))
            jobs.append(_job(workdir, f"transport-{shape}-{k}",
                             ["transport", "--shape", shape,
                              "--loop", f"const-v:{v0!r}",
                              f"--vector={_pt(vec)}"],
                             check_transport, shape=shape, v0=v0))

    for k in range(N_RECONSTRUCT):
        kap, tau = rng.uniform(0.3, 1.2), rng.uniform(-0.6, 0.6)
        length = rng.uniform(6.0, 14.0)
        jobs.append(_job(workdir, f"reconstruct-helix-{k}",
                         ["reconstruct", f"--kappa={kap!r}", f"--tau={tau!r}",
                          "--length", repr(length)],
                         check_reconstruct, csv=True, kappa=kap, tau=tau,
                         length=length))
        k0 = rng.uniform(0.5, 1.0)
        k1 = rng.uniform(0.1, 0.4)
        t0 = rng.uniform(-0.5, 0.5)
        length = rng.uniform(6.0, 14.0)
        jobs.append(_job(workdir, f"reconstruct-varying-{k}",
                         ["reconstruct", f"--kappa={k0!r}+{k1!r}*sin(s)",
                          f"--tau={t0!r}*cos(s)", "--length", repr(length)],
                         check_reconstruct))
    return jobs


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _cap_loop(v0):
    return (f"loop cap\n"
            f"region -pi pi {v0!r} pi/2\n"
            f"arc t in [-pi, pi]\n"
            f"u = t\n"
            f"v = {v0!r}\n"
            f"corner 0\n")


def _rect_loop(u0, u1, v0, v1):
    """Counter-clockwise parameter rectangle, corners computed by the
    program ('auto')."""
    return (f"loop rect\n"
            f"region {u0!r} {u1!r} {v0!r} {v1!r}\n"
            f"arc t in [{u0!r}, {u1!r}]\nu = t\nv = {v0!r}\ncorner auto\n"
            f"arc t in [{v0!r}, {v1!r}]\nu = {u1!r}\nv = t\ncorner auto\n"
            f"arc t in [{u0!r}, {u1!r}]\nu = {u0 + u1!r} - t\nv = {v1!r}\n"
            f"corner auto\n"
            f"arc t in [{v0!r}, {v1!r}]\nu = {u0!r}\nv = {v0 + v1!r} - t\n"
            f"corner auto\n")


def _torus_total(u0, u1, v0, v1):
    # K sqrt(a) = sin v for x = (R + r sin v) cos u, ..., z = r cos v
    return (u1 - u0) * (math.cos(v0) - math.cos(v1))


def _catenoid_total(u0, u1, v0, v1):
    # K sqrt(a) = -1 / cosh(v)^2 for c = 1
    return -(u1 - u0) * (math.tanh(v1) - math.tanh(v0))


def check_gb_global(job):
    s = job.report()["summary"]
    want = TWO_PI * job.data["chi"]
    if abs(s["total_curvature"] - want) > QUAD_TOL:
        return f"total curvature {s['total_curvature']!r}, 2 pi chi = {want!r}"
    return None


def check_gb_local(job):
    s = job.report()["summary"]
    if abs(s["defect"]) > QUAD_TOL:
        return f"defect {s['defect']:.3e}"
    want = job.data["total"]
    if abs(s["total_curvature"] - want) > QUAD_TOL:
        return f"total curvature {s['total_curvature']!r}, closed form {want!r}"
    return None


def _parallel_closed_forms(shape, v0):
    """(holonomy mod 2 pi, total curvature above the parallel v = v0) for
    the default catalog surfaces of revolution.  With profile (rho(v), z(v))
    the holonomy of the parallel is 2 pi rho'/|profile'|."""
    if shape == "sphere":
        return -TWO_PI * math.sin(v0), TWO_PI * (1.0 - math.sin(v0))
    if shape == "torus":
        return TWO_PI * math.cos(v0), TWO_PI * (math.cos(v0) - 1.0)
    return TWO_PI * math.tanh(v0), -TWO_PI * (math.tanh(2.0) - math.tanh(v0))


def check_transport(job):
    s = job.report()["summary"]
    hol, total = _parallel_closed_forms(job.data["shape"], job.data["v0"])
    miss = _wrap(s["holonomy"] - hol)
    if abs(miss) > HOLONOMY_TOL:
        return f"holonomy {s['holonomy']!r} misses closed form by {miss:.3e}"
    if s["norm_drift"] > HOLONOMY_TOL:
        return f"norm drift {s['norm_drift']:.3e}"
    if abs(s["enclosed_total_curvature"] - total) > QUAD_TOL:
        return (f"enclosed total curvature {s['enclosed_total_curvature']!r},"
                f" closed form {total!r}")
    return None


def _helix_point(kap, tau, s):
    """Closed-form curve with constant kappa, tau from the origin with the
    frame (e1, e2, e3) at s = 0."""
    w2 = kap * kap + tau * tau
    w = math.sqrt(w2)
    return (tau * tau * s / w2 + kap * kap * math.sin(w * s) / (w2 * w),
            kap * (1.0 - math.cos(w * s)) / w2,
            kap * tau / w2 * (s - math.sin(w * s) / w))


def check_reconstruct(job):
    s = job.report()["summary"]
    tol = ROUNDTRIP_TOL if "kappa" in job.data else ROUNDTRIP_TOL_VARYING
    if not s["roundtrip_kappa_tau_dev"] <= tol:
        return f"round-trip deviation {s['roundtrip_kappa_tau_dev']:.3e}"
    if "kappa" in job.data:
        d = job.data
        end = _csv_rows(job.csv)[-1]
        want = _helix_point(d["kappa"], d["tau"], end[0])
        err = math.dist(end[1:4], want)
        if err > ROUNDTRIP_TOL * max(1.0, d["length"]):
            return f"end point off the closed-form helix by {err:.3e}"
    return None
