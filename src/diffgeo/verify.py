"""Residual verification of the classical identities.

A shape's suites form one table of rows ``(name, residual, points, tol)``;
:func:`run` folds a row into a verdict.  ``residual(*point)`` returns the
identity's residuals at one point (one per direction where it is checked
along several), raises :class:`_Skip` where the identity does not apply
there and :class:`_Abandon` where it applies nowhere on the shape.

The points come from one ``random.Random`` as the table is built; random
directions are drawn from it as :func:`run` reaches each point, so a report
depends on the seed and on which suites run.  Each row runs at most once.

Every residual is computed over floats: the curves that the suites build
are float kernels, and the reparametrization suite's change of parameter
t = w + 0.1 sin w is order-4 code generated on first use, composed with
the shape's kernel by ``ParametricCurve.composite``.  No suite evaluates a
jet.  The four identity rows read one generated program per surface
template, run once per point (``surfaces._identity_terms``), and Euler's
row reads II/I in each direction at the point's bundle.
"""

import math

from .curves import ParametricCurve, _CurveJets, frenet, frenet_residuals
from .errors import (AsymptoticPoint, InflectionPoint, NonOrthogonalPatch,
                     UmbilicPoint)
from .expr import _GENERATED, _KERNEL, parse_text
from .roots import root_find
from .surfaces import (_curvatures, _identities, _normal_curvature, _point,
                       curvatures, riemann_R1212, form_identity_residual,
                       gauss_weingarten_residuals,
                       codazzi_compatibility_residuals)
from .surfacecurves import (SurfaceCurve, asymptotic_directions,
                            bonnet_torsion_check, curvature_split,
                            geodesic_torsion, geodesic_torsion_principal,
                            liouville_check)

__all__ = ["curve_suites", "surface_suites", "run"]


class _Skip(Exception):
    """The identity does not apply at this point."""


class _Abandon(Exception):
    """The identity applies nowhere on this shape."""


def _where(point):
    if len(point) == 1:
        return f"t={point[0]!r}"
    where = f"(u, v)=({point[0]!r}, {point[1]!r})"
    return where if len(point) == 2 else f"{where} along {point[2]!r}"


def run(residual, points, tol):
    """``(mark, worst, detail)`` for one row: ``worst`` is the largest
    |residual| over the points that apply, the mark "PASS" when it is at
    most ``tol`` and "FAIL" above it, or "SKIP" (worst 0.0) when no point
    applied.  The first NaN or inf residual fails the suite at once; worst
    stays the largest finite residual seen and ``detail`` names the point."""
    worst, used = 0.0, False
    try:
        for point in points:
            try:
                for r in residual(*point):
                    r = abs(r)
                    if not math.isfinite(r):
                        return ("FAIL", worst,
                                f"non-finite residual at {_where(point)}")
                    worst = max(worst, r)
                    used = True
            except _Skip:
                continue
    except _Abandon:
        used = False
    if not used:
        return "SKIP", 0.0, "skipped (not applicable)"
    return ("PASS" if worst <= tol else "FAIL"), worst, ""


_SUBSTITUTION = parse_text("w + 0.1*sin(w)")


def _substitution():
    """Floats w -> the five rows (t_k,) of t = w + 0.1 sin w: order-4 code,
    generated on first use."""
    return _GENERATED[((_SUBSTITUTION,), ("w",), ()), _KERNEL, 4]


def curve_suites(shape, rng, n, rect):
    """The rows for a curve, at ``n`` points of ``rect`` drawn by ``rng``."""
    pts = [(rng.uniform(rect[0], rect[1]),) for _ in range(n)]
    t0, t1 = shape.domain
    # the same trace under the smooth monotone substitution t = w + 0.1 sin w
    substitution = _substitution()
    resub = ParametricCurve(lambda w: shape.composite(substitution(w)),
                            (t0 - 1, t1 + 1))

    def frenet_serret(t):
        fd = frenet(shape, t, partial=True)
        if fd.N is None:
            raise _Skip
        yield from frenet_residuals(shape, t)
        yield from (fd.T.norm() - 1.0, fd.N.norm() - 1.0, fd.B.norm() - 1.0,
                    fd.T.dot(fd.N), fd.T.dot(fd.B), fd.N.dot(fd.B),
                    fd.T.cross(fd.N).dot(fd.B) - 1.0)

    def lancret(t):
        cj = _CurveJets.at(shape, t)
        if not cj.bent:
            raise _Skip
        dT, dN, dB = cj.frame_ds()
        tau = cj.tau
        kap = cj.kappa_value
        return (dN.norm() ** 2 - (kap ** 2 + tau ** 2),
                abs(kap * tau) - abs(dT.dot(dB)))

    def reparam(t):
        fd = frenet(shape, t, partial=True)
        if fd.N is None:
            raise _Skip
        w = root_find(lambda w: w + 0.1 * math.sin(w) - t, (t - 0.2, t + 0.2),
                      tol=1e-14)
        fd2 = frenet(resub, w)
        return fd.kappa - fd2.kappa, fd.tau - fd2.tau

    return [("frenet-serret", frenet_serret, pts, 1e-9),
            ("lancret", lancret, pts, 1e-9),
            ("reparam-invariance", reparam, pts[: max(4, n // 4)], 1e-9)]


def surface_suites(shape, rng, n, rect):
    """The rows for a surface, at ``n`` points of ``rect`` drawn by ``rng``."""
    pts = [(rng.uniform(rect[0], rect[1]), rng.uniform(rect[2], rect[3]))
           for _ in range(n)]
    # each row walks the points in turn: a store of fewer bundles than
    # points, first in first out, would miss at every point of every row
    shape._kept = max(shape._kept, 2 * n)

    def directed(fallback):
        """A quarter of the points, each with a random direction; a
        direction shorter than 0.1 becomes ``fallback``."""
        for u, v in pts[: max(4, n // 4)]:
            d = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*d) < 0.1:
                d = fallback
            yield u, v, d

    def straight(u, v, d, half=0.05):
        return SurfaceCurve.straight(shape, (u, v), d, (-half, half))

    def egregium(u, v):
        a = _point(shape, u, v).a
        k_ext = _identities(shape, u, v)[46] / a    # (eg - f^2) / a
        k_int = riemann_R1212(shape, u, v) / a
        return (abs(k_int - k_ext) / max(1.0, abs(k_ext)),)

    def euler(u, v):
        p = _point(shape, u, v)
        cd = _curvatures(p)
        if cd.is_umbilic:
            raise _Skip
        for k in range(8):
            th = math.pi * k / 8.0
            d = (math.cos(th) * cd.dir1_uv[0] + math.sin(th) * cd.dir2_uv[0],
                 math.cos(th) * cd.dir1_uv[1] + math.sin(th) * cd.dir2_uv[1])
            # II/I in the direction d, as kappa_n_quotient gives it for the
            # straight line through the point along d
            yield (_normal_curvature(*p.EFG, *p.efg, d)
                   - (cd.kappa1 * math.cos(th) ** 2
                      + cd.kappa2 * math.sin(th) ** 2))

    def meusnier(u, v, d):
        q = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
        bent = SurfaceCurve.quadratic(shape, (u, v), d, q, (-0.1, 0.1))
        return (curvature_split(straight(u, v, d, 0.1), 0.0).kappa_n
                - curvature_split(bent, 0.0).kappa_n,)

    def liouville(u, v, d):
        try:
            return (liouville_check(straight(u, v, d), 0.0),)
        except NonOrthogonalPatch:
            raise _Abandon from None

    def bonnet(u, v, d):
        bent = SurfaceCurve.quadratic(shape, (u, v), d, (0.08, -0.06),
                                      (-0.05, 0.05))
        try:
            return (bonnet_torsion_check(bent, 0.0),)
        except (InflectionPoint, AsymptoticPoint):
            raise _Skip from None

    def tau_g(u, v, d):
        sc = straight(u, v, d)
        try:
            return (geodesic_torsion(sc, 0.0)
                    - geodesic_torsion_principal(sc, 0.0),)
        except UmbilicPoint:
            raise _Skip from None

    def beltrami(u, v):
        cd = curvatures(shape, u, v)
        if cd.shape != "Hyperbolic":
            raise _Skip
        for d in asymptotic_directions(shape, u, v):
            tg = geodesic_torsion(straight(u, v, d), 0.0)
            yield tg * tg + cd.K

    return [("gauss-weingarten",
             lambda u, v: gauss_weingarten_residuals(shape, u, v), pts, 1e-7),
            ("codazzi-compatibility",
             lambda u, v: codazzi_compatibility_residuals(shape, u, v), pts,
             1e-7),
            ("form-identity",
             lambda u, v: (form_identity_residual(shape, u, v),), pts, 1e-9),
            ("egregium", egregium, pts, 1e-7),
            ("euler", euler, pts, 1e-8),
            ("meusnier", meusnier, directed((1.0, 0.4)), 1e-8),
            ("liouville", liouville, directed((0.6, 0.8)), 1e-7),
            ("bonnet", bonnet, directed((0.6, 0.8)), 1e-7),
            ("geodesic-torsion", tau_g, directed((0.6, 0.8)), 1e-8),
            ("beltrami-enneper", beltrami, pts, 1e-6)]
