"""The solver fields and integrands as plain Python over the surface's
kernel and its point bundle: the chain that the generated surface programs
replace, kept as the reference they must equal by ``repr``, errors
included.  Nothing here is generated."""

from diffgeo.surfaces import (MetricData, _check_regular, _christoffel2,
                              _overflow, _SurfacePoint)


def metric_gamma(kernel, u, v):
    """E, F, G, a and the second-kind Christoffel values from one call of
    an order-2 ``kernel``."""
    try:
        (_, (xu, yu, zu), (xv, yv, zv), (xuu, yuu, zuu), (xuv, yuv, zuv),
         (xvv, yvv, zvv)) = kernel(u, v)
    except OverflowError:
        raise _overflow(u, v) from None
    E = xu * xu + yu * yu + zu * zu
    F = xu * xv + yu * yv + zu * zv
    G = xv * xv + yv * yv + zv * zv
    a = E * G - F * F
    _check_regular(a, E + G, u, v)
    Eu = 2.0 * (xu * xuu + yu * yuu + zu * zuu)
    Ev = 2.0 * (xu * xuv + yu * yuv + zu * zuv)
    Fu = (xuu * xv + yuu * yv + zuu * zv) + (xu * xuv + yu * yuv + zu * zuv)
    Fv = (xuv * xv + yuv * yv + zuv * zv) + (xu * xvv + yu * yvv + zu * zvv)
    Gu = 2.0 * (xv * xuv + yv * yuv + zv * zuv)
    Gv = 2.0 * (xv * xvv + yv * yvv + zv * zvv)
    return E, F, G, a, _christoffel2(E, F, G, Eu, Ev, Fu, Fv, Gu, Gv, a)


def metric_and_gamma(surface, u, v):
    return MetricData(*metric_gamma(surface.kernel, float(u), float(v)))


def geodesic_field(surface):
    def rhs(s, y):
        u, v, du, dv = y
        g = metric_gamma(surface.kernel, u, v)[4]
        ddu = -(g[0] * du * du + 2.0 * g[2] * du * dv + g[4] * dv * dv)
        ddv = -(g[1] * du * du + 2.0 * g[3] * du * dv + g[5] * dv * dv)
        return (du, dv, ddu, ddv)

    return rhs


def transport_field(surface):
    def field(u, v, du, dv, A1, A2):
        g = metric_gamma(surface.kernel, u, v)[4]
        dA1 = -(g[0] * du * A1 + g[2] * (du * A2 + dv * A1) + g[4] * dv * A2)
        dA2 = -(g[1] * du * A1 + g[3] * (du * A2 + dv * A1) + g[5] * dv * A2)
        return (dA1, dA2)

    return field


def area_integrand(surface):
    return lambda u, v: _SurfacePoint(surface, u, v).sqrt_a


def curvature_integrand(surface):
    def integrand(u, v):
        p = _SurfacePoint(surface, u, v)
        e, f, g = p.efg
        return (e * g - f * f) / p.sqrt_a

    return integrand
