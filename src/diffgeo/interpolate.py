"""Piecewise quintic Hermite interpolation over jets and floats.

Trajectory samples (value, first and second derivative at each knot) become
a C^2 evaluator whose jets are exact derivatives of the interpolant.  Used
to re-feed integrated geodesics and reconstructed curves through the same
differential pipeline as closed-form shapes: the interpolant is a genuine
curve, so residual checks on it are not satisfied by construction.  Over
floats, :func:`taylor_kernel` gives the Taylor coefficients of channels
that share their knots from generated code, equal to the jets' coefficients.
"""

from bisect import bisect_right

from .expr import _GENERATED, _KERNEL, _postfix, parse_text

__all__ = ["HermiteChannel", "taylor_kernel"]


class HermiteChannel:
    """One scalar channel s -> p(s) through knots with (y, y', y'')."""

    def __init__(self, knots, values, deriv1, deriv2):
        if len(knots) < 2:
            raise ValueError("need at least two knots")
        self.knots = [float(s) for s in knots]
        self.coeffs = []
        for i in range(len(knots) - 1):
            h = self.knots[i + 1] - self.knots[i]
            y0, d0, a0 = values[i], deriv1[i], deriv2[i]
            y1, d1, a1 = values[i + 1], deriv1[i + 1], deriv2[i + 1]
            dh, ah = d0 * h, a0 * h * h
            dh1, ah1 = d1 * h, a1 * h * h
            self.coeffs.append((
                y0,
                dh,
                0.5 * ah,
                -10.0 * y0 - 6.0 * dh - 1.5 * ah + 10.0 * y1 - 4.0 * dh1 + 0.5 * ah1,
                15.0 * y0 + 8.0 * dh + 1.5 * ah - 15.0 * y1 + 7.0 * dh1 - ah1,
                -6.0 * y0 - 3.0 * dh - 0.5 * ah + 6.0 * y1 - 3.0 * dh1 + 0.5 * ah1,
            ))

    def segment(self, s0):
        """(i, knot i, 1 / width) of the piece that the float ``s0`` falls
        in; outside the knots, the nearest end piece."""
        i = bisect_right(self.knots, s0) - 1
        i = min(max(i, 0), len(self.coeffs) - 1)
        return i, self.knots[i], 1.0 / (self.knots[i + 1] - self.knots[i])

    def __call__(self, s):
        """Evaluate at a float or jet ``s`` (jets flow through the polynomial)."""
        i, knot, inv_h = self.segment(s.value if hasattr(s, "value")
                                      else float(s))
        x = (s - knot) * inv_h
        k = self.coeffs[i]
        out = k[5]
        for c in (k[4], k[3], k[2], k[1], k[0]):
            out = out * x + c
        return out


# the program of the Horner form that HermiteChannel.__call__ evaluates,
# x = (s - a) * b, over the coefficients k0 .. k5
_HORNER = _postfix(parse_text("((((k5*x + k4)*x + k3)*x + k2)*x + k1)*x + k0"
                              .replace("x", "((s - a)*b)")))


def taylor_kernel(channels):
    """The float kernel s -> the five rows (one coefficient of each channel
    per row) of the Taylor coefficients of ``channels`` at s, for channels
    over the same knots: as ``HermiteChannel.__call__`` computes them on a
    Jet1 variable, bit for bit, from order-4 code generated once per number
    of channels."""
    n, first = len(channels), channels[0]
    # the Horner forms' constants: the knot a, 1 / width b and each
    # channel's coefficients, k<j>_0 .. k<j>_5 for channel j
    horner = _GENERATED[(tuple(tuple(
        (op, f"k{j}_{arg[1]}" if op == "var" and arg[0] == "k" else arg)
        for op, arg in _HORNER) for j in range(n)), ("s",), ("a", "b", *(
            f"k{j}_{m}" for j in range(n) for m in range(6)))), _KERNEL, 4]

    def kernel(s):
        i, knot, inv_h = first.segment(s)
        return horner(s, knot, inv_h,
                      *(c for ch in channels for c in ch.coeffs[i]))

    return kernel
