"""3-vectors generic over the scalar kind (float, Jet1 or Jet2).

The same cross/dot/norm code therefore serves both plain evaluation and
jet differentiation; ``norm`` routes through the jet-aware ``sqrt``.
"""

import math

from . import jets

__all__ = ["Vec3"]


class Vec3:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x = x
        self.y = y
        self.z = z

    def __repr__(self):
        return f"Vec3({self.x!r}, {self.y!r}, {self.z!r})"

    def __iter__(self):
        yield self.x
        yield self.y
        yield self.z

    def __eq__(self, other):
        return (tuple(self) == tuple(other) if type(other) is Vec3
                else NotImplemented)

    def __hash__(self):
        return hash(tuple(self))

    def __add__(self, other):
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other):
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __mul__(self, s):
        return Vec3(self.x * s, self.y * s, self.z * s)

    def __truediv__(self, s):
        return Vec3(self.x / s, self.y / s, self.z / s)

    def dot(self, other):
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other):
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm_sq(self):
        return self.dot(self)

    def norm(self):
        n2 = self.norm_sq()
        if isinstance(n2, float):
            return math.sqrt(n2)
        return jets.sqrt(n2)

    def normalized(self):
        return self / self.norm()

    def derivative(self):
        """Componentwise Jet1.derivative (curve use only)."""
        return Vec3(self.x.derivative(), self.y.derivative(), self.z.derivative())

    def du(self):
        """Componentwise partials of the recorder's jets (expr._TapeJet)."""
        return Vec3(self.x.du(), self.y.du(), self.z.du())

    def dv(self):
        return Vec3(self.x.dv(), self.y.dv(), self.z.dv())


def _spread(points):
    """Largest distance of a finite point from the centroid of the finite
    points, at least 1: a length scale that ignores translation and does
    not overflow."""
    pts = [p for p in points if all(map(math.isfinite, p))]
    c = [math.fsum(x / len(pts) for x in xs) for xs in zip(*pts)]
    return max([1.0] + [math.hypot(*(a - b for a, b in zip(p, c)))
                        for p in pts])
