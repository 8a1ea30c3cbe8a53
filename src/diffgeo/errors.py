"""Exception taxonomy shared by every diffgeo module."""


class DiffGeoError(Exception):
    """Base class for all library errors."""


# --- expression front-end -------------------------------------------------

class LexError(DiffGeoError):
    def __init__(self, position, character):
        self.position = position
        self.character = character
        super().__init__(f"unexpected character {character!r} at byte offset {position}")


class ParseError(DiffGeoError):
    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = expected
        self.found = found
        what = f", found {found!r}" if found is not None else ""
        super().__init__(f"expected {expected} at byte offset {position}{what}")


class DefinitionError(ParseError):
    """A definition or loop file does not follow the line format.  The
    message names the line at fault."""

    def __init__(self, message):
        DiffGeoError.__init__(self, message)
        self.position = self.expected = self.found = None


class UnknownIdentifier(DiffGeoError):
    """An identifier is neither a declared parameter, constant nor builtin."""


class ArityError(DiffGeoError):
    """An identifier is called like a function but is not one, or vice versa."""


class DomainError(DiffGeoError):
    """Argument outside the real domain of a function, or parameter outside
    the declared interval."""


class UnrecordableFunction(DiffGeoError):
    """A shape's Python function reads a jet's value (to branch on it, or
    for ``math``), so it cannot be recorded as code; the message names it."""


# --- numerics -------------------------------------------------------------

class StepUnderflow(DiffGeoError):
    """The ODE controller demanded a step below ``min_step``."""


class MaxStepsExceeded(DiffGeoError):
    """The ODE integrator hit the accepted-step cap before reaching t1."""


class MaxDepthExceeded(DiffGeoError):
    """Adaptive quadrature could not certify its absolute tolerance.

    Raised when the subdivision reaches ``max_depth``, and at once when a
    panel's share of the tolerance is below its rounding floor (about
    ``50 * eps * sum(|w * f|)`` times the panel measure), where no double
    can certify it.  ``best`` carries the estimate of the whole integral:
    the accepted panels, the failing panel's refined value and the coarse
    values of the panels not yet visited.
    """

    def __init__(self, best, message="quadrature subdivision limit reached"):
        self.best = best
        super().__init__(f"{message} (best estimate {best!r})")


class NoConvergence(DiffGeoError):
    """An iteration did not reach its tolerance.  ``best`` is the best
    iterate seen: ``(x, f(x))`` from ``root_find``, ``(launch angle,
    endpoint distance)`` from ``geodesic_bvp``.
    """

    def __init__(self, message="iteration did not converge", best=None):
        self.best = best
        super().__init__(message)


# --- curve kernel ----------------------------------------------------------

class SingularPoint(DiffGeoError):
    """|dr/dt| is numerically zero: the curve is not regular here."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"curve is singular at t={t!r}")


class InflectionPoint(DiffGeoError):
    """Curvature is numerically zero: N, B and the torsion are undefined."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"curvature vanishes at t={t!r}; frame undefined")


class ZeroTorsion(DiffGeoError):
    """The requested quantity divides by the torsion, which vanishes here."""


class NonOrthonormalSeed(DiffGeoError):
    """Initial frame passed to curve reconstruction is not an orthonormal
    right-handed triad."""


# --- surface kernel ---------------------------------------------------------

class SingularSurfacePoint(DiffGeoError):
    """|E1 x E2| is numerically zero: the parameterization is singular."""

    def __init__(self, u, v, message=None):
        self.u = u
        self.v = v
        super().__init__(message or f"surface is singular at (u, v)=({u!r}, {v!r})")


class ZeroVector(DiffGeoError):
    """A direction argument has zero length."""


class UmbilicPoint(DiffGeoError):
    """Principal directions are undefined: normal curvature is isotropic."""


class NoUniqueConjugate(DiffGeoError):
    """The conjugacy form degenerates along the given direction."""


class AsymptoticPoint(DiffGeoError):
    """The curve is asymptotic here; the requested formula does not apply."""


class NonOrthogonalPatch(DiffGeoError):
    """F does not vanish on the patch; the formula needs orthogonal
    coordinate curves."""


class OpenLoop(DiffGeoError):
    """Boundary arcs do not close up end-to-start."""


class DegenerateMultiplicity(DiffGeoError):
    """Two distinct boundary-value geodesics of equal length were found.

    ``paths`` carries every converged solution.
    """

    def __init__(self, paths, message="multiple geodesics of equal length"):
        self.paths = paths
        super().__init__(message)


# --- catalog / CLI ----------------------------------------------------------

class UnknownShape(DiffGeoError):
    def __init__(self, name, known=()):
        self.name = name
        hint = f"; known shapes: {', '.join(sorted(known))}" if known else ""
        super().__init__(f"unknown shape {name!r}{hint}")


class InvalidParameter(DiffGeoError):
    """A shape parameter violates its validity constraint (e.g. torus r >= R)."""


class NoReference(DiffGeoError):
    """The catalog entry has no closed-form reference for this quantity."""
