"""diffgeo: numerical differential geometry of parametric curves and
surfaces.

Every shape, a definition or a jet-generic Python function, is evaluated
through code generated once from its truncated-Taylor (jet) arithmetic, so
curvature, torsion, fundamental forms, Christoffel symbols and every
residual checked by the verification suites come from exact derivatives
of the defining expressions rather than finite differences.
"""

from . import catalog, errors
from .curves import (CurveClass, FrenetData, OsculatingCircle,
                     OsculatingSphere, ParametricCurve, arc_length,
                     classify_curve, frenet, frenet_lines_and_planes,
                     frenet_residuals, indicatrix_kappa_tau, involute,
                     osculating_circle, osculating_sphere,
                     reconstruct_from_kappa_tau, reparam_to_arclength,
                     spherical_indicatrix, sphericity_residual)
from .expr import ShapeDefinition, load_definition, parse_text, to_text
from .ode import OdeSpec, ode_solve
from .quadrature import QuadSpec, quad2d, quad_adaptive
from .roots import root_find
from .surfaces import (CurvatureData, FormBundle, ParametricSurface,
                       SurfaceFrame, angle_between,
                       codazzi_compatibility_residuals, curvatures,
                       dupin_classification, form_identity_residual, forms,
                       gauss_weingarten_residuals, riemann_R1212,
                       surface_area, surface_frame, total_curvature)
from .surfacecurves import (BoundaryLoop, CurvatureSplit, GaussBonnetBudget,
                            GeodesicPath, SurfaceCurve, TransportState,
                            asymptotic_directions, asymptotic_line_trace,
                            bonnet_torsion_check, conjugate_direction,
                            curvature_split, gauss_bonnet_global,
                            gauss_bonnet_local, geodesic_bvp, geodesic_ivp,
                            geodesic_torsion, liouville_check,
                            parallel_transport, principal_direction_field)
from .vectors import Vec3

__version__ = "0.1.0"
