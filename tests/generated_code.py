"""The source of every program the library generates while the golden CLI
reports run, the catalog's surfaces make their ``surface_area`` and
``total_curvature`` programs, and the tests' recorded shapes (``BOWL``, a
curve and a surface curve of jet-generic functions) and the ``DEFERRING``
template make their kernels and programs, read where
``diffgeo.ode._compile`` compiles it.  Every cache of generated code and
of parsed definitions is emptied first, so each program is made again.

Run as a script, it prints each program after a line that names its file,
so that the printed source of two trees can be compared with diff::

    PYTHONPATH=src python tests/generated_code.py > programs.txt
"""

import contextlib
import io
import os
import sys
import tempfile

from diffgeo import catalog, curves, expr, jets, ode, surfacecurves
from diffgeo.surfacecurves import _geodesic
from diffgeo.surfaces import (ParametricSurface, _area_element,
                              _curvature_element, _identity_terms,
                              _metric_terms, _point_terms)
from diffgeo.vectors import Vec3

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from test_golden import CASES, run_case  # noqa: E402


def collect():
    """``(filename, source)`` of each program compiled, in compile order."""
    made, compile_ = [], ode._compile

    def record(lines, filename, namespace):
        made.append((filename, "\n".join(lines)))
        return compile_(lines, filename, namespace)

    expr._GENERATED.clear()
    for cached in (expr.load_definition, ode._attempt, ode._dense):
        cached.cache_clear()
    ode._compile = record
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for name in sorted(CASES):
                run_case(name, os.path.join(tmp, name + ".json"))
            for name in catalog.names():
                shape = catalog.make(name)
                if isinstance(shape, ParametricSurface):
                    for formulas in (_area_element, _curvature_element):
                        shape.program(formulas, (1, 1))
            _recorded()
    finally:
        ode._compile = compile_
    return made


def _recorded():
    """Make the kernels and programs of the tests' recorded shapes and of
    the DEFERRING template."""
    from test_program_parity import BOWL, DEFERRING
    for shape in (ParametricSurface(BOWL.evaluator, BOWL.domain),
                  catalog.build(expr.load_definition(DEFERRING))):
        shape.kernel, expr.position_kernel(shape._shape, 3), shape.composite
        shape.program(_geodesic, (1, 4))
        shape.program(_identity_terms, (1, 1), order=3)
        for formulas in (_metric_terms, _point_terms, _area_element,
                         _curvature_element):
            shape.program(formulas, (1, 1))
    curves.jet_kernel(lambda t: Vec3(t, t * t, jets.sin(t) / t))(0.5)
    surfacecurves.jet_kernel(lambda t: (1.0 + t * t, jets.exp(-t)))(0.5)


if __name__ == "__main__":
    for filename, source in collect():
        print(f"# {filename}\n{source}\n")
