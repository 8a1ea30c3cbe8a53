"""Jet arithmetic and elementary-function correctness against finite
differences, plus the algebraic laws the rest of the library leans on."""

import ast
import math
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffgeo import jets as J
from diffgeo.errors import DomainError
from diffgeo.jets import Jet1, Jet2
from diffgeo.vectors import Vec3

from conftest import fd_derivative, fd_partial

finite = st.floats(min_value=-10, max_value=10,
                   allow_nan=False, allow_infinity=False)


def jets_close(a, b, tol):
    return all(abs(x - y) <= tol for x, y in zip(a.c, b.c))


class TestLifts:
    """Floats lifted to jets: the variables and constants."""

    def test_variable_seed(self):
        assert Jet1.variable(3.0).c == (3.0, 1.0, 0.0, 0.0, 0.0)

    def test_constant_seed(self):
        assert Jet1.constant(math.pi).c == (math.pi, 0.0, 0.0, 0.0, 0.0)

    def test_square_of_variable(self):
        t = Jet1.variable(3.0)
        assert (t * t).c == (9.0, 6.0, 2.0, 0.0, 0.0)

    def test_jet2_variable_seeds(self):
        u, v = Jet2.variable_u(0.5), Jet2.variable_v(1.5)
        assert u.c[0] == 0.5 and u.c[1] == 1.0 and all(c == 0.0 for c in u.c[2:])
        assert v.c[0] == 1.5 and v.c[2] == 1.0
        assert v.c[1] == 0.0


class TestElementaryTaylor:
    def test_sin_at_zero(self):
        assert jets_close(J.sin(Jet1.variable(0.0)), Jet1(0, 1, 0, -1, 0), 1e-15)

    def test_exp_at_zero(self):
        assert jets_close(J.exp(Jet1.variable(0.0)), Jet1(1, 1, 1, 1, 1), 1e-15)

    def test_derivative_of_square_matches_central_difference(self):
        jet = J.power(Jet1.variable(3.0), 2)
        fd = fd_derivative(lambda x: x * x, 3.0, 1)
        assert abs(jet.c[1] - fd) <= 1e-8

    @pytest.mark.parametrize("name,point,h", [
        ("sin", 0.83, None), ("cos", 0.83, None), ("tan", 0.45, 0.04),
        ("exp", 0.4, None), ("log", 1.7, None), ("sqrt", 2.3, None),
        ("sinh", 0.83, None), ("cosh", 0.83, None), ("tanh", 0.83, None),
        ("asin", 0.25, 0.04), ("acos", -0.25, 0.04), ("atan", 1.31, None),
    ])
    def test_all_orders_match_finite_differences(self, name, point, h):
        fn = getattr(J, name)
        mfn = getattr(math, name)
        jet = fn(Jet1.variable(point))
        scale = max(1.0, max(abs(c) for c in jet.c))
        for order in range(1, 5):
            fd = fd_derivative(mfn, point, order,
                               h=h if order >= 3 else None)
            assert abs(jet.c[order] - fd) <= 1e-6 * scale, (name, order)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            J.log(Jet1.variable(-1.0))
        with pytest.raises(DomainError):
            J.sqrt(Jet1.variable(0.0))
        with pytest.raises(DomainError):
            J.asin(Jet1.variable(2.0))
        with pytest.raises(DomainError):
            Jet1.variable(1.0) / Jet1.constant(0.0)

    def test_power_integer_any_base(self):
        jet = J.power(Jet1.variable(-2.0), 3)
        assert jet.c[0] == -8.0 and jet.c[1] == 12.0

    def test_power_fractional_needs_positive_base(self):
        with pytest.raises(DomainError):
            J.power(Jet1.variable(-2.0), 0.5)
        jet = J.power(Jet1.variable(4.0), 0.5)
        assert abs(jet.c[0] - 2.0) < 1e-15
        assert abs(jet.c[1] - 0.25) < 1e-15

    def test_power_variable_exponent(self):
        # t^t at t=1.5 via exp(t log t)
        t0 = 1.5
        jet = J.power(Jet1.variable(t0), Jet1.variable(t0))
        fd = fd_derivative(lambda x: x ** x, t0, 1)
        assert abs(jet.c[1] - fd) <= 1e-7 * max(1.0, abs(fd))


class TestArithmeticLaws:
    @given(finite, finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_addition_commutes_and_associates(self, a, b, c):
        x = Jet1(a, b, c, a - b, b * 0.5)
        y = Jet1(c, a, b, a, c)
        z = Jet1(b, c, a, 1.0, 0.25)
        assert jets_close(x + y, y + x, 0.0)
        lhs = (x + y) + z
        rhs = x + (y + z)
        scale = max(1.0, max(abs(q) for q in lhs.c))
        assert jets_close(lhs, rhs, 4e-16 * scale)

    @given(finite, finite, finite)
    @settings(max_examples=60, deadline=None)
    def test_multiplication_commutes_and_associates(self, a, b, c):
        x = Jet1(a, b, c, 0.3, -0.2)
        y = Jet1(c if c != 0 else 1.0, a, b, 0.1, 0.7)
        z = Jet1(b, 0.5, a, c, 0.9)
        ulp = 2.220446049250313e-16
        scale = max(1.0, max(abs(q) for q in (x * y).c))
        assert jets_close(x * y, y * x, 4 * ulp * scale)
        lhs = (x * y) * z
        rhs = x * (y * z)
        scale = max(1.0, max(abs(q) for q in lhs.c), max(abs(q) for q in rhs.c))
        assert jets_close(lhs, rhs, 40 * ulp * scale)

    @given(finite)
    @settings(max_examples=40, deadline=None)
    def test_leibniz_rule_exact(self, a):
        # d(fg) = f'g + fg' at every retained order, via a product of two
        # analytically known factors
        t = Jet1.variable(a)
        f = J.sin(t)
        g = J.exp(t * 0.5)
        prod = f * g
        fn = lambda x: math.sin(x) * math.exp(0.5 * x)
        scale = max(1.0, max(abs(c) for c in prod.c))
        for order in range(1, 5):
            assert abs(prod.c[order] - fd_derivative(fn, a, order)) \
                <= 2e-6 * scale

    def test_division_roundtrip(self):
        rng = random.Random(5)
        for _ in range(50):
            x = Jet1(*[rng.uniform(-2, 2) for _ in range(5)])
            y = Jet1(rng.uniform(0.5, 2.5), *[rng.uniform(-2, 2)
                                              for _ in range(4)])
            back = (x / y) * y
            scale = max(1.0, max(abs(c) for c in x.c))
            assert jets_close(back, x, 1e-12 * scale)


class TestJet2:
    def test_mixed_partials_stored_once(self):
        u, v = Jet2.variable_u(0.7), Jet2.variable_v(-0.4)
        g = J.sin(u * v) + u * u * v
        # fuv sits at a single slot; evaluating in either operand order
        # cannot disagree with itself
        assert len(g.c) == 10

    @pytest.mark.parametrize("iu,iv", [(1, 0), (0, 1), (2, 0), (1, 1),
                                       (0, 2), (3, 0), (2, 1), (1, 2), (0, 3)])
    def test_partials_match_finite_differences(self, iu, iv):
        def scalar(u, v):
            return math.sin(u * v) + math.exp(0.3 * u) * math.cos(v) + u ** 3

        u0, v0 = 0.52, 1.17
        uj, vj = Jet2.variable_u(u0), Jet2.variable_v(v0)
        g = (J.sin(uj * vj) + J.exp(0.3 * uj) * J.cos(vj)
             + J.power(uj, 3))
        idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (2, 0): 3, (1, 1): 4,
               (0, 2): 5, (3, 0): 6, (2, 1): 7, (1, 2): 8, (0, 3): 9}
        want = fd_partial(scalar, u0, v0, iu, iv)
        have = g.c[idx[(iu, iv)]]
        assert abs(have - want) <= 2e-5 * max(1.0, abs(want))

    def test_division(self):
        u, v = Jet2.variable_u(0.8), Jet2.variable_v(0.2)
        g = (u + v) / (1.0 + u * v)
        h = (u + v) * (1.0 / (1.0 + u * v))
        assert jets_close(g, h, 1e-14)


class TestVec3:
    @given(st.lists(finite, min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_cross_product_orthogonal_to_operands(self, vals):
        a = Vec3(*vals[:3])
        b = Vec3(*vals[3:])
        c = a.cross(b)
        scale = max(a.norm() * b.norm(), 1e-30) * max(a.norm(), b.norm())
        assert abs(c.dot(a)) <= 8 * 2.3e-16 * max(scale, 1e-30)
        assert abs(c.dot(b)) <= 8 * 2.3e-16 * max(scale, 1e-30)

    def test_norm_of_jet_vector(self):
        t = Jet1.variable(0.3)
        vec = Vec3(J.cos(t), J.sin(t), t * 0.0)
        n = vec.norm()
        assert abs(n.value - 1.0) < 1e-15
        assert abs(n.c[1]) < 1e-15  # unit circle: |r| constant


def test_only_jets_names_the_jet_types():
    # every shape is evaluated through generated code: the jet types are
    # the tests' reference, and no other module reads them
    src = os.path.join(os.path.dirname(J.__file__))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py") or name == "jets.py":
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute)}
        names |= {a.name for n in ast.walk(tree)
                  if isinstance(n, (ast.Import, ast.ImportFrom))
                  for a in n.names}
        assert not {"Jet1", "Jet2"} & names, name
        if name == "expr.py":
            text = ast.unparse(tree)
            assert "_fallback" not in text and "defer" not in text
