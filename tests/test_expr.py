"""Tokenizer, parser, pretty printer and shape-definition loading."""

import copy
import math
import os
import pickle
import random
import re
import zlib
from functools import partial

import pytest

from diffgeo import catalog, cli, curves, surfacecurves
from diffgeo.errors import (ArityError, DiffGeoError, DomainError, LexError,
                            ParseError, UnknownIdentifier,
                            UnrecordableFunction)
from diffgeo.expr import (MAX_DEPTH, ShapeDefinition, eval_literal,
                          eval_scalar, load_definition, parse_text, to_text,
                          tokenize)
from diffgeo.jets import Jet1, Jet2
from diffgeo.surfacecurves import SurfaceCurve
from diffgeo.surfaces import ParametricSurface
from diffgeo.vectors import Vec3

import reference
from conftest import (EVAL_SAFE, fd_derivative, random_program, reference_eval,
                      rule_evaluator, surface_samples)
from test_cli_fuzz import NUMBERS

INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden",
                      "inputs")


def _copy_with(definition, **changes):
    """A copy of the ShapeDefinition ``definition`` with ``changes``, every
    other field copied."""
    fields = {name: getattr(definition, name) for name in definition._fields}
    return ShapeDefinition(**{**fields, **changes})


HELIX_TEXT = """
# a circular helix
curve helix
param t in [0, 6.283185307179586]
const a = 1
const b = 0.5
x = a*cos(t)
y = a*sin(t)
z = b*t
"""


class TestTokenize:
    def test_expression_stream(self):
        toks = tokenize("a*cos(t)")
        assert [(t.kind, t.lexeme) for t in toks] == [
            ("identifier", "a"), ("operator", "*"), ("identifier", "cos"),
            ("paren", "("), ("identifier", "t"), ("paren", ")")]

    def test_scientific_number(self):
        (tok,) = tokenize("1.5e2")
        assert tok.kind == "number" and float(tok.lexeme) == 150.0

    def test_unknown_character_position(self):
        with pytest.raises(LexError) as exc:
            tokenize("x @ y")
        assert exc.value.position == 2
        assert exc.value.character == "@"

    def test_positions_nondecreasing(self):
        toks = tokenize("alpha + 2*beta - sin(x)/7")
        positions = [t.position for t in toks]
        assert positions == sorted(positions)

    def test_comments_ignored(self):
        assert [t.lexeme for t in tokenize("1 + 2 # + 3")] == ["1", "+", "2"]


class TestParse:
    def test_precedence_mul_over_add(self):
        assert eval_scalar(parse_text("2+3*4"), {}) == 14.0

    def test_unary_minus_below_power(self):
        assert eval_scalar(parse_text("-2^2"), {}) == -4.0

    def test_power_right_associative(self):
        assert eval_scalar(parse_text("2^3^2"), {}) == 512.0

    def test_power_binds_parenthesized_negative_base(self):
        assert eval_scalar(parse_text("(-2)^2"), {}) == 4.0

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_text("2*(1+")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_text("1+2 3")

    def test_pi_constant(self):
        assert abs(eval_scalar(parse_text("2*pi"), {}) - 2 * math.pi) < 1e-15

    def test_undeclared_identifier(self):
        with pytest.raises(UnknownIdentifier):
            eval_scalar(parse_text("qq + 1"), {})

    def test_calling_a_non_function(self):
        with pytest.raises(ArityError):
            eval_scalar(parse_text("a(2)"), {"a": 3.0})

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier):
            eval_scalar(parse_text("sinc(2)"), {})

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_scalar(parse_text("1/(2-2)"), {})

    @pytest.mark.parametrize("text", ["1e400*u", "2^-1e400", *NUMBERS])
    def test_roundtrip_numbers(self, text):
        try:
            program = parse_text(text)
        except (LexError, ParseError):
            return      # no program to print
        assert parse_text(to_text(program)) == program

    def test_roundtrip_thousand_random_trees(self):
        rng = random.Random(2024)
        for _ in range(1000):
            program = random_program(rng, rng.randint(1, 6))
            assert parse_text(to_text(program)) == program

    @pytest.mark.parametrize("text, program", [
        ("a/b/c", (("var", "c"), ("var", "b"), ("var", "a"), ("/", None),
                   ("/", None))),
        ("sin(u)/v", (("var", "v"), ("var", "u"), ("call", "sin"),
                      ("/", None))),
        ("(u+v)*w/-x", (("var", "x"), ("neg", None), ("var", "u"),
                        ("var", "v"), ("+", None), ("var", "w"), ("*", None),
                        ("/", None))),
        ("u-v-w", (("var", "u"), ("var", "v"), ("-", None), ("var", "w"),
                   ("-", None))),
        ("-2^2", (("num", 2.0), ("num", 2.0), ("^", None), ("neg", None))),
        ("2^3^2", (("num", 2.0), ("num", 3.0), ("num", 2.0), ("^", None),
                   ("^", None))),
        ("-u^-v^2", (("var", "u"), ("var", "v"), ("num", 2.0), ("^", None),
                     ("neg", None), ("^", None), ("neg", None))),
        ("2*pi", (("num", 2.0), ("num", math.pi), ("*", None))),
        ("a(2)", (("fail", "a"),)),
        ("a(1/0)", (("fail", "a"),)),
    ], ids=lambda x: x if isinstance(x, str) else "")
    def test_programs(self, text, program):
        """Postfix in evaluation order: a divisor before its dividend, pi
        as its value, a call of a non-function one 'fail' op."""
        assert parse_text(text) == program

    @pytest.mark.parametrize("text, message", [
        ("+".join(["u"] * (MAX_DEPTH + 1)), "expected an expression at most "
         "400 levels deep at byte offset 799, found '+'"),
        ("(" * (MAX_DEPTH + 1) + "u" + ")" * (MAX_DEPTH + 1), "expected at "
         "most 400 nested parentheses, calls, minus signs and carets at byte "
         "offset 401, found 'u'"),
    ], ids=["levels", "nesting"])
    def test_first_text_past_the_depth_limit(self, text, message):
        with pytest.raises(ParseError) as exc:
            parse_text(text)
        assert str(exc.value) == message

    def test_a_call_of_a_non_function_does_not_print(self):
        with pytest.raises(ValueError, match="call of 'a'"):
            to_text(parse_text("u + a(1/0)"))


class TestDefinitions:
    def test_helix_load_and_eval(self):
        d = load_definition(HELIX_TEXT)
        assert d.kind == "curve" and d.name == "helix"
        p = d.eval(Jet1.variable(0.0))
        assert (p.x.value, p.y.value, p.z.value) == (1.0, 0.0, 0.0)
        assert (p.x.c[1], p.y.c[1], p.z.c[1]) == (0.0, 1.0, 0.5)

    def test_plane_surface_basis(self):
        d = load_definition("""
surface plane
param u in [-1, 1]
param v in [-1, 1]
x = u
y = v
z = 0
""")
        u, v = Jet2.variable_u(0.3), Jet2.variable_v(0.4)
        p = d.eval(u, v)
        assert (p.x.c[1], p.y.c[1], p.z.c[1]) == (1.0, 0.0, 0.0)
        assert (p.x.c[2], p.y.c[2], p.z.c[2]) == (0.0, 1.0, 0.0)

    def test_monge_patch_partial(self):
        d = load_definition("""
surface bowl
param u in [-2, 2]
param v in [-2, 2]
x = u
y = v
z = u^2 + v^2
""")
        p = d.eval(Jet2.variable_u(1.0), Jet2.variable_v(0.0))
        assert (p.x.c[1], p.y.c[1], p.z.c[1]) == (1.0, 0.0, 2.0)

    def test_out_of_domain_rejected(self):
        d = load_definition(HELIX_TEXT)
        with pytest.raises(DomainError):
            d.eval(100.0)

    def test_wrong_parameter_count(self):
        with pytest.raises(ParseError):
            load_definition("""
curve twisted
param t in [0, 1]
param s in [0, 1]
x = t
y = s
z = 0
""")

    def test_missing_component(self):
        with pytest.raises(ParseError):
            load_definition("""
curve flat
param t in [0, 1]
x = t
y = t
""")

    def test_undeclared_name_in_component(self):
        with pytest.raises(UnknownIdentifier):
            load_definition("""
curve bad
param t in [0, 1]
x = t
y = w*t
z = 0
""")

    def test_reserved_function_name(self):
        with pytest.raises(ParseError):
            load_definition("""
curve bad
param sin in [0, 1]
x = sin
y = sin
z = 0
""")

    def test_surfacecurve_kind(self):
        d = load_definition("""
surfacecurve diag
param t in [0, 1]
u = t
v = 2*t
""")
        uj, vj = d.eval(Jet1.variable(0.25))
        assert (uj.value, vj.value) == (0.25, 0.5)
        assert (uj.c[1], vj.c[1]) == (1.0, 2.0)


class TestLoopDefinitions:
    def test_arcs_corners_and_region(self):
        d = load_definition("""
loop wedge
region 0 1 0 pi/4   # enclosed rectangle
arc t in [0, 1]
u = t
v = 0
corner pi/2
arc s in [0, 1]
u = 1
v = s*pi/4
corner auto
""")
        assert d.kind == "loop" and d.name == "wedge"
        assert d.regions == ((0.0, 1.0, 0.0, math.pi / 4),)
        assert d.corners == (math.pi / 2, None)
        first, second = d.arcs
        assert first.kind == "surfacecurve" and second.params == {"s": (0.0, 1.0)}
        uj, vj = second.eval(Jet1.variable(0.5))
        assert (uj.value, uj.c[1], vj.value, vj.c[1]) == (
            1.0, 0.0, 0.5 * math.pi / 4, math.pi / 4)


class TestDefinitionErrors:
    @pytest.mark.parametrize("text, message", [
        ("surface s\nparam u in [0, 1]\nparam v in 0, 1]\nx = u\ny = v\n"
         "z = 0\n", "line 3: domain must be '[a, b]'"),
        ("curve c\nparam t in [0, 1]\nx = t\ny = sin(t\nz = 0\n",
         "line 4: expected ')'"),
        ("curve c\nparam t in [0, 1]\nx = t\ny = w*t\nz = 0\n",
         "line 4: component 'y' references undeclared identifier 'w'"),
        ("curve c\nparam t in [0, 1]\nconst k = q\nx = t\ny = t\nz = 0\n",
         "line 3: a number may not reference 'q'"),
        ("curve c\nparam t in [0, 1]\nx = t\ny = t\n",
         "line 1: missing component(s): z"),
        ("loop l\nregion 0 1 0 1\narc t in 0, 1]\nu = t\nv = 0\n",
         "line 3: domain must be '[a, b]'"),
        ("loop l\nregion 0 1 0 1\narc t in [0, 1]\nu = t\nv = 0\nw = 3\n",
         "line 6: unexpected component 'w'"),
        ("loop l\nregion 0 1 0 1\narc t in [0, 1]\nu = t\n",
         "line 3: missing component(s): v"),
        ("loop l\nregion 0 1 0\narc t in [0, 1]\nu = t\nv = 0\n",
         "line 2: region line needs u0 u1 v0 v1"),
        ("loop l\nu = t\n", "line 2: 'u' line before the first arc"),
        ("loop l\narc t in [0, 1]\nu = t\nv = 0\n",
         "line 1: loop needs at least one region line"),
        ("curve c\nparam t in [0, 1]\nx = t\ny = wobble(t)\nz = 0\n",
         "line 4: unknown function 'wobble'"),
        ("curve c\nparam t in [0, 1]\nconst a = 2\nx = t\ny = t\n"
         "z = log(t + 1) / sin(a(t))\n", "line 6: 'a' is not a function"),
        ("curve c\nparam t in [0, 1]\nx = t(t)\ny = pi(t)\nz = 0\n",
         "line 3: 't' is not a function"),
        ("loop l\nregion 0 1 0 1\narc t in [0, 1]\nu = t\nv = pi(t)\n",
         "line 5: 'pi' is not a function"),
    ], ids=["param-domain", "unclosed-call", "undeclared", "const-name",
            "missing-component", "arc-domain", "arc-unknown-key",
            "arc-missing-component", "region-count", "before-arc",
            "no-region", "unknown-function", "call-const", "call-param",
            "call-pi"])
    def test_message_names_the_line(self, text, message):
        raised = []
        for _ in range(2):      # errors are not cached: each call raises anew
            with pytest.raises(DiffGeoError) as exc:
                load_definition(text)
            assert str(exc.value).startswith(message)
            raised.append((type(exc.value), str(exc.value)))
        assert raised[0] == raised[1]


class TestSharedDefinitions:
    """load_definition parses each text once and shares the definition,
    which is read-only."""

    def test_one_parse_per_text(self):
        assert load_definition(HELIX_TEXT) is load_definition(HELIX_TEXT)

    @pytest.mark.parametrize("source", ["catalog", "file", "loop-arc"])
    def test_read_only(self, source):
        if source == "catalog":
            definition = catalog.make("torus").definition
        elif source == "file":
            definition = cli._read_definition(os.path.join(INPUTS,
                                                           "saddle.ps"))
        else:
            (definition,) = cli._read_definition(
                os.path.join(INPUTS, "hemisphere.loop")).arcs
        before = dict(definition.params), dict(definition.constants)
        for mapping in (definition.params, definition.constants):
            with pytest.raises(TypeError):
                mapping["R"] = 2.0
        assert (definition.params, definition.constants) == before

    def test_keeps_a_copy(self):
        consts = {"a": 3.0}
        definition = _copy_with(load_definition(HELIX_TEXT),
                                constants=consts)
        consts["a"] = 4.0
        assert definition.constants == {"a": 3.0}
        assert load_definition(HELIX_TEXT).constants == {"a": 1.0, "b": 0.5}


class TestJetEvaluationVsFiniteDifferences:
    def test_random_definitions_match_plain_evaluation(self):
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            program = random_program(rng, rng.randint(1, 5),
                                     functions=EVAL_SAFE)
            t0 = rng.uniform(-1.0, 1.0)

            def plain(x):
                return eval_scalar(program, {"t": x})

            try:
                probe = [plain(t0 + dt) for dt in (-0.1, -0.05, 0.0, 0.05, 0.1)]
                jet = eval_scalar(program, {"t": Jet1.variable(t0)})
            except DomainError:
                continue
            if isinstance(jet, float):
                continue
            scale = max(1.0, max(abs(c) for c in jet.c))
            if scale > 1e4 or any(abs(p) > 1e4 for p in probe):
                continue
            for order in range(1, 5):
                fd = fd_derivative(plain, t0, order)
                fd_alt = fd_derivative(plain, t0, order,
                                       h=(6e-3 if order <= 2 else 0.05))
                if abs(fd - fd_alt) > 2e-7 * scale:
                    break  # oracle itself not converged for this one
                assert abs(jet.c[order] - fd) <= 1e-6 * scale
            else:
                checked += 1


# every construct of the language: '^' to a positive, a negative, a
# non-integer and a variable exponent and to constants known only when the
# kernel is bound; '/' by a constant and by an expression; unary minus; the
# 12 functions; pi; a constant component
EVERYTHING = """
surface everything
param p in [0.1, 0.9]
param q in [0.1, 0.9]
const c = 1.5
const n = 2
const m = 2.5
x = sin(p)*cos(q) + tan(p/2) - exp(-q)/c + log(p + 1)*sqrt(q + 1) + p^3 \
    + (q + 3)^-2 + (p + 3)^1.5 + 2^p + (p + 3)^q + p^n + (q + 1)^m
y = sinh(p) - cosh(q)/(p + 3) + tanh(p*q) + asin(p/2) + acos(q/2) \
    + atan(p - q) + pi*p + c^2*q + (p + 1)^(c/2) - -q + 1/c
z = c*pi
"""


def _surface(text, **consts):
    """catalog.build of ``text`` under ``consts``.  Its last line, z, is
    parsed on its own: load_definition rejects a call of a non-function,
    whose error the kernels must still raise where they run."""
    head, z = text.rsplit("\nz = ", 1)
    definition = load_definition(head + "\nz = 0\n")
    definition = _copy_with(definition,
                            constants={**definition.constants, **consts})
    return catalog.build(_copy_with(definition, components=(
        *definition.components[:2], parse_text(z))))


def _outcome(fn, u, v):
    """fn(u, v), or the type and message of what it raised."""
    try:
        return fn(u, v)
    except (DiffGeoError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestPositionKernel:
    """The generated kernels equal the Jet2 coefficients (==) and raise what
    the Jet2 evaluation raises: ``kernel`` its first six triples,
    ``kernel3`` all ten."""

    @staticmethod
    def _both(shape, u, v, jets=reference.jet2_triples):
        """(order-2 kernel, order-3 kernel, Jet2 reference) outcomes."""
        want = _outcome(partial(jets, shape), u, v)
        return (_outcome(shape.kernel, u, v), _outcome(shape.kernel3, u, v),
                want[:6] if isinstance(want[0], tuple) else want, want)

    def _check(self, shape, u, v, jets=reference.jet2_triples):
        got2, got3, want2, want3 = self._both(shape, u, v, jets)
        assert got2 == want2
        assert got3 == want3

    @pytest.mark.parametrize("name", [n for n in catalog.names()
                                      if catalog.entry(n).kind == "surface"])
    def test_catalog_equals_jet2(self, name):
        shape = catalog.make(name)
        rng = random.Random(zlib.crc32(name.encode()))
        for u, v in surface_samples(name, shape, rng, 100):
            assert len(shape.kernel3(u, v)) == 10
            self._check(shape, u, v)

    def test_every_construct_equals_jet2(self):
        shape = _surface(EVERYTHING)
        rng = random.Random(zlib.crc32(b"everything"))
        for _ in range(100):
            u, v = rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9)
            self._check(shape, u, v)

    @pytest.mark.parametrize("consts", [{"n": -3.0}, {"n": 0.5}, {"m": 2.0},
                                        {"c": 0.0}],
                             ids=["n=-3", "n=0.5", "m=2", "c=0"])
    def test_run_time_exponents(self, consts):
        # the same generated code binds other values: integer or not,
        # and a zero c that the Jet2 evaluation rejects; an exponent known
        # at run time composes the table of x^p, where jets.power
        # multiplies an integer one out
        shape = _surface(EVERYTHING, **consts)
        for u, v in ((0.3, 0.4), (0.8, 0.15)):
            self._check(shape, u, v, _kernel_rule)

    def test_variable_exponent_with_vanishing_partials(self):
        # (u + 2)^(c*v) with c = 0: the Jet2 path takes the integer power
        shape = _surface("surface s\nparam u in [0, 1]\nparam v in [0, 1]\n"
                         "const c = 0\nx = u\ny = v\nz = (u + 2)^(c*v)\n")
        self._check(shape, 0.3, 0.4)
        assert shape.kernel(0.3, 0.4)[1][2] == 0.0
        assert shape.kernel3(0.3, 0.4)[6][2] == 0.0

    @pytest.mark.parametrize("z, exc, message", [
        ("log(u - 1)", DomainError, "log of non-positive value"),
        ("u/(v - v)", DomainError, "division by zero"),
        ("u/(c - 1)", DomainError, "division by zero"),
        ("1/(c - 1) + u", DomainError, "division by zero"),
        ("(v - v)^-2 + u", DomainError, "zero base with negative exponent"),
        ("sqrt(u - 1)^0.5", DomainError, "sqrt of non-positive value"),
        ("wobble(u)", UnknownIdentifier, "unknown function 'wobble'"),
        ("c(u)", ArityError, "'c' is not a function"),
        ("log(u - 1) / wobble(u)", UnknownIdentifier, "unknown function"),
    ])
    def test_errors_match_jet2(self, z, exc, message):
        shape = _surface(f"surface s\nparam u in [0, 1]\nparam v in [0, 1]\n"
                         f"const c = 1\nx = u\ny = v\nz = {z}\n")
        got2, got3, want2, want3 = self._both(shape, 0.5, 0.25)
        assert got2 == got3 == want2 == want3
        assert got2[0] is exc and message in got2[1]

    def test_third_order_overflow_matches_jet2(self):
        # Jet2._compose cubes a first partial near 1e110, which overflows;
        # order 2 cubes none
        shape = _surface("surface s\nparam u in [0, 1]\nparam v in [0, 1]\n"
                         "x = u\ny = v\nz = 1e-100*sin(1e110*u)\n")
        got2, got3, _, want3 = self._both(shape, 0.3, 0.2)
        assert got3 == want3 and got3[0] is OverflowError
        assert all(map(math.isfinite, sum(got2, ())))

    def test_random_definitions_match_jet2(self):
        rng = random.Random(zlib.crc32(b"random kernels"))
        compared = [0, 0]
        for _ in range(60):
            comps = tuple(random_program(rng, rng.randint(1, 4), ("u", "v"))
                          for _ in range(3))
            shape = catalog.build(ShapeDefinition(
                kind="surface", name="random", constants={},
                params={"u": (-1.0, 1.0), "v": (-1.0, 1.0)},
                components=comps, component_names=("x", "y", "z")))
            for _ in range(4):
                u, v = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
                got2, got3, want2, want3 = self._both(shape, u, v)
                for k, got, want in ((0, got2, want2), (1, got3, want3)):
                    if (isinstance(want[0], tuple) and not all(
                            map(math.isfinite, sum(want, ())))):
                        continue
                    assert got == want
                    compared[k] += 1
        assert min(compared) >= 200

    def test_not_built_by_make_or_eval(self):
        surface = catalog.make("torus")
        p = surface.eval(0.3, 0.4)
        assert all(isinstance(c, float) for c in p)
        assert not {"kernel", "kernel3", "composite"} & set(vars(surface))


class TestPowerRule:
    """'^' in generated code (expr._Recorder.power) branches on no value
    known only at run time: a jet exponent is exp(p log(base)) everywhere,
    and an exponent known only at run time composes the table of x^p,
    which takes any base for an integer p but a zero one with p < 0."""

    BASE = ("surface s\nparam u in [-1, 1]\nparam v in [-1, 1]\n"
            "const n = 3\nx = u\ny = v\n")

    def _shape(self, z, **consts):
        return _surface(self.BASE + f"z = {z}\n", **consts)

    @pytest.mark.parametrize("v", [0.0, -0.0], ids=["+0", "-0"])
    def test_jet_exponent_whose_partials_vanish(self, v):
        # at v = 0 every partial of v*v*v through order 2 vanishes; Jet2
        # sees the third, 6, and takes exp(p log(base)) too
        shape = self._shape("(2+u)^(v*v*v)")
        assert shape.kernel(0.3, v) == reference.jet2_triples(shape, 0.3,
                                                              v)[:6]
        assert shape.kernel3(0.3, v) == reference.jet2_triples(shape, 0.3, v)
        assert shape.kernel3(0.3, v)[9][2] == 6.0 * math.log(2.3)
        # along v = const every partial vanishes: jets.power takes
        # base^0, the kernel exp(0 log(base)), both 1 with zero derivatives
        rows = SurfaceCurve.const_v(shape, v).kernel(0.3)
        assert (repr(shape.composite(rows))
                == repr(reference.jet1_composite(shape, rows))
                == repr(((0.3, 0.0, 1.0), (1.0, 0.0, 0.0))
                        + ((0.0, 0.0, 0.0),) * 3))

    def test_jet_exponent_needs_a_positive_base(self):
        # jets.power gives (u-2)^0 = 1 where the exponent's partials vanish
        shape = self._shape("(u-2)^(v*v*v*v)")
        assert reference.jet2_triples(shape, 0.3, 0.0)[0][2] == 1.0
        for kernel in (shape.kernel, shape.kernel3):
            with pytest.raises(DomainError, match="log of non-positive"):
                kernel(0.3, 0.0)

    def test_run_time_integer_exponent_at_a_negative_base(self):
        shape = self._shape("u^n")
        want = ((-0.5, 0.0, -0.125), (1.0, 0.0, 0.75), (0.0, 1.0, 0.0),
                (0.0, 0.0, -3.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                (0.0, 0.0, 6.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0))
        assert shape.kernel3(-0.5, 0.0) == want
        assert shape.kernel(-0.5, 0.0) == want[:6]
        assert reference.jet2_triples(shape, -0.5, 0.0) == want
        rows = SurfaceCurve.const_v(shape, 0.0).kernel(-0.5)
        assert shape.composite(rows) == reference.jet1_composite(shape, rows)

    def test_run_time_negative_exponent_at_a_zero_base(self):
        shape = self._shape("u^n", n=-3.0)
        for kernel in (shape.kernel, shape.kernel3,
                       partial(reference.jet2_triples, shape)):
            with pytest.raises(DomainError,
                               match="zero base with negative exponent"):
                kernel(0.0, 0.5)


class TestRecordedFunctions:
    """A jet-generic Python function is recorded once as a shape's code;
    one that reads a jet's value cannot be, and says so, naming it."""

    def test_branch_on_a_value_names_the_function(self):
        def bent(u, v):
            return Vec3(u, v, u * u if u.value > 0.0 else -u * u)

        surface = ParametricSurface(bent, (-1.0, 1.0, -1.0, 1.0))
        with pytest.raises(UnrecordableFunction,
                           match=r"^TestRecordedFunctions\.test_branch_on_a_"
                                 r"value_names_the_function\.<locals>\.bent "
                                 r"cannot be recorded: it reads the value "
                                 r"of a jet"):
            surface.kernel
        with pytest.raises(UnrecordableFunction):
            surface.scale

    @pytest.mark.parametrize("fn", [
        lambda t: Vec3(t, t, t if t > 0.0 else -t),
        lambda t: Vec3(t, t, t * math.sin(t)),
        lambda t: Vec3(t, t, t * float(t)),
    ], ids=["comparison", "math", "float"])
    def test_curve_reads_a_value(self, fn):
        kernel = curves.jet_kernel(fn)
        with pytest.raises(UnrecordableFunction, match="<lambda> cannot be "
                                                       "recorded"):
            kernel(0.5)

    def test_domain_check_is_a_read(self):
        arc = load_definition("surfacecurve s\nparam t in [0, 1]\nu = t\n"
                              "v = t*t\n")
        with pytest.raises(UnrecordableFunction,
                           match="^ShapeDefinition.eval cannot be recorded"):
            surfacecurves.jet_kernel(arc.eval)(0.5)
        free = surfacecurves.jet_kernel(partial(arc.eval, check_domain=False))
        assert free(0.5) == reference.jet1_rows(arc.eval, 0.5)


def _curve(text, **consts):
    """catalog.build of the curve ``text`` under ``consts``, its z line
    parsed on its own (see _surface)."""
    head, z = text.rsplit("\nz = ", 1)
    definition = load_definition(head + "\nz = 0\n")
    definition = _copy_with(definition,
                            constants={**definition.constants, **consts})
    return catalog.build(_copy_with(definition, components=(
        *definition.components[:2], parse_text(z))))


# EVERYTHING along a curve: p the parameter, q a function of it
EVERYTHING_CURVE = re.sub(
    r"\bq\b", "(p*p/2 + 0.3)",
    EVERYTHING.replace("surface everything", "curve everything").replace(
        "param q in [0.1, 0.9]\n", ""))


class TestCurveKernel:
    """ParametricCurve.kernel, generated at order 4, equals the Jet1
    coefficients of one evaluation bit for bit (signed zeros and NaN
    included) and raises what that evaluation raises."""

    @staticmethod
    def _check(curve, t, rule=False):
        got = _result(curve.kernel, t)
        if rule:
            assert got == _result(_kernel_rule, curve, t), t
            return got
        fn = partial(curve.definition.eval, check_domain=False)
        assert got == _result(reference.jet1_rows, fn, t), t
        return got

    @pytest.mark.parametrize("name", [n for n in catalog.names()
                                      if catalog.entry(n).kind == "curve"])
    def test_catalog_equals_jet1(self, name):
        curve = catalog.make(name)
        assert curve.kernel.__code__.co_filename == "<position kernel>"
        rng = random.Random(zlib.crc32(name.encode()))
        for _ in range(100):
            assert len(self._check(curve, rng.uniform(*curve.domain))) == 5

    def test_every_construct_equals_jet1(self):
        curve = _curve(EVERYTHING_CURVE)
        rng = random.Random(zlib.crc32(b"everything curve"))
        for _ in range(100):
            self._check(curve, rng.uniform(0.1, 0.9))

    @pytest.mark.parametrize("consts", [{"n": -3.0}, {"n": 0.5}, {"m": 2.0},
                                        {"c": 0.0}, {"n": 0.0}],
                             ids=["n=-3", "n=0.5", "m=2", "c=0", "n=0"])
    def test_run_time_exponents(self, consts):
        curve = _curve(EVERYTHING_CURVE, **consts)
        for t in (0.3, 0.8):
            self._check(curve, t, rule=True)

    @pytest.mark.parametrize("z, exc, message", [
        ("log(t - 1)", DomainError, "log of non-positive value"),
        ("t/(t - t)", DomainError, "division by zero"),
        ("t/(c - 1)", DomainError, "division by zero"),
        ("(t - t)^-2 + t", DomainError, "zero base with negative exponent"),
        ("wobble(t)", UnknownIdentifier, "unknown function 'wobble'"),
        ("c(t)", ArityError, "'c' is not a function"),
        ("1e-100*sin(1e110*t)", OverflowError, "out of range"),
    ])
    def test_errors_match_jet1(self, z, exc, message):
        curve = _curve(f"curve s\nparam t in [0, 1]\nconst c = 1\nx = t\n"
                       f"y = -t\nz = {z}\n")
        got = self._check(curve, 0.5)
        assert got[0] is exc and message in got[1]

    def test_variable_exponent_with_vanishing_partials(self):
        curve = _curve("curve s\nparam t in [0, 1]\nconst c = 0\nx = t\n"
                       "y = t\nz = (t + 2)^(c*t)\n")
        assert self._check(curve, 0.3)[1][2] == repr(0.0)

    def test_random_definitions_match_jet1(self):
        rng = random.Random(zlib.crc32(b"random curve kernels"))
        for _ in range(100):
            comps = tuple(random_program(rng, rng.randint(1, 4), ("t",))
                          for _ in range(3))
            curve = catalog.build(ShapeDefinition(
                kind="curve", name="random", constants={},
                params={"t": (-1.0, 1.0)}, components=comps,
                component_names=("x", "y", "z")))
            for _ in range(4):
                self._check(curve, rng.uniform(-1.0, 1.0))

    def test_not_built_by_make_or_eval(self):
        curve = catalog.make("helix")
        curve.eval(0.3)
        assert "kernel" not in vars(curve)


def _canon(value):
    """``value`` as a comparable key: floats by repr (NaN equals NaN, -0.0
    differs from 0.0), jets by kind and coefficients, vectors and tuples
    component by component."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (Jet1, Jet2)):
        return type(value).__name__, tuple(map(repr, value.c))
    if hasattr(value, "z"):
        value = (value.x, value.y, value.z)
    return tuple(map(_canon, value))


def _result(fn, *args):
    """The canonical value of fn(*args), or the type and message of what it
    raised."""
    try:
        return _canon(fn(*args))
    except (DiffGeoError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _reference_shape(definition, *args):
    """ShapeDefinition.eval's contract through reference_eval: every
    component in order, a float one lifted to the first argument's jet."""
    env = dict(definition.constants)
    env.update(zip(definition.params, args))
    vals = [reference_eval(c, env) for c in definition.components]
    if not isinstance(args[0], float):
        vals = [args[0] * 0.0 + v if isinstance(v, float) else v for v in vals]
    return vals


def _kernel_rule(shape, *args):
    """The coefficient rows of ``shape``'s definition at the jet variables
    t, or u and v, from the stack walk with '^' taken by the rule of
    generated code (conftest.rule_evaluator): what its kernels compute."""
    variables = ((Jet1.variable,) if len(args) == 1
                 else (Jet2.variable_u, Jet2.variable_v))
    return reference.coefficients(rule_evaluator(shape.definition)(*(
        lift(a) for lift, a in zip(variables, args))))


def _arguments(definition, rng, point):
    """Float, Jet1 and (surfaces) Jet2 arguments at ``point``: floats, the
    variable lifts, and a general Jet1 such as a surface curve composes."""
    general = tuple(Jet1(x, *(rng.uniform(-1.0, 1.0) for _ in range(4)))
                    for x in point)
    if len(point) == 1:
        return [point, (Jet1.variable(point[0]),), general]
    u, v = point
    return [point, (Jet2.variable_u(u), Jet2.variable_v(v)), general]


class TestOrderZero:
    """ShapeDefinition.eval, eval_scalar and eval_literal, which run the
    generated order-0 code, equal the reference walk of the same programs:
    values by repr (signed zeros and NaN included) and errors by type and
    message."""

    def _check(self, definition, rng, points):
        compared = 0
        for point in points:
            for args in _arguments(definition, rng, point):
                want = _result(_reference_shape, definition, *args)
                got = _result(lambda *a: definition.eval(
                    *a, check_domain=False), *args)
                assert got == want, (to_text(definition.components[0]), args)
                env = dict(definition.constants)
                env.update(zip(definition.params, args))
                for c in definition.components:
                    assert (_result(eval_scalar, c, env)
                            == _result(reference_eval, c, env))
                compared += 1
        return compared

    @pytest.mark.parametrize("name", catalog.names())
    def test_catalog_templates(self, name):
        definition, _ = catalog.entry(name).definition()
        rng = random.Random(zlib.crc32(b"order 0 " + name.encode()))
        rect = catalog.entry(name).sample_domain or sum(
            definition.params.values(), ())
        points = [tuple(rng.uniform(rect[2 * k], rect[2 * k + 1])
                        for k in range(len(definition.params)))
                  for _ in range(4)]
        assert self._check(definition, rng, points) == 12

    @pytest.mark.parametrize("consts", [{}, {"n": -3.0}, {"n": 0.5},
                                        {"m": 2.0}, {"c": 0.0}],
                             ids=["as-written", "n=-3", "n=0.5", "m=2",
                                  "c=0"])
    def test_every_construct(self, consts):
        definition = load_definition(EVERYTHING)
        definition = _copy_with(definition,
                                constants={**definition.constants, **consts})
        rng = random.Random(zlib.crc32(b"order 0 everything"))
        points = [(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
                  for _ in range(5)]
        self._check(definition, rng, points)

    @pytest.mark.parametrize("z", [
        "log(u - 1)", "u/(v - v)", "u/(c - 1)", "1/(c - 1) + u",
        "(v - v)^-2 + u", "sqrt(u - 1)^0.5", "wobble(u)", "c(u)",
        "log(u - 1) / wobble(u)", "wobble(log(u - 1))", "u(v)", "pi(u)",
        "q + u", "u - 0", "0 - u", "-0", "0*u - 0", "u^0", "0^u", "u^v",
        "exp(1000*u)"])
    def test_errors_and_signed_zeros(self, z):
        definition = ShapeDefinition(
            kind="surface", name="s", params={"u": (0.0, 1.0), "v": (0.0, 1.0)},
            constants={"c": 1.0}, components=tuple(map(parse_text,
                                                       ("u", "v", z))),
            component_names=("x", "y", "z"))
        rng = random.Random(zlib.crc32(z.encode()))
        self._check(definition, rng, [(0.5, 0.25), (0.0, 0.0), (1.0, 0.75)])

    def test_random_definitions(self):
        rng = random.Random(zlib.crc32(b"order 0 random"))
        for _ in range(60):
            comps = tuple(random_program(rng, rng.randint(1, 4), ("u", "v"))
                          for _ in range(3))
            definition = ShapeDefinition(
                kind="surface", name="random", constants={},
                params={"u": (-1.0, 1.0), "v": (-1.0, 1.0)},
                components=comps, component_names=("x", "y", "z"))
            points = [(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
                      for _ in range(4)]
            self._check(definition, rng, points)

    @pytest.mark.parametrize("text", NUMBERS)
    def test_eval_literal(self, text):
        got = _result(eval_literal, text)
        want = _result(lambda: float(reference_eval(parse_text(text), {})))
        if isinstance(want, tuple) and want[0] is UnknownIdentifier:
            assert got == (UnknownIdentifier, "a number may not reference "
                           + want[1].split()[-1])
        else:
            assert got == want


# each construct nested k deep: k calls, k parentheses, k minus signs, k
# carets, k pluses; a call, minus, caret or plus adds a level
NESTED = {
    "calls": lambda k: "sin(" * k + "u" + ")" * k,
    "parentheses": lambda k: "(" * k + "u" + ")" * k,
    "minus": lambda k: "-" * k + "u",
    "carets": lambda k: "^".join(["u"] * (k + 1)),
    "sum": lambda k: "+".join(["u"] * (k + 1)),
}


class TestDepthLimit:
    """Text nested up to MAX_DEPTH parses and evaluates at orders 0, 2 and 3
    under the test runner's stack; one level more is a ParseError."""

    @staticmethod
    def _definition(z):
        return load_definition("surface s\nparam u in [0, 1]\n"
                               f"param v in [0, 1]\nx = u\ny = v\nz = {z}\n")

    @pytest.mark.parametrize("construct", NESTED)
    def test_deepest_accepted_evaluates(self, construct):
        k = MAX_DEPTH if construct == "parentheses" else MAX_DEPTH - 1
        z = NESTED[construct](k)
        definition = self._definition(z)
        shape = catalog.build(definition)
        assert (_canon(definition.eval(0.3, 0.4))
                == _canon(_reference_shape(definition, 0.3, 0.4)))
        jet = shape.evaluator(Jet2.variable_u(0.3), Jet2.variable_v(0.4)).z.c
        assert shape.kernel(0.3, 0.4)[1][2] == jet[1]
        assert shape.kernel3(0.3, 0.4)[6][2] == jet[6]
        text = to_text(definition.components[2])
        assert to_text(parse_text(text)) == text

    @pytest.mark.parametrize("construct", NESTED)
    def test_one_level_more_is_a_parse_error(self, construct):
        k = MAX_DEPTH + 1 if construct == "parentheses" else MAX_DEPTH
        with pytest.raises(ParseError, match=rf"^line 6: expected (an "
                           rf"expression at most {MAX_DEPTH} levels deep|at "
                           rf"most {MAX_DEPTH} nested parentheses)"):
            self._definition(NESTED[construct](k))

    @pytest.mark.parametrize("construct", ["sum", "calls", "minus",
                                           "carets"])
    def test_deepest_trees_compare_and_hash(self, construct):
        """The program of the deepest text is flat: equal texts give equal
        programs, which hash alike, and moving a name changes it."""
        text = NESTED[construct](MAX_DEPTH - 1)
        program, again = parse_text(text), parse_text(text)
        assert program is not again and program == again
        assert hash(program) == hash(again) and {program: 1}[again] == 1
        for other in (text.replace("u", "v", 1),
                      "v".join(text.rsplit("u", 1))):
            assert program != parse_text(other)
        # the named constant is its value, however deep
        deep = text.replace("u", "pi", 1)
        assert parse_text(deep) == parse_text(deep.replace("pi",
                                                           repr(math.pi)))

    @pytest.mark.parametrize("construct", NESTED)
    def test_deepest_trees_print(self, construct):
        """to_text prints the deepest programs with its stack, and the text
        parses back to the program."""
        k = MAX_DEPTH if construct == "parentheses" else MAX_DEPTH - 1
        text = NESTED[construct](k)
        program = parse_text(text)
        out = to_text(program)
        assert out.count("(") == out.count(")")
        assert out.count("u") == text.count("u")
        assert parse_text(out) == program
        text = "+".join(["u"] * MAX_DEPTH)
        assert to_text(parse_text(text)) == text

    @pytest.mark.parametrize("construct", NESTED)
    def test_deepest_trees_pickle(self, construct):
        k = MAX_DEPTH if construct == "parentheses" else MAX_DEPTH - 1
        program = parse_text(NESTED[construct](k))
        again = pickle.loads(pickle.dumps(program))
        assert again == program and repr(again) == repr(program)
        assert copy.deepcopy(program) == program

    @pytest.mark.parametrize("text", ["sin(" * 130 + "u" + ")" * 130,
                                      "+".join(["u"] * 400)],
                             ids=["sin-130", "sum-400"])
    def test_long_expressions_still_evaluate(self, text):
        program = parse_text(text)
        assert eval_scalar(program, {"u": 0.5}) == reference_eval(
            program, {"u": 0.5})

    @pytest.mark.parametrize("text", ["sin(" * 5000 + "u" + ")" * 5000,
                                      "(" * 5000 + "1" + ")" * 5000,
                                      "-" * 5000 + "1", "2^" * 5000 + "1",
                                      "+".join(["u"] * 5000)],
                             ids=["calls", "parentheses", "minus", "carets",
                                  "sum"])
    def test_far_too_deep(self, text):
        with pytest.raises(ParseError):
            parse_text(text)
