"""Tokenizer, parser, pretty printer and shape-definition loading."""

import math
import random

import pytest

from diffgeo.errors import (ArityError, DiffGeoError, DomainError, LexError,
                            ParseError, UnknownIdentifier)
from diffgeo.expr import (eval_scalar, load_definition, parse_text,
                          to_text, tokenize)
from diffgeo.jets import Jet1, Jet2

from conftest import EVAL_SAFE, fd_derivative, random_tree

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

    def test_roundtrip_thousand_random_trees(self):
        rng = random.Random(2024)
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(1, 6))
            assert parse_text(to_text(tree)) == tree


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
    ], ids=["param-domain", "unclosed-call", "undeclared", "const-name",
            "missing-component", "arc-domain", "arc-unknown-key",
            "arc-missing-component", "region-count", "before-arc",
            "no-region"])
    def test_message_names_the_line(self, text, message):
        with pytest.raises(DiffGeoError) as exc:
            load_definition(text)
        assert str(exc.value).startswith(message)


class TestJetEvaluationVsFiniteDifferences:
    def test_random_definitions_match_plain_evaluation(self):
        rng = random.Random(99)
        checked = 0
        while checked < 100:
            tree = random_tree(rng, rng.randint(1, 5), functions=EVAL_SAFE)
            t0 = rng.uniform(-1.0, 1.0)

            def plain(x):
                return eval_scalar(tree, {"t": x})

            try:
                probe = [plain(t0 + dt) for dt in (-0.1, -0.05, 0.0, 0.05, 0.1)]
                jet = eval_scalar(tree, {"t": Jet1.variable(t0)})
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
                    break  # oracle itself not converged for this tree
                assert abs(jet.c[order] - fd) <= 1e-6 * scale
            else:
                checked += 1
