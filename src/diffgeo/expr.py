"""Text format for parametric shapes and its expression language.

Grammar (comments run from ``#`` to end of line)::

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := '-' unary | power
    power := atom ('^' unary)?
    atom  := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

``^`` is right-associative and binds tighter than unary minus, so ``-2^2``
is ``-(2^2) = -4``.  Function names are the reserved single-argument set
from :mod:`diffgeo.jets`; ``pi`` is the one builtin constant.  Identifiers
are case-sensitive.

Definition files are line oriented::

    curve helix              # or: surface <name>
    param t in [0, 6.283185307179586]
    const a = 1
    const b = 0.5
    x = a*cos(t)
    y = a*sin(t)
    z = b*t

Curves declare one parameter, surfaces two (in order u, v), and
``surfacecurve`` definitions one, with components u and v.  Evaluation
lifts the parameters into jets, so every derivative a caller reads is an
exact Taylor coefficient of the definition.  ``loop`` files (boundary arcs
for Gauss-Bonnet) are described at :func:`_load_loop`.  Errors in either
kind of file name the line at fault.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property

from . import jets
from .errors import (ArityError, DefinitionError, DiffGeoError, DomainError,
                     LexError, ParseError, UnknownIdentifier)
from .jets import FUNCTIONS
from .vectors import Vec3

__all__ = [
    "Token", "tokenize", "parse", "parse_text", "to_text",
    "Num", "Var", "Const", "Neg", "BinOp", "Call",
    "ShapeDefinition", "LoopDefinition", "load_definition", "eval_scalar",
    "compile_expr", "eval_literal",
]

_KEYWORDS = {"curve", "surface", "surfacecurve", "param", "const", "in"}
_CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Token:
    kind: str      # number | identifier | operator | paren | keyword
    lexeme: str
    position: int  # byte offset into the source text


def tokenize(text):
    """Token stream for ``text``; raises LexError on any unknown character."""
    out = []
    data = text.encode("utf-8").decode("utf-8")  # reject invalid input early
    i, n = 0, len(data)
    while i < n:
        ch = data[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and data[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and data[i + 1].isdigit()):
            j = i
            while j < n and (data[j].isdigit() or data[j] == "."):
                j += 1
            if j < n and data[j] in "eE":
                k = j + 1
                if k < n and data[k] in "+-":
                    k += 1
                if k < n and data[k].isdigit():
                    j = k
                    while j < n and data[j].isdigit():
                        j += 1
            out.append(Token("number", data[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (data[j].isalnum() or data[j] == "_"):
                j += 1
            word = data[i:j]
            kind = "keyword" if word in _KEYWORDS else "identifier"
            out.append(Token(kind, word, i))
            i = j
            continue
        if ch in "+-*/^=,":
            out.append(Token("operator", ch, i))
            i += 1
            continue
        if ch in "()[]":
            out.append(Token("paren", ch, i))
            i += 1
            continue
        raise LexError(i, ch)
    return out


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str  # builtin named constant (pi)


@dataclass(frozen=True)
class Neg:
    arg: object


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


class _Parser:
    def __init__(self, tokens, end_pos):
        self.toks = tokens
        self.i = 0
        self.end_pos = end_pos

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.i += 1
        return t

    def fail(self, expected):
        t = self.peek()
        pos = t.position if t is not None else self.end_pos
        found = t.lexeme if t is not None else "end of input"
        raise ParseError(pos, expected, found)

    def expect_op(self, lexeme):
        t = self.peek()
        if t is None or t.lexeme != lexeme:
            self.fail(f"'{lexeme}'")
        return self.next()

    def left_assoc(self, ops, operand):
        node = operand()
        while True:
            t = self.peek()
            if t is None or t.kind != "operator" or t.lexeme not in ops:
                return node
            self.next()
            node = BinOp(t.lexeme, node, operand())

    def expr(self):
        return self.left_assoc("+-", self.term)

    def term(self):
        return self.left_assoc("*/", self.unary)

    def unary(self):
        t = self.peek()
        if t is not None and t.kind == "operator" and t.lexeme == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self):
        node = self.atom()
        t = self.peek()
        if t is not None and t.kind == "operator" and t.lexeme == "^":
            self.next()
            node = BinOp("^", node, self.unary())
        return node

    def atom(self):
        t = self.peek()
        if t is None:
            self.fail("an expression")
        if t.kind == "number":
            self.next()
            return Num(float(t.lexeme))
        if t.kind == "identifier":
            self.next()
            nxt = self.peek()
            if nxt is not None and nxt.lexeme == "(":
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return Call(t.lexeme, arg)
            if t.lexeme in _CONSTANTS:
                return Const(t.lexeme)
            return Var(t.lexeme)
        if t.lexeme == "(":
            self.next()
            node = self.expr()
            self.expect_op(")")
            return node
        self.fail("an expression")


def parse(tokens, end_pos=0):
    """Parse a full token stream into an Expr tree."""
    p = _Parser(list(tokens), end_pos)
    node = p.expr()
    left = p.peek()
    if left is not None:
        raise ParseError(left.position, "end of expression", left.lexeme)
    return node


def parse_text(text):
    toks = tokenize(text)
    return parse(toks, len(text))


# --------------------------------------------------------------------------
# pretty printing (round-trips through parse into a structurally equal tree)
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_text(node):
    def go(n, parent_prec, is_right):
        if isinstance(n, Num):
            return repr(n.value) if n.value != int(n.value) else str(int(n.value))
        if isinstance(n, (Var, Const)):
            return n.name
        if isinstance(n, Call):
            return f"{n.fn}({go(n.arg, 0, False)})"
        if isinstance(n, Neg):
            body = f"-{go(n.arg, _PREC['neg'], False)}"
            return f"({body})" if parent_prec > _PREC["neg"] else body
        prec = _PREC[n.op]
        # '-' and '/' are left-associative; '^' is right-associative
        lp = go(n.left, prec if n.op != "^" else prec + 1, False)
        rp = go(n.right, prec + (1 if n.op in "+-*/" else 0), True)
        body = f"{lp}{n.op}{rp}"
        need = parent_prec > prec or (parent_prec == prec and is_right)
        return f"({body})" if need else body

    return go(node, 0, False)


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def eval_scalar(node, env):
    """Evaluate ``node`` once with ``env`` mapping identifier -> float or jet.

    A tree evaluated more than once is compiled once with
    :func:`compile_expr` instead."""
    return compile_expr(node)(env)


def _div(l, r):
    if r == 0.0:
        raise DomainError("division by zero")
    return l / r


def compile_expr(node):
    """Compile an Expr tree into a closure over an env dict (identifier ->
    float or jet), so that repeated evaluation pays no per-node dispatch;
    shape evaluators sit inside ODE right-hand sides."""
    if isinstance(node, Num):
        c = node.value
        return lambda env: c
    if isinstance(node, Const):
        c = _CONSTANTS[node.name]
        return lambda env: c
    if isinstance(node, Var):
        name = node.name

        def ref(env, name=name):
            try:
                return env[name]
            except KeyError:
                raise UnknownIdentifier(
                    f"undeclared identifier {name!r}") from None

        return ref
    if isinstance(node, Neg):
        arg = compile_expr(node.arg)
        return lambda env: -arg(env)
    if isinstance(node, Call):
        fn = FUNCTIONS.get(node.fn)
        if fn is None:
            name = node.fn

            def bad(env, name=name):
                if name in env or name in _CONSTANTS:
                    raise ArityError(f"{name!r} is not a function")
                raise UnknownIdentifier(f"unknown function {name!r}")

            return bad
        arg = compile_expr(node.arg)
        return lambda env: fn(arg(env))
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    op = node.op
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    if op == "/":
        def div(env):
            r = right(env)
            if isinstance(r, (int, float)):
                return _div(left(env), r)
            return left(env) / r

        return div
    return lambda env: jets.power(left(env), right(env))


def eval_literal(text):
    """A number written as an expression over numbers and pi, e.g. ``pi/6``."""
    node = parse_text(text)
    free = _free_names(node, set())
    if free:
        raise UnknownIdentifier(
            f"a number may not reference {', '.join(map(repr, sorted(free)))}")
    return float(compile_expr(node)({}))


def _free_names(node, acc):
    if isinstance(node, Var):
        acc.add(node.name)
    elif isinstance(node, Neg):
        _free_names(node.arg, acc)
    elif isinstance(node, BinOp):
        _free_names(node.left, acc)
        _free_names(node.right, acc)
    elif isinstance(node, Call):
        _free_names(node.arg, acc)
    return acc


# --------------------------------------------------------------------------
# shape definitions
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ShapeDefinition:
    """A parsed curve/surface/surface-curve definition.

    ``kind`` is 'curve', 'surface' or 'surfacecurve'; ``params`` maps each
    parameter name to its closed domain interval; ``components`` holds the
    Expr trees in output order (x,y,z -- or u,v for surface curves).
    """

    kind: str
    name: str
    params: dict
    constants: dict
    components: tuple
    component_names: tuple

    @cached_property
    def compiled(self):
        return tuple(compile_expr(c) for c in self.components)

    def eval(self, *args, check_domain=True):
        """Evaluate at jet (or float) parameter values, in declaration order.

        With ``check_domain``, out-of-domain value coefficients raise
        DomainError.  Kernel wrappers evaluate with ``check_domain=False``
        (the domain is sampling metadata; shooting solvers probe beyond
        it)."""
        names = list(self.params)
        if len(args) != len(names):
            raise ArityError(
                f"{self.kind} takes {len(names)} parameter(s), got {len(args)}")
        env = dict(self.constants)
        for name, val in zip(names, args):
            lo, hi = self.params[name]
            v0 = val.value if hasattr(val, "value") else float(val)
            if check_domain and not lo <= v0 <= hi:
                raise DomainError(
                    f"parameter {name}={v0!r} outside [{lo!r}, {hi!r}]")
            env[name] = val
        seed = env[names[0]]
        vals = []
        for fn in self.compiled:
            out = fn(env)
            if isinstance(out, (int, float)) and not isinstance(seed, (int, float)):
                out = seed * 0.0 + out  # constant component lifted to jet kind
            vals.append(out)
        if len(vals) == 3:
            return Vec3(*vals)
        return tuple(vals)


@dataclass(frozen=True)
class LoopDefinition:
    """A parsed loop file: the boundary arcs in order (each a
    'surfacecurve' ShapeDefinition), the exterior angle after each arc
    (None = compute it from the tangents) and the parameter rectangles
    (u0, u1, v0, v1) that make up the enclosed region."""

    name: str
    arcs: tuple
    corners: tuple
    regions: tuple
    kind = "loop"


_PARAM_COUNT = {"curve": 1, "surface": 2, "surfacecurve": 1}


@contextmanager
def _at_line(lineno):
    """Prefix the message of any error raised in the block with the line."""
    try:
        yield
    except DiffGeoError as exc:
        exc.args = (f"line {lineno}: {exc}",)
        raise


def load_definition(text):
    """Parse definition-file text into a validated ShapeDefinition, or a
    LoopDefinition for a 'loop' file.  Errors name the line at fault."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise DefinitionError("empty definition")
    lineno, line = lines[0]
    kind, name = _split_head(line)
    if kind == "loop":
        return _load_loop(name, lineno, lines[1:])
    if kind not in _PARAM_COUNT:
        raise DefinitionError(
            f"line {lineno}: definition must start with 'curve <name>', "
            "'surface <name>', 'surfacecurve <name>' or 'loop <name>'")
    return _load_shape(kind, name, lineno, lines[1:])


def _split_head(line):
    head = line.split(None, 1)[0]
    return head, line[len(head):].strip()


def _load_shape(kind, name, header, lines):
    wanted = ("u", "v") if kind == "surfacecurve" else ("x", "y", "z")
    params, constants, comps, comp_line = {}, {}, {}, {}
    for lineno, line in lines:
        head, rest = _split_head(line)
        with _at_line(lineno):
            if head in ("param", "const"):
                new, value = _param(rest) if head == "param" else _const(rest)
                if new in params or new in constants:
                    raise DefinitionError(f"duplicate name {new!r}")
                if new in FUNCTIONS or new in _CONSTANTS:
                    raise DefinitionError(f"{new!r} is a reserved word")
                (params if head == "param" else constants)[new] = value
            elif "=" in line:
                cname, body = line.split("=", 1)
                cname = cname.strip()
                if cname not in wanted:
                    raise DefinitionError(
                        f"unexpected component {cname!r}; a {kind} has "
                        f"{', '.join(wanted)}")
                if cname in comps:
                    raise DefinitionError(f"duplicate component {cname!r}")
                comps[cname] = parse_text(body)
                comp_line[cname] = lineno
            else:
                raise DefinitionError(f"unrecognized line {line!r}")

    with _at_line(header):
        if len(params) != _PARAM_COUNT[kind]:
            raise DefinitionError(
                f"a {kind} needs exactly {_PARAM_COUNT[kind]} parameter(s), "
                f"got {len(params)}")
        missing = [c for c in wanted if c not in comps]
        if missing:
            raise DefinitionError(f"missing component(s): {', '.join(missing)}")
    declared = set(params) | set(constants)
    for cname in wanted:
        for free in sorted(_free_names(comps[cname], set())):
            if free not in declared:
                raise UnknownIdentifier(
                    f"line {comp_line[cname]}: component {cname!r} "
                    f"references undeclared identifier {free!r}")

    return ShapeDefinition(
        kind=kind, name=name, params=params, constants=constants,
        components=tuple(comps[c] for c in wanted), component_names=wanted)


def _param(text):
    """'<id> in [a, b]' -> (id, (a, b))."""
    if " in " not in text:
        raise DefinitionError("expected '<id> in [a, b]'")
    pname, dom = text.split(" in ", 1)
    dom = dom.strip()
    if not (dom.startswith("[") and dom.endswith("]") and "," in dom):
        raise DefinitionError("domain must be '[a, b]'")
    lo, hi = (eval_literal(x) for x in dom[1:-1].split(",", 1))
    if not lo < hi:
        raise DefinitionError(f"empty domain [{lo}, {hi}]")
    return pname.strip(), (lo, hi)


def _const(text):
    """'<id> = <number>' -> (id, number)."""
    if "=" not in text:
        raise DefinitionError("expected '<id> = <number>'")
    cname, value = text.split("=", 1)
    return cname.strip(), eval_literal(value)


def _load_loop(name, header, lines):
    """Loop files: 'region u0 u1 v0 v1' lines, and per arc an
    'arc <id> in [a, b]' line, its 'u =' and 'v =' lines and an optional
    'corner <angle>|auto' line.  Each arc is read as a 'surfacecurve'
    definition whose parameter line is the arc line."""
    regions, blocks, corners = [], [], []
    for lineno, line in lines:
        head, rest = _split_head(line)
        with _at_line(lineno):
            if head == "region":
                vals = tuple(eval_literal(x) for x in rest.split())
                if len(vals) != 4:
                    raise DefinitionError("region line needs u0 u1 v0 v1")
                regions.append(vals)
            elif head == "arc":
                blocks.append((lineno, [(lineno, "param " + rest)]))
                corners.append(None)
            elif not blocks:
                raise DefinitionError(f"{head!r} line before the first arc")
            elif head == "corner":
                corners[-1] = None if rest == "auto" else eval_literal(rest)
            else:
                blocks[-1][1].append((lineno, line))
    with _at_line(header):
        if not blocks:
            raise DefinitionError("loop needs at least one arc")
        if not regions:
            raise DefinitionError("loop needs at least one region line")
    return LoopDefinition(
        name=name, regions=tuple(regions), corners=tuple(corners),
        arcs=tuple(_load_shape("surfacecurve", name, at, block)
                   for at, block in blocks))
