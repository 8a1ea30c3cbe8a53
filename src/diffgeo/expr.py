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
are case-sensitive.  Expressions nest at most ``MAX_DEPTH`` deep.  The
parser writes an expression's program (see :func:`parse`) as it reads it,
the postfix code that every evaluator runs and :func:`to_text` prints.

Definition files are line oriented::

    curve helix              # or: surface <name>
    param t in [0, 6.283185307179586]
    const a = 1
    const b = 0.5
    x = a*cos(t)
    y = a*sin(t)
    z = b*t

Curves declare one parameter, surfaces two (in order u, v), and
``surfacecurve`` definitions one, with components u and v.

All generated code comes from one recorder: the jet arithmetic, run once
over symbolic terms, is recorded as single-assignment records, which one
printer prunes, folds and prints once, and one cache keeps per template,
formulas and order.  :func:`position_kernel` makes straight-line code of a
definition: at order 0 for float or jet parameters, for a surface's
partials through order 2 or 3 over floats, for a curve's derivatives
through order 4 over floats, and at order 4 over jet parameters (the rows
of their Taylor coefficients) for the composite r(u(t), v(t)) along a
surface curve.  Order 4 keeps Jet1's zeros, so it equals Jet1 bit for bit;
orders 2 and 3 leave known zeros out, so they equal Jet2 by ``==``, but a
zero may carry the other sign; '^' keeps one rule of its own
(``_Recorder.power``).  A shape built from a jet-generic Python function
(:class:`Recording`) is recorded the same way, its function run once on
recorded jets, so every shape is evaluated through this code alone.
:func:`taped` records jet-generic formulas over a position,
:func:`jet_program` Jet1 arithmetic over float arguments, and
:func:`surface_program` a consumer of a surface kernel after the kernel's
own records; an ODE field's program carries its fused Dormand-Prince
attempt.
A parsed definition is immutable and :func:`load_definition` shares it
per text, so a text is parsed once however many shapes are built from it.
``loop`` files (boundary arcs for Gauss-Bonnet) are described at
:func:`_load_loop`.  Errors in either kind of file name the line at fault;
an undeclared name and a call of anything but a function are such errors.
"""

import collections
import math
from contextlib import contextmanager
from functools import cached_property, lru_cache
from operator import add, mul, neg
from types import FunctionType, MappingProxyType

from . import jets, ode
from .errors import (ArityError, DefinitionError, DiffGeoError, DomainError,
                     LexError, ParseError, UnknownIdentifier,
                     UnrecordableFunction)
from .jets import FUNCTIONS
from .records import Frozen, _set
from .vectors import Vec3

__all__ = [
    "Token", "tokenize", "parse", "parse_text", "to_text",
    "ShapeDefinition", "LoopDefinition", "load_definition", "eval_scalar",
    "eval_literal", "scalar_function", "position_kernel", "taped",
    "Recording", "recorded",
]

_KEYWORDS = {"curve", "surface", "surfacecurve", "param", "const", "in"}
_CONSTANTS = {"pi": math.pi}


class Token(Frozen):
    """``kind`` is number, identifier, operator, paren or keyword;
    ``position`` is the byte offset into the source text."""

    __slots__ = _fields = ("kind", "lexeme", "position")

    def __init__(self, kind, lexeme, position):
        _set(self, "kind", kind)
        _set(self, "lexeme", lexeme)
        _set(self, "position", position)


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
# programs
# --------------------------------------------------------------------------

# The deepest expression the parser accepts: parentheses, calls, minus signs
# and carets open at once (each two stack frames at most) and levels (a sum
# of n terms has n), so what parses fits the recursion limit.
MAX_DEPTH = 400


class _Parser:
    """Recursive descent over the grammar above, writing the program to
    ``out`` as it reads: ``expr`` reads a sum of products in a loop and
    ``operand`` the rest, atoms included, so a level of parentheses costs
    two frames.  Both return the levels of what they read."""

    def __init__(self, tokens, end_pos):
        self.toks, self.i, self.end_pos, self.out = tokens, 0, end_pos, []

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def fail(self, expected):
        t = self.peek()
        if t is None:
            raise ParseError(self.end_pos, expected, "end of input")
        raise ParseError(t.position, expected, t.lexeme)

    def take(self, lexemes):
        """The next token, consumed, if its lexeme is one of ``lexemes``."""
        t = self.peek()
        if t is not None and t.lexeme in lexemes:
            self.i += 1
            return t
        return None

    def up(self, token, levels, start, mid=None):
        """Write the operator or call ``token`` over the code from
        ``start`` (its operands split at ``mid``) of ``levels`` levels, and
        return its levels; ``token`` is blamed past MAX_DEPTH."""
        if levels == MAX_DEPTH:
            raise ParseError(token.position, f"an expression at most "
                             f"{MAX_DEPTH} levels deep", token.lexeme)
        out, name = self.out, token.lexeme
        if name == "/":
            out[start:] = out[mid:] + out[start:mid]
        if token.kind != "identifier":
            out.append(("neg", None) if mid is None else (name, None))
        elif name in FUNCTIONS:
            out.append(("call", name))
        else:
            out[start:] = [("fail", name)]
        return levels + 1

    def expr(self, nesting=0):
        """term (('+'|'-') term)* with term := unary (('*'|'/') unary)*."""
        start, total, op = len(self.out), None, None
        while True:
            term = len(self.out)
            levels = self.operand(nesting)
            while (t := self.take("*/")) is not None:
                mid = len(self.out)
                levels = self.up(t, max(levels, self.operand(nesting)),
                                 term, mid)
            if op is not None:
                levels = self.up(op, max(total, levels), start, term)
            total, op = levels, self.take("+-")
            if op is None:
                return total

    def operand(self, nesting):
        """unary := '-' unary | power;  power := atom ('^' unary)?"""
        if nesting > MAX_DEPTH:
            self.fail(f"at most {MAX_DEPTH} nested parentheses, calls, minus "
                      "signs and carets")
        start = len(self.out)
        if (t := self.take("-")) is not None:
            return self.up(t, self.operand(nesting + 1), start)
        t = self.peek()
        if t is None or not (t.kind in ("number", "identifier")
                             or t.lexeme == "("):
            self.fail("an expression")
        self.i += 1
        levels = 1
        if t.kind == "number":
            self.out.append(("num", float(t.lexeme)))
        elif t.kind == "identifier" and self.take("(") is None:
            self.out.append(("num", _CONSTANTS[t.lexeme])
                            if t.lexeme in _CONSTANTS else ("var", t.lexeme))
        else:       # a parenthesized expression or a call's argument
            levels = self.expr(nesting + 1)
            if self.take(")") is None:
                self.fail("')'")
            if t.kind == "identifier":
                levels = self.up(t, levels, start)
        if (t := self.take("^")) is not None:
            mid = len(self.out)
            return self.up(t, max(levels, self.operand(nesting + 1)),
                           start, mid)
        return levels


def parse(tokens, end_pos=0):
    """The program of a full token stream: flat postfix code in evaluation
    order, run by _Recorder and hashed by the generated-code cache without
    recursion.  Its (op, arg) pairs are ("num", value) (``pi`` is its
    value), ("var", name), and ("neg", None), ("call", function) or (op,
    None) for + - * / ^ after the operands, a divisor before its dividend;
    a call of a non-function is one ("fail", name)."""
    p = _Parser(list(tokens), end_pos)
    p.expr()
    left = p.peek()
    if left is not None:
        raise ParseError(left.position, "end of expression", left.lexeme)
    return tuple(p.out)


def parse_text(text):
    return parse(tokenize(text), len(text))


# --------------------------------------------------------------------------
# pretty printing (round-trips through parse into an equal program)
# --------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _operand(item, outer, right=False):
    """The text of the operand ``item`` (text, op) under an operator of
    precedence ``outer``, in parentheses where it would bind otherwise."""
    text, op = item
    prec = _PREC.get(op, 5)
    if outer > prec or (outer == prec and right and op != "neg"):
        return f"({text})"
    return text


def to_text(program):
    """Text that parses back to ``program``, printed with a stack.  A
    program that holds a 'fail' op raises ValueError: the argument of that
    call is not in the program, and no loader accepts the call."""
    stack = []      # (text, op) of each operand
    for op, arg in program:
        if op == "num" and math.isinf(arg):     # parsed back as inf
            text = "-1e400" if arg < 0 else "1e400"
        elif op == "num":
            text = repr(arg) if arg != int(arg) else str(int(arg))
        elif op == "var":
            text = arg
        elif op == "fail":
            raise ValueError(f"cannot print the call of {arg!r}, which is "
                             "not a function: the program keeps no argument")
        elif op == "call":
            text = f"{arg}({stack.pop()[0]})"
        elif op == "neg":
            text = "-" + _operand(stack.pop(), _PREC["neg"])
        else:
            second, first = stack.pop(), stack.pop()
            left, right = (second, first) if op == "/" else (first, second)
            prec, caret = _PREC[op], op == "^"
            text = (_operand(left, prec + caret) + op
                    + _operand(right, prec + (not caret), not caret))
        stack.append((text, op))
    return stack.pop()[0]


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

def eval_scalar(program, env):
    """Evaluate ``program`` once with ``env`` mapping identifier -> float
    or jet, through the order-0 code that :func:`position_kernel` binds."""
    return _GENERATED[((program,), tuple(env), ()), _KERNEL, 0](
        *env.values())[0][0]


def _div(l, r):
    if r == 0.0:
        raise DomainError("division by zero")
    return l / r


def eval_literal(text):
    """A number written as an expression over numbers and pi, e.g. ``pi/6``:
    the folded value, or the error that folding left to the code to raise."""
    program = _closed(text, (), "a number")
    rec = _Recorder(0)
    value = rec.gen(program)
    return float(_GENERATED[((program,), (), ()), _KERNEL, 0]()[0][0]
                 if rec.records else value)


def scalar_function(text, param):
    """``text`` as the float function of its one free name ``param``.
    Malformed text raises LexError or ParseError, another name
    UnknownIdentifier."""
    program = _closed(text, (param,), f"an expression in {param}")
    kernel = _GENERATED[((program,), (param,), ()), _KERNEL, 0]
    return lambda x: float(kernel(x)[0][0])


def _closed(text, params, what):
    """The program of ``text``, whose free names must be among ``params``
    and whose calls must be of functions."""
    return _checked(parse_text(text), params, lambda free: (
        f"{what} may not reference {', '.join(map(repr, free))}"))


def _checked(program, names, unknown):
    """``program``, if every free name of it is among ``names`` and it
    calls only functions; else UnknownIdentifier(unknown(the free names,
    sorted)) or the error of its first call of a non-function."""
    free = sorted({arg for op, arg in program if op == "var"} - set(names))
    if free:
        raise UnknownIdentifier(unknown(free))
    for op, arg in program:
        if op == "fail":
            raise _call_error(arg, names)
    return program


def _call_error(name, names):
    """The error of a call of ``name``, which is not a function: a
    parameter or constant among ``names``, or unknown."""
    if name in names or name in _CONSTANTS:
        return ArityError(f"{name!r} is not a function")
    return UnknownIdentifier(f"unknown function {name!r}")


# --------------------------------------------------------------------------
# generated code: one recorder, one printer, one cache
# --------------------------------------------------------------------------

def position_kernel(shape, order=2, jets=False):
    """The kernel ``(u, v) -> (r, r_u, r_v, r_uu, r_uv, r_vv)`` of a
    surface, followed at ``order`` 3 by r_uuu, r_uuv, r_uvv and r_vvv:
    (x, y, z) float triples equal by ``==`` to the Jet2 coefficients of the
    shape evaluated on jets, raising what that raises, '^' aside (see
    _Recorder.power); a zero may carry the other sign, because orders 2
    and 3 leave out the terms known to be zero that Jet2 adds.  At
    ``order`` 4 the kernel ``t -> (r, r', r'', r''', r'''')`` of a curve
    (the rows (u_k, v_k) of a surface curve) gives the Jet1 coefficients
    the same way, bit for bit, signed zeros included.  ``shape`` is a
    ShapeDefinition or a Recording.  The code is generated once per
    template (the component programs or the function, parameter and
    constant names) and order, and bound here to the constant values.  At
    ``order`` 0 the kernel of a definition takes its parameters as floats
    or jets and returns its one row of components.

    With ``jets`` (order 4) the parameters are jets: the kernel takes one
    argument, the five rows (u_k, v_k) of their Taylor coefficients, as a
    surface curve's kernel returns them, and gives the Jet1 coefficients
    of the surface at those jets, the composite r(u(t), v(t))."""
    kernel = _GENERATED[shape._template, (_kernel_code, jets), order]
    return _bind(kernel, *shape.constants.values())


class Recording:
    """A jet-generic Python function of ``params`` as a shape, as a
    definition is one: its code is recorded by running it once on _TapeJets
    (a float component is lifted).  One that reads a jet's value raises
    UnrecordableFunction, naming it, where its first code is made."""

    constants = MappingProxyType({})

    def __init__(self, fn, params):
        self._template = (fn, tuple(params), ())
        self._scales = {}   # as ShapeDefinition._scales


def recorded(fn):
    """The order-4 kernel of ``fn``, a jet-generic function of one
    parameter (a curve's or a surface curve's): floats t -> the five rows
    of its Jet1 coefficients at the variable t, recorded on first use."""
    template = Recording(fn, ("t",))._template
    return lambda t: _GENERATED[template, _KERNEL, 4](t)


def taped(formulas, outputs, order=2):
    """Straight-line float code for ``formulas(r)``: jet-generic code over
    a position jet r (a Vec3) that returns a dict of jets.  The result is
    the function ``k -> tuple`` that reads the (x, y, z) triples ``k`` of a
    position kernel and returns, for each ``(name, slot)`` of ``outputs``,
    coefficient ``slot`` of the jet named ``name``, computed as Jet2
    computes it, or as Jet1 does at ``order`` 4 (a curve's kernel).  Only
    the code those outputs need is kept, so ``k`` may stop at order 2 when
    no output reads r's third partials."""
    return _GENERATED[None, (_tape_code, formulas, outputs), order]


def surface_program(formulas, sizes, shape, curve=None):
    """``formulas(rec, *args)``, float code over a surface's kernel, as one
    straight-line function of ``args``, each a float (size 1) or a sequence
    of ``sizes[i]`` floats.  ``formulas`` runs once, on _TapeJet terms, and
    reads the surface through the recorder ``rec`` (see _Recorder);
    ``curve`` is the curve kernel that ``rec.curve`` reads, if it is read.

    The program is the kernel's own records, then the formulas', generated
    once per template of ``shape`` (a ShapeDefinition or a Recording) and
    program, and bound here to the constant values.  Each value equals the
    one that ``formulas`` computes over floats from the kernel's triples.
    A program of sizes (1, n), an ODE field ``f(t, y)``, carries in
    ``attempt`` its fused Dormand-Prince attempt, bound the same way."""
    fn, attempt = _GENERATED[shape._template,
                             (_program_code, formulas, sizes), 2]
    bound = tuple(shape.constants.values())
    if "_curve" in fn.__code__.co_varnames:
        bound += (curve,)
    program = _bind(fn, *bound)
    if attempt is not None:
        program.attempt = _bind(attempt, *bound)
    return program


def jet_program(formulas, sizes):
    """``formulas(rec, *args)`` as one straight-line float function of
    ``args``, sized as for surface_program.  The formulas are jet-generic
    code over jets that ``rec.jet(*terms)`` builds from float terms; they
    run once, and their Jet1 arithmetic is recorded (order 4), so each value
    and error equals Jet1's.  Made once per formulas."""
    return _GENERATED[None, (_program_code, formulas, sizes), 4][0]


def _bind(fn, *defaults):
    """A copy of the generated ``fn`` with these defaults: one function
    compiles faster than a closure."""
    return FunctionType(fn.__code__, fn.__globals__, fn.__name__, defaults)


class _Cache(dict):
    """The one cache of generated code: (template, formulas, order) -> what
    ``formulas`` (a maker and its arguments) generates over ``template``
    (component programs or a function, parameter and constant names, or
    None) at ``order``, made on first use.  Each kind of code (one maker's,
    order 0 apart) keeps its last 256 entries, so one-off expressions and
    shapes evict no tape or program in use.  The defaults of what is made
    stay None until a caller binds them in a copy."""

    def __missing__(self, key):
        template, (make, *args), order = key
        made = make(template, order, *args)
        kind = [k for k in self
                if k[1][0] is make and bool(k[2]) == bool(order)]
        if len(kind) == 256:
            del self[kind[0]]
        self[key] = made
        return made


_GENERATED = _Cache()


def _kernel_code(template, order, jets):
    """The position kernel of ``template`` (see position_kernel)."""
    programs, params, constants = template
    rec = _Recorder(order, params, constants, jets)
    ret = _source(rec.rows(programs, params), "return ")
    args = [*rec.params, *(f"_c{i}=None" for i in range(len(constants)))]
    return _compile([f"def _kernel({', '.join(args)}):",
                     *_body(rec.records + [ret], order)],
                    "<position kernel>")["_kernel"]


_KERNEL = (_kernel_code, False)


def _recording(template, order, formulas):
    """``formulas`` run once on a position jet of _TapeJet terms
    _r<slot><c>: the records, and the terms of each jet it returned.  At
    ``order`` 2 r runs through order 3 and the tape keeps order 2: r's first
    partials are exact to order 2, and Jet2 computes a slot of order 2 or
    less from such slots alone.  At ``order`` 4 r and the tape have Jet1's
    five slots.  The tape's locals are named _g<n>, apart from a kernel's
    _t<n>, so that a surface program can hold both."""
    rec = _Recorder(order, local="_g")
    r = Vec3(*(_TapeJet(rec, tuple(f"_r{i}{c}" for i in range(
        5 if rec.univariate else 10))) for c in "xyz"))
    named = {name: jet.c for name, jet in formulas(r).items()}
    return tuple(rec.records), named


def _tape_code(template, order, formulas, outputs):
    """The function of taped: the records of the tape that the outputs
    read, after an unpacking of each slot of ``_k`` that they read."""
    records, named = _GENERATED[None, (_recording, formulas), order]
    terms = tuple(named[name][slot] for name, slot in outputs)
    records = tuple(((f"_r{i}x", f"_r{i}y", f"_r{i}z"), f"_k[{i}]", ())
                    for i in range(5 if order == 4 else 10)) + records
    body = [records[i] for i in _live(records, terms)]
    return _compile(["def _program(_k):",
                     *_body(body + [_source(terms, "return ")], order)],
                    "<tape>")["_program"]


def _program_code(template, order, formulas, sizes):
    """The program of ``formulas`` over the kernel of ``template``, and
    for sizes (1, n) its fused attempt (``ode.attempt_source``), else None.
    At ``order`` 4 (jet_program) the formulas read no kernel, and
    ``template`` is None."""
    constants = template[2] if template else ()
    rec = _Recorder(order, (), constants)
    rec.template = template
    rec.defaults = [f"_c{i}=None" for i in range(len(constants))]
    args = [f"_a{i}" for i in range(len(sizes))]
    out = formulas(rec, *(_TapeJet(rec, a) if n == 1 else tuple(
        _TapeJet(rec, f"{a}_{j}") for j in range(n))
        for a, n in zip(args, sizes)))
    head = [f"def _program({', '.join(args + rec.defaults)}):"]
    head += [f"    {', '.join(f'{a}_{j}' for j in range(n))} = {a}"
             for a, n in zip(args, sizes) if n > 1]
    name, point = formulas.__name__, rec.point
    guarded = set(range(len(rec.records))) - rec.free if point else ()
    program = _compile(head + _body(rec.records + [_source(out, "return ")],
                                    order, point, guarded),
                       f"<surface program {name}>", rec.names)["_program"]
    if not (len(sizes) == 2 and sizes[0] == 1 < sizes[1]):
        return program, None
    n = sizes[1]
    records = rec.records + [_source(x) for x in out]
    body = _body(records, order, point, guarded)
    reads_t = any("_a0" in records[i][2] for i in _live(records, (), True))
    fused = ("_a0" if reads_t else None, [f"_a1_{j}" for j in range(n)],
             body[:-n], [line.strip() for line in body[-n:]], rec.defaults)
    return program, _compile(ode.attempt_source(n, fused),
                             f"<dopri5 {name}, {n} components>",
                             rec.names)["attempt"]


def _source(x, head=""):
    """The statement that prints ``head``, then the term ``x`` (or a
    _TapeJet's) or the (nested) tuple ``x`` of them."""
    if not isinstance(x, tuple):
        return (), head + "{}", (_fmt(getattr(x, "c", x)),)
    parts = [_source(t) for t in x]
    return ((), head + "(" + "".join(op + ", " for _, op, _ in parts) + ")",
            tuple(o for *_, operands in parts for o in operands))


def _compile(lines, filename, names=()):
    return ode._compile(lines, filename, dict(_KERNEL_GLOBALS, **dict(names)))


_KERNEL_GLOBALS = {
    **{f"_tab_{name}": table for name, table in jets._TABLES.items()},
    **{f"_fn_{name}": fn for name, fn in FUNCTIONS.items()},
    "_recip": jets._tab_recip, "_tab_pow": jets._tab_pow, "_div": _div,
    "_sin": math.sin, "_cos": math.cos,
    "_power": jets.power, "inf": math.inf, "nan": math.nan, **{
        e.__name__: e for e in (DomainError, ArityError, UnknownIdentifier)}}


def _fmt(term):
    """Source of a term: a local name, a float literal or None (zero)."""
    if term is None or not isinstance(term, float):
        return term or "0.0"
    return f"({term!r})" if math.copysign(1.0, term) < 0 else repr(term)


def _arithmetic(op):
    """Whether the code ``op`` is float + - * and negation alone, which
    raise nothing: no call, ``**``, division or indexing."""
    return "**" not in op and set(op.replace("{}", "")) <= set(" +-*")


def _live(records, need, effects=False):
    """The indices, in order, of the ``records`` that assign one of the
    terms ``need`` or a name that a live record reads, and with ``effects``
    each statement or code that may raise (errors stay those of the jets):
    one backward pass over single assignments is a fixed point."""
    need, live = {t for t in need if isinstance(t, str)}, []
    for i in range(len(records) - 1, -1, -1):
        targets, op, operands = records[i]
        if (effects and not (targets and _arithmetic(op))
                or not need.isdisjoint(targets)):
            live.append(i)
            need.update(operands)
    return live[::-1]


def _body(records, passes, point=None, guarded=()):
    """``records`` printed as a function body.  With ``passes`` (above
    order 0, where every value is a float) dead records are left out, and
    a local that one record reads and whose code is float + - * over names
    and literals, at most 300 characters, is written in parentheses into
    that record: no value and no error changes.  With a ``point``, each run
    of ``guarded`` records goes in one try that turns an OverflowError
    into ``_overflow(point)``."""
    live = _live(records, (), True) if passes else range(len(records))
    reads = collections.Counter(o for i in live for o in records[i][2]
                                ) if passes else {}
    held, lines, run = {}, [], []   # held: local -> the code it stands for
    for i in live:
        targets, op, operands = records[i]
        code = op.format(*(f"({held.pop(o)})" if o in held else o
                           for o in operands))
        if (len(targets) == 1 and reads.get(targets[0]) == 1
                and len(code) <= 300 and _arithmetic(op)):
            held[targets[0]] = code
            continue
        free = i not in guarded     # run: guarded lines, in one try
        if free and run:
            lines += ["    try:", *run, "    except OverflowError:",
                      f"        raise _overflow({point}) from None"]
            run = []
        (lines if free else run).append(" " * (4 if free else 8) + (
            f"{', '.join(targets)} = {code}" if targets else code))
    return lines


def _joined(a, sep, b):
    """The code ``a <sep> b`` of two terms or codes, not yet recorded: a
    list [op, *operands]."""
    a = a if isinstance(a, list) else ["{}", _fmt(a)]
    if isinstance(b, list):
        return [a[0] + sep + b[0], *a[1:], *b[1:]]
    return [a[0] + sep + "{}", *a[1:], _fmt(b)]


# the float operations of a tape that _Recorder.tape folds over literals
_FOLDS = {"{} * {}": mul, "{} + {}": add, "-{}": neg}


# Leibniz's rule for a Jet2 product, slot by slot: the terms in Jet2's
# order, each (multiplier..., slot of the left factor, slot of the right)
_LEIBNIZ2 = (
    ((0, 0),),
    ((1, 0), (0, 1)),
    ((2, 0), (0, 2)),
    ((3, 0), (2.0, 1, 1), (0, 3)),
    ((4, 0), (1, 2), (2, 1), (0, 4)),
    ((5, 0), (2.0, 2, 2), (0, 5)),
    ((6, 0), (3.0, 3, 1), (3.0, 1, 3), (0, 6)),
    ((7, 0), (3, 2), (2.0, 4, 1), (2.0, 1, 4), (2, 3), (0, 7)),
    ((8, 0), (5, 1), (2.0, 4, 2), (2.0, 2, 4), (1, 5), (0, 8)),
    ((9, 0), (3.0, 5, 2), (3.0, 2, 5), (0, 9)),
)

# the same for a Jet1 product, in Jet1's order
_LEIBNIZ1 = (
    ((0, 0),),
    ((1, 0), (0, 1)),
    ((2, 0), (2.0, 1, 1), (0, 2)),
    ((3, 0), (3.0, 2, 1), (3.0, 1, 2), (0, 3)),
    ((4, 0), (4.0, 3, 1), (6.0, 2, 2), (4.0, 1, 3), (0, 4)),
)


class _Recorder:
    """Source transformation (Griewank & Walther, Evaluating Derivatives,
    ch. 13) of the jet arithmetic, for programs (see :func:`parse`) over
    ``params`` and ``constants``, for a tape or for a surface program: at
    ``order`` 2 or 3 the Jet2 arithmetic through that total order, at
    ``order`` 4 (the one univariate order) the Jet1 arithmetic.  A jet is a
    tuple of terms: the first 6 Jet2 coefficients f, fu, fv, fuu, fuv, fvv
    or all 10 (then fuuu, fuuv, fuvv, fvvv), or the 5 Jet1 coefficients f,
    f', f'', f''', f''''.  A float is one term.  At order 0 a parameter is
    one term, so the code applies the operators and functions of whatever
    type the argument has.  Jet tuples keep the jets' operand order
    (``x / c`` is ``x * (1/c)``; ``a - b`` is ``a + (-b)``) and programs the
    language's order of evaluation, so values and errors match.

    The code is Griewank & Walther's evaluation procedure (ch. 2): records
    ``(targets, op, operands)`` that assign each local once (a statement
    assigns none), ``op`` the source with a ``{}`` for each operand.  Equal
    (op, operands) are recorded once.  A surface program's formulas read
    the surface through ``kernel``, ``tape``, ``check`` and ``curve``."""

    def __init__(self, order, params=(), constants=(), jets=False,
                 local="_t"):
        self.order = order
        self.univariate = order == 4
        self.size = 5 if self.univariate else (order + 1) * (order + 2) // 2
        self.leibniz = _LEIBNIZ1 if self.univariate else _LEIBNIZ2[:self.size]
        # order 4 keeps Jet1's zeros, so values match to the signed zero;
        # orders 2 and 3 leave known zeros out (None)
        self.zero = (0.0 if self.univariate else None,) * self.size
        self.local = local  # the prefix of the locals it names
        self.records = []
        self.named = {}     # (op, operands) -> the targets that hold it
        self.free = set()   # indices of the records outside the guard
        self.names = {}     # a program's globals
        self.point = None   # the source of (u, v) where a kernel was read
        self.taped = set()  # the tape records already recorded
        self.env = {c: f"_c{i}" for i, c in enumerate(constants)}
        self.bind(params, [f"_p{i}" for i in range(len(params))], jets)

    def bind(self, params, names, jets=False):
        """Read the parameters ``params`` from the locals ``names``: as
        they are at order 0, else lifted into jets (t, or u and v).  With
        ``jets`` (order 4) they are jets already, read from one argument
        ``_k`` that holds the rows of their coefficients, as a kernel
        returns rows: parameter i's coefficient k is ``_p<i>_<k>``."""
        if jets:
            rows = [[f"{p}_{k}" for p in names] for k in range(self.size)]
            self.record((", ".join(f"({''.join(n + ', ' for n in row)})"
                                   for row in rows),), "_k")
            self.env.update((p, tuple(row[i] for row in rows))
                            for i, p in enumerate(params))
            names = ["_k"]
        else:
            self.env.update(zip(params, names))
            if self.order and params:
                self.env[params[0]] = (names[0], 1.0) + self.zero[2:]
            if self.order and params[1:]:
                self.env[params[1]] = (names[1], None, 1.0) + self.zero[3:]
        self.params = list(names)
        self.first = self.env[params[0]] if params else None

    def rows(self, programs, params):
        """The terms of a kernel of the component ``programs``, or of the
        function ``programs`` run once on the jets of ``params``: one row of
        components per coefficient, or the one row at order 0."""
        if callable(programs):
            outs = [x.c if isinstance(x, _TapeJet) else float(x)
                    for x in _run(programs, [_TapeJet(self, self.env[p])
                                             for p in params])]
        else:
            outs = [self.gen(p) for p in programs]
        if not self.order:
            outs = [(o,) for o in outs]
        elif not all(isinstance(o, tuple) for o in outs):
            # constant components lifted, as ShapeDefinition.eval does
            lift = self.mul(self.first, 0.0) if self.univariate else self.zero
            outs = [o if isinstance(o, tuple) else self.add(lift, o)
                    for o in outs]
        return tuple(tuple(o[k] for o in outs) for k in range(self.size))

    def record(self, targets, op, *operands):
        """Record a line of no new value: a statement or an unpacking."""
        self.records.append((targets, op, tuple(map(_fmt, operands))))

    def emit(self, op, *operands):
        """The local that holds ``op`` over the operands' source."""
        key = op, operands
        if key not in self.named:
            self.named[key] = f"{self.local}{len(self.records)}"
            self.records.append(((self.named[key],), *key))
        return self.named[key]

    def table(self, fn, *args):
        """The terms d0..d3 of the derivative-table call ``fn(*args)``, and
        d4 at order 4: locals that the call sets.  The tables of sin and
        cos are not called: they are (s, c, -s, -c, s) and (c, -s, -c, s,
        c), so sin and cos of one argument share one line that computes s
        and c, as the tables do, and a term -s is code, negated where it is
        read (negation is exact)."""
        sincos = fn in ("_tab_sin", "_tab_cos")
        op = ("_sin({}), _cos({})" if sincos
              else f"{fn}({', '.join(['{}'] * len(args))})")
        key = op, tuple(map(_fmt, args * 2 if sincos else args))
        if key not in self.named:
            n = f"{self.local}{len(self.records)}_"
            self.named[key] = ((n + "s", n + "c") if sincos else tuple(
                n + str(k) for k in range(5 if self.univariate else 4)))
            self.records.append((self.named[key] + (
                () if sincos or self.univariate else ("_",)), *key))
        if not sincos:
            return self.named[key]
        s, c = self.named[key]
        neg_s, neg_c = ["-{}", s], ["-{}", c]
        d = (s, c, neg_s, neg_c) if fn == "_tab_sin" else (c, neg_s, neg_c, s)
        return d + d[:1] if self.univariate else d

    def coef(self, expr):
        if expr is None or isinstance(expr, float):
            return None if expr == 0.0 and not self.univariate else expr
        if isinstance(expr, list):
            return self.emit(*expr)
        return expr if expr.isidentifier() else self.emit("{}", expr)

    def prod(self, *factors):
        """Left-to-right product as the jets round it: only a factor 1.0
        is left out (x * 1.0 is x, bit for bit).  At orders 2 and 3 a
        factor known to be zero makes it None (zero)."""
        if not self.univariate and any(f is None or f == 0.0
                                       for f in factors):
            return None
        acc = factors[0]
        for f in factors[1:]:
            if isinstance(acc, float) and isinstance(f, float):
                acc *= f
            elif acc == 1.0:
                acc = f
            elif f != 1.0:
                acc = _joined(acc, " * ", f)
        return acc

    def sum(self, *terms):
        """Left-to-right sum as the jets round it, signed zeros included:
        only a term -0.0 is left out (x + -0.0 is x, bit for bit).  At
        orders 2 and 3 a term known to be zero only adds an exact 0, so
        each is left out, and a sum of none is None."""
        if self.univariate:
            kept = [t for t in terms if not (
                t == 0.0 and math.copysign(1.0, t) < 0.0)] or [-0.0]
        else:
            kept = [t for t in terms if not (t is None or t == 0.0)] or [None]
        acc = kept[0]
        for t in kept[1:]:
            if isinstance(acc, float) and isinstance(t, float):
                acc += t
            else:
                acc = _joined(acc, " + ", t)
        return acc

    def scalar(self, op, fn, *args):
        """A float operation, folded if its operands are literals."""
        if all(isinstance(a, float) for a in args):
            try:
                return float(fn(*args))
            except (DiffGeoError, ArithmeticError, ValueError):
                pass    # raised again where the code runs
        return self.emit(op, *map(_fmt, args))

    def fail(self, exc):
        self.record((), f"raise {type(exc).__name__}({str(exc)!r})")
        return 0.0

    def jet(self, *terms):
        """The jet of the float terms ``terms`` (_TapeJets), its other
        coefficients zero, as ``Jet1(*terms)`` is at order 4."""
        return _TapeJet(self, tuple(t.c for t in terms)
                        + self.zero[len(terms):])

    def gen(self, program):
        """The value of ``program``: a term, or a jet tuple of terms."""
        stack = []
        for op, arg in program:
            if op == "num":
                stack.append(arg)
            elif op == "var":
                stack.append(self.env.get(arg) or self.fail(
                    UnknownIdentifier(f"undeclared identifier {arg!r}")))
            elif op == "fail":
                stack.append(self.fail(_call_error(arg, self.env)))
            elif op == "neg":
                stack.append(self.neg(stack.pop()))
            elif op == "call":
                stack.append(self.call(arg, stack.pop()))
            else:
                second = stack.pop()
                stack.append(self.binary[op](self, stack.pop(), second))
        return stack.pop()

    def neg(self, x):
        if isinstance(x, tuple):
            return tuple(None if t is None else self.neg(t) for t in x)
        return -x if isinstance(x, float) else self.emit("-{}", _fmt(x))

    def lift(self, x):
        """The float term ``x`` as a constant jet, as Jet1 coerces it."""
        return (x,) + self.zero[1:]

    def sub(self, a, b):
        if isinstance(a, tuple) or isinstance(b, tuple):
            if self.univariate and not isinstance(b, tuple):
                b = self.lift(b)    # Jet1 negates the coerced jet
            return self.add(a, self.neg(b))
        return self.scalar("{} - {}", lambda p, q: p - q, a, b)

    def add(self, a, b):
        if not isinstance(a, tuple):
            if not isinstance(b, tuple):
                return self.scalar("{} + {}", lambda p, q: p + q, a, b)
            a, b = b, a
        b = b if isinstance(b, tuple) else self.lift(b)
        return tuple(self.coef(self.sum(p, q)) for p, q in zip(a, b))

    def mul(self, f, g):
        if not isinstance(f, tuple):
            if not isinstance(g, tuple):
                if self.order and 1.0 in (f, g):    # floats: x * 1.0 is x
                    return g if f == 1.0 else f
                return self.scalar("{} * {}", mul, f, g)
            f, g = g, f     # the jet is the left factor
        if not isinstance(g, tuple):
            if not self.univariate:
                return tuple(self.coef(self.prod(t, g)) for t in f)
            g = self.lift(g)
        return tuple(self.coef(self.sum(*(self.prod(*k, f[i], g[j])
                                          for *k, i, j in row)))
                     for row in self.leibniz)

    def div(self, a, b):
        if isinstance(b, tuple):
            return self.mul(a, self.compose(self.table("_recip", b[0]), b))
        if isinstance(a, tuple):
            if self.univariate:     # Jet1 composes 1/b with the lifted b
                return self.mul(a, self.compose1(self.derivatives(
                    "_recip", jets._tab_recip, b), self.lift(b)))
            return self.mul(a, self.scalar("_recip({})[0]",
                                           lambda q: jets._tab_recip(q)[0], b))
        return self.scalar("_div({}, {})", _div, a, b)

    def derivatives(self, fn, table, x):
        """The derivative table ``table(x)`` that ``fn`` names: literals when
        ``x`` is one and the table does not raise, else the locals of the
        call."""
        if isinstance(x, float):
            try:
                return tuple(map(float, table(x)))
            except (DiffGeoError, ArithmeticError, ValueError):
                pass    # raised again where the code runs
        return self.table(fn, x)

    def compose(self, d, x):
        """Faa di Bruno through the order of ``x`` against the derivative
        table ``d``, as Jet2._compose (Jet1._compose at order 4) writes
        it."""
        if self.univariate:
            return self.compose1(d, x)
        d0, d1, d2, d3 = d
        _, u, v, uu, uv, vv, *third = x
        c, p, s = self.coef, self.prod, self.sum
        out = (d0, c(p(d1, u)), c(p(d1, v)),
               c(s(p(d1, uu), p(d2, u, u))),
               c(s(p(d1, uv), p(d2, u, v))),
               c(s(p(d1, vv), p(d2, v, v))))
        if not third:
            return out
        uuu, uuv, uvv, vvv = third
        return out + (
            c(s(p(d1, uuu), p(3.0, d2, u, uu), p(d3, self.cube(u)))),
            c(s(p(d1, uuv), p(d2, c(s(p(v, uu), p(2.0, u, uv)))),
                p(d3, u, u, v))),
            c(s(p(d1, uvv), p(d2, c(s(p(u, vv), p(2.0, v, uv)))),
                p(d3, u, v, v))),
            c(s(p(d1, vvv), p(3.0, d2, v, vv), p(d3, self.cube(v)))))

    def compose1(self, d, x):
        """Faa di Bruno as Jet1._compose writes it, against the table
        ``d``, zeros included."""
        d0, d1, d2, d3, d4 = d
        _, u1, u2, u3, u4 = x
        c, p, s = self.coef, self.prod, self.sum
        return (d0, c(p(d1, u1)),
                c(s(p(d1, u2), p(d2, u1, u1))),
                c(s(p(d1, u3), p(3.0, d2, u1, u2), p(d3, self.cube(u1)))),
                c(s(p(d1, u4), p(d2, c(s(p(4.0, u1, u3), p(3.0, u2, u2)))),
                    p(6.0, d3, u1, u1, u2), p(d4, self.cube(u1, 4)))))

    def cube(self, x, n=3):
        """``x ** n``, as the jets round it (not as x * x * x)."""
        return None if x is None else self.scalar(f"{{}} ** {n}",
                                                  lambda p: p ** n, x)

    def call(self, name, x):
        if isinstance(x, tuple):
            return self.compose(self.table(f"_tab_{name}", x[0]), x)
        return self.scalar(f"_fn_{name}({{}})", FUNCTIONS[name], x)

    def power(self, base, p):
        """``base ^ p`` as jets.power, but by a rule that branches on no
        run-time value: a jet exponent is exp(p log(base)) everywhere, where
        jets.power takes base^p0 if p's partials vanish; any exponent but a
        literal integer of at most 64 composes x^p's table (_tab_pow), where
        jets.power multiplies an integer out.  Each agrees to rounding."""
        if isinstance(p, tuple):
            return self.call("exp", self.mul(p, self.call("log", base)))
        n = p if isinstance(p, float) and p.is_integer() else None
        if not isinstance(base, tuple):
            if isinstance(base, str) and n is not None and 1 <= n <= 64:
                return self.coef(self.prod(*[base] * int(n)))
            return self.scalar("_power({}, {})", jets.power, base, p)
        if n is None or abs(n) > 64:
            return self.compose(self.table("_tab_pow", base[0], p), base)
        if n < 0:
            self.record((), "if {} == 0.0: raise DomainError("
                        "'zero base with negative exponent')", base[0])
        if self.univariate:     # as jets._int_power writes it
            out = base if n else self.add(self.mul(base, 0.0), 1.0)
        else:
            out = base if n else (1.0,) + self.zero[1:]
        for _ in range(int(abs(n)) - 1):
            out = self.mul(out, base)
        if n >= 0:
            return out
        if self.univariate:
            return self.div(1.0, out)
        return self.compose(self.table("_recip", out[0]), out)

    # operands in program order: the divisor before the dividend
    binary = {"+": add, "-": sub, "*": mul, "^": power,
              "/": lambda self, divisor, x: self.div(x, divisor)}

    # ---- what a surface program's formulas read --------------------------

    def kernel(self, u, v, overflow):
        """The order-2 kernel triples at (u, v).  An OverflowError in any
        line but ``check``'s raises ``overflow(u, v)``."""
        self.names["_overflow"] = overflow
        self.point = f"{u.c}, {v.c}"
        programs, params, _ = self.template
        self.bind(params, (u.c, v.c))
        rows = self.rows(programs, params)
        return tuple(tuple(_TapeJet(self, 0.0 if t is None else t)
                           for t in row) for row in rows)

    def tape(self, formulas, outputs, k):
        """The records of the tape of ``formulas`` that ``outputs`` read,
        each position slot _r<i><c> replaced by the term of ``k`` it names,
        and each recorded once.  A record that cannot change a bit is
        folded, its local replaced by its term: a sum, product or negation
        of literals, computed here by the same float operation, and x * 1.0
        or 1.0 * x, which is x."""
        records, named = _GENERATED[None, (_recording, formulas), 2]
        term = {f"_r{i}{c}": t.c for i, row in enumerate(k)
                for c, t in zip("xyz", row)}
        terms = [named[name][s] for name, s in outputs]
        for i in _live(records, terms):
            targets, op, operands = records[i]
            args = [term.get(o, o) for o in operands]
            fold = _FOLDS.get(op)
            if fold and all(isinstance(a, float) for a in args):
                term[targets[0]] = fold(*args)
            elif op == "{} * {}" and 1.0 in args:
                term[targets[0]] = args[1] if args[0] == 1.0 else args[0]
            else:
                record = targets, op, tuple(map(_fmt, args))
                if record not in self.taped:
                    self.taped.add(record)
                    self.records.append(record)
        return tuple(_TapeJet(self, term.get(t, t) if isinstance(t, str)
                              else 0.0 if t is None else t) for t in terms)

    def check(self, fn, *args, floor):
        """A call ``fn(*args)``, outside the overflow guard, made only where
        the first argument is not both below inf and above ``floor``: the
        caller's word that ``fn`` raises nowhere else.  Literals that pass
        record nothing."""
        x = args[0].c
        if isinstance(x, float) and isinstance(floor.c, float) and (
                floor.c < x < math.inf):
            return
        self.names[fn.__name__] = fn
        self.free.add(len(self.records))
        self.record((), "if not ({} < inf and {} > {}): " + fn.__name__
                    + f"({', '.join(['{}'] * len(args))})",
                    x, x, floor.c, *(a.c for a in args))

    def curve(self, t):
        """(u, v) and (u', v'), the first two rows of the curve kernel
        ``_curve`` (the program's last default) at ``t``, read outside the
        overflow guard: the curve's errors are its own."""
        self.free.add(len(self.records))
        self.record(("(_u, _v), (_du, _dv)",), "_curve({})[:2]", t.c)
        self.defaults.append("_curve=None")
        return tuple(tuple(_TapeJet(self, n) for n in pair)
                     for pair in (("_u", "_v"), ("_du", "_dv")))


class _TapeJet:
    """A jet of _Recorder terms: jet-generic code run on it records its
    Jet2 (at order 4, Jet1) arithmetic (the tape of Griewank & Walther,
    ch. 6).  ``call(name)`` stands for ``jets.<name>``.  A jet of one float
    term, as a surface program's formulas read, records float arithmetic:
    a - b and a / b as written.  It has no value: reading one raises
    UnrecordableFunction."""

    __slots__ = ("gen", "c")

    def __init__(self, gen, c):
        self.gen, self.c = gen, c

    def _apply(self, op, other):
        other = other.c if isinstance(other, _TapeJet) else float(other)
        return _TapeJet(self.gen, op(self.c, other))

    def _no_value(self, *_):
        raise UnrecordableFunction("it reads the value of a jet")

    value = property(_no_value)
    __float__ = __bool__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value

    def __add__(self, other):
        return self._apply(self.gen.add, other)

    __radd__ = __add__

    def __neg__(self):
        return _TapeJet(self.gen, self.gen.neg(self.c))

    def __sub__(self, other):
        return self._apply(self.gen.sub, other)

    def __pow__(self, other):
        return self._apply(self.gen.power, other)

    def __rpow__(self, other):
        return _TapeJet(self.gen, self.gen.power(float(other), self.c))

    def __rsub__(self, other):
        return _TapeJet(self.gen, self.gen.sub(float(other), self.c))

    def __mul__(self, other):
        return self._apply(self.gen.mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply(self._div, other)

    def __rtruediv__(self, other):
        return _TapeJet(self.gen, self._div(float(other), self.c))

    def _div(self, a, b):
        if isinstance(a, tuple) or isinstance(b, tuple):
            return self.gen.div(a, b)
        return self.gen.scalar("{} / {}", lambda p, q: p / q, a, b)

    def du(self):
        """The jet of the u-partial through order 2: its order-2 slots come
        from a jet that carries order 3 (the position), else are zero."""
        return self._shift((1, 3, 4, 6, 7, 8))

    def dv(self):
        return self._shift((2, 4, 5, 7, 8, 9))

    def __getitem__(self, slot):
        """Coefficient ``slot``, a jet of one float term."""
        return _TapeJet(self.gen, self.c[slot])

    def derivative(self):
        """The jet of d/dt, its top slot zero, as Jet1.derivative."""
        return self._shift((1, 2, 3, 4, 5))

    def _shift(self, slots):
        c, zero = self.c, self.gen.zero[0]
        return _TapeJet(self.gen, tuple(c[i] if i < len(c) else zero
                                        for i in slots))

    def call(self, name):
        return _TapeJet(self.gen, self.gen.call(name, self.c))


def _run(fn, args):
    """``fn(*args)``, recorded: a read of a jet's value names ``fn``."""
    try:
        return fn(*args)
    except UnrecordableFunction as exc:
        name = getattr(fn, "__qualname__", repr(fn))
        raise UnrecordableFunction(f"{name} cannot be recorded: {exc}; "
                                   "write it over jets, with no branch on "
                                   "their values") from None


# --------------------------------------------------------------------------
# shape definitions
# --------------------------------------------------------------------------

class ShapeDefinition(Frozen):
    """A parsed curve/surface/surface-curve definition.

    ``kind`` is 'curve', 'surface' or 'surfacecurve'; ``params`` maps each
    parameter name to its closed domain interval; ``components`` holds the
    programs in output order (x,y,z -- or u,v for surface curves).

    A definition is immutable: ``params`` and ``constants`` are read-only
    views of copies, so one parsed definition is shared by every shape
    built from its text (``load_definition`` parses each text once).  What
    it caches (its order-0 kernel and surface scales) is derived from it
    alone.
    """

    # no __slots__: the cached properties below need a __dict__
    _fields = ("kind", "name", "params", "constants", "components",
               "component_names")

    def __init__(self, kind, name, params, constants, components,
                 component_names):
        _set(self, "kind", kind)
        _set(self, "name", name)
        _set(self, "params", MappingProxyType(dict(params)))
        _set(self, "constants", MappingProxyType(dict(constants)))
        _set(self, "components", components)
        _set(self, "component_names", component_names)
        _set(self, "_template", (tuple(components), tuple(params),
                                 tuple(constants)))

    @cached_property
    def _scales(self):
        """domain -> ``ParametricSurface.scale`` of this surface there."""
        return {}

    @cached_property
    def _kernel(self):
        return position_kernel(self, 0)

    def eval(self, *args, check_domain=True):
        """Evaluate at float or jet parameter values, in declaration order,
        through the order-0 code of :func:`position_kernel`; a constant
        component is lifted to the jet kind of the first argument.  With
        ``check_domain``, out-of-domain value coefficients raise DomainError
        (kernel wrappers pass False: the domain is sampling metadata, and
        shooting solvers probe beyond it)."""
        if len(args) != len(self.params):
            raise ArityError(f"{self.kind} takes {len(self.params)} "
                             f"parameter(s), got {len(args)}")
        if check_domain:
            self.check_domain(*(val.value if hasattr(val, "value")
                                else float(val) for val in args))
        (vals,) = self._kernel(*args)
        if not isinstance(args[0], (int, float)):
            vals = tuple(args[0] * 0.0 + out if isinstance(out, (int, float))
                         else out for out in vals)
        return Vec3(*vals) if len(vals) == 3 else vals

    def check_domain(self, *values):
        """Raise DomainError unless each float parameter value lies in its
        parameter's domain."""
        for (name, (lo, hi)), v0 in zip(self.params.items(), values):
            if not lo <= v0 <= hi:
                raise DomainError(
                    f"parameter {name}={v0!r} outside [{lo!r}, {hi!r}]")


class LoopDefinition(Frozen):
    """A parsed loop file: the boundary arcs in order (each a
    'surfacecurve' ShapeDefinition), the exterior angle after each arc
    (None = compute it from the tangents) and the parameter rectangles
    (u0, u1, v0, v1) that make up the enclosed region."""

    __slots__ = _fields = ("name", "arcs", "corners", "regions")
    kind = "loop"

    def __init__(self, name, arcs, corners, regions):
        _set(self, "name", name)
        _set(self, "arcs", arcs)
        _set(self, "corners", corners)
        _set(self, "regions", regions)


_PARAM_COUNT = {"curve": 1, "surface": 2, "surfacecurve": 1}


@contextmanager
def _at_line(lineno):
    """Prefix the message of any error raised in the block with the line."""
    try:
        yield
    except DiffGeoError as exc:
        exc.args = (f"line {lineno}: {exc}",)
        raise


@lru_cache(maxsize=128)
def load_definition(text):
    """Parse definition-file text into a validated ShapeDefinition, or a
    LoopDefinition for a 'loop' file.  Errors name the line at fault.
    Each text is parsed once (errors are raised afresh): the definition is
    immutable and shared by every caller."""
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
        with _at_line(comp_line[cname]):
            _checked(comps[cname], declared, lambda free: (
                f"component {cname!r} references undeclared identifier "
                f"{free[0]!r}"))

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
