"""Deterministic report serialization for the CLI.

JSON output is rendered by a small writer with insertion-ordered keys and
one pinned float rule, which CSV cells share (``format_float``): an
integral value below 1e16 in magnitude prints as ``repr`` does (``2.0``,
``-0.0``), any other finite value as ``"%.17g"`` (17 significant digits,
lowercase exponent), and NaN or an infinity raises ValueError.  So
identical invocations produce byte-identical files.  Wall-clock timing is
deliberately kept out of the JSON payload for the same reason; it goes to
stderr instead.  Strings write control characters and surrogates as
``\\uXXXX``, so any name, text parameter or file path loads back.  Files
are written as UTF-8 to a temp name and atomically renamed; they get the
mode that ``open`` would give them (0o666 less the umask).
"""

import itertools
import math
import os

__all__ = ["Report", "format_float", "dump_json", "write_json", "write_csv"]

SCHEMA = "diffgeo-report/1"


def format_float(x):
    x = float(x)
    if x.is_integer() and -1e16 < x < 1e16:
        return repr(x)  # keeps the trailing .0
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _string(text):
    if text.isidentifier():     # most keys and words: nothing to escape
        return '"' + text + '"'
    if text.isprintable():      # no control character or surrogate
        return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return '"' + "".join(map(_escape, text)) + '"'


def _escape(c):
    """``c`` in a JSON string: a quote or backslash escaped, a control
    character or a (lone) surrogate as \\uXXXX (RFC 8259, section 7)."""
    if c < " " or "\ud800" <= c <= "\udfff":
        return f"\\u{ord(c):04x}"
    return "\\" + c if c in '"\\' else c


def _scalar(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return _string(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _render(obj, out):
    """Append the JSON text of ``obj`` to ``out``.  The items of the
    innermost open container are written in a loop; entering a nested one
    saves the loop's place on a stack, so nesting costs no call frames."""
    append = out.append
    stack = []      # the enclosing containers: (items left, closer, keyed)
    items, closer, keyed, first = iter((obj,)), "", False, True
    while True:
        for item in items:
            if first:
                first = False
            else:
                append(",")
            if keyed:
                key, item = item
                append(_string(str(key)) + ":")
            kind = type(item)
            if kind is float:
                append(format_float(item))
            elif kind is str:
                append(_string(item))
            elif isinstance(item, (list, tuple)):
                stack.append((items, closer, keyed))
                append("[")
                items, closer, keyed, first = iter(item), "]", False, True
                break
            elif isinstance(item, dict):
                stack.append((items, closer, keyed))
                append("{")
                items, closer, keyed, first = (iter(item.items()), "}", True,
                                               True)
                break
            else:
                append(_scalar(item))
        else:
            append(closer)
            if not stack:
                return
            items, closer, keyed = stack.pop()
            first = False


def dump_json(obj):
    out = []
    _render(obj, out)
    return "".join(out)


_SERIAL = itertools.count()    # temp names: .diffgeo-<pid>-<n>.tmp
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    for n in _SERIAL:
        tmp = os.path.join(directory, f".diffgeo-{os.getpid()}-{n}.tmp")
        try:
            fd = os.open(tmp, _CREATE, 0o666)
        except FileExistsError:
            continue
        break
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, obj):
    _atomic_write(path, dump_json(obj) + "\n")


def write_csv(path, header, rows):
    """CSV with '.' decimal separator and ',' field separator regardless of
    locale; floats use the pinned 17-digit format."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


class Report:
    """Accumulates records and suite summaries in deterministic order."""

    def __init__(self, command, shape_desc):
        self.command = command
        self.shape_desc = shape_desc
        self.records = []
        self.suites = []
        self.summary = {}

    def add_record(self, point, quantity, value, status="ok"):
        self.records.append({"point": point, "quantity": quantity,
                             "value": value, "status": status})

    def add_suite(self, name, max_residual, tol, passed, detail=""):
        self.suites.append({"suite": name, "max_residual": max_residual,
                            "tol": tol, "passed": passed, "detail": detail})

    def sort_records(self):
        # row-major grid order is preserved by insertion; quantities sort
        # lexicographically within a point
        self.records.sort(key=lambda r: (r["point"], r["quantity"]))

    def to_obj(self):
        obj = {"schema": SCHEMA, "command": self.command,
               "shape": self.shape_desc}
        if self.records:
            obj["records"] = self.records
        if self.suites:
            obj["suites"] = self.suites
            obj["passed"] = all(s["passed"] for s in self.suites)
            obj["max_residual"] = max(s["max_residual"] for s in self.suites)
        if self.summary:
            obj["summary"] = self.summary
        return obj
