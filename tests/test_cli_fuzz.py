"""Grammar fuzz of the command line: argv drawn from the subcommands, their
flags (and the flags of other subcommands), malformed numbers and points,
and tiny definition files, valid and broken.  Every draw must end in a
documented exit code (0, 2, 3, 4 or 5) with no traceback.

Values stay small (``--grid`` at most 4x4, ``--samples`` at most 9,
``--length`` at most 2 in size) so the whole fuzz runs in a few seconds.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diffgeo.cli import main

SUBCOMMANDS = ("eval", "verify", "geodesic", "transport", "gauss-bonnet",
               "reconstruct")
EXIT_CODES = {0, 2, 3, 4, 5}

NUMBERS = ("0.3", "-1", "pi/4", "2*pi", "1e", "1e400", "nan", "inf", "",
           "--", "1/0", "sqrt(", "0x10", "1_0", "-0")
POINTS = ("0,0", "0.3,0.2", "u=0.5,v=-0.4", "t=1.2", "pi/3,pi/8", "1",
          "0,0,0", "a,b", ",", "u=,v=1", "1e400,0", "1e300,0", "nan,0",
          "1/0,1")

# tiny definition files: name -> text (None: the name is a directory)
FILES = {
    "helix.pc": ("curve helix\nparam t in [0, 6.283185307179586]\n"
                 "x = cos(t)\ny = sin(t)\nz = 0.5*t\n"),
    "saddle.ps": ("surface saddle\nparam u in [-1, 1]\nparam v in [-1, 1]\n"
                  "x = u\ny = v\nz = u*v\n"),
    "diag.sc": "surfacecurve diag\nparam t in [0, 1]\nu = 0.5 + t\nv = t\n",
    "tri.loop": ("loop tri\nregion 0 0 0 0\n"
                 "arc t in [0, 1]\nu = t\nv = 0\ncorner auto\n"
                 "arc t in [0, 1]\nu = 1 - t\nv = t\ncorner auto\n"
                 "arc t in [0, 1]\nu = 0\nv = 1 - t\ncorner auto\n"),
    "open.loop": ("loop open\nregion 0 1 0 1\n"
                  "arc t in [0, 1]\nu = t\nv = 0\ncorner 0\n"),
    "empty.ps": "",
    "garbage.pc": "curve c\nparam t in [1, 0]\nx = t\ny = (t\n",
    "nocoord.ps": "surface s\nparam u in [0, 1]\nparam v in [0, 1]\nx = u\n",
    "undefined.sc": "surfacecurve c\nparam t in [0, 1]\nu = w\nv = t\n",
    "flat.pc": "curve line\nparam t in [0, 1]\nx = t\ny = 0\nz = 0\n",
    "dir": None,
}
FILE_ARGS = tuple("@" + name for name in FILES) + ("@missing.ps",)
OUTPUTS = ("@out.json", "@dir", "@missing/out.json")

VALUES = {
    "--shape": ("sphere", "torus", "plane", "cylinder", "helicoid", "monge",
                "cone", "helix", "nope", ""),
    "--param": ("R=2", "r=0.5", "R=0", "R=-1", "R", "=", "R=x", "R=nan",
                "R=1e300", "R=1e30", "f=u^2-v^2", "f=(", "X=1"),
    "--file": FILE_ARGS,
    "--at": POINTS,
    "--grid": ("1", "3", "2x3", "4x4", "0", "x", "4x", "-1x2", "2x0", "axb",
               "", "1.5"),
    "--quantity": ("K", "H", "curvatures", "forms", "principal", "asymptotic",
                   "shape-class", "frenet", "class", "nope", ""),
    "--suite": ("egregium", "frenet-serret", "liouville", "nope", ""),
    "--samples": ("1", "2", "5", "9", "0", "-3", "abc", "2.5", "",
                  "٣"),
    "--seed": ("0", "7", "-1", "x", "1e3", "99999999999999999999"),
    "--from": POINTS,
    "--to": POINTS,
    "--dir": POINTS,
    "--length": ("0.5", "2", "-2", "-0.5", "pi/2", "0", "-0", "nan", "1e400",
                 "x", ""),
    "--curve": FILE_ARGS,
    "--loop": ("const-v:pi/6", "const-u:1.0", "const-v:", "const-w:1",
               "const-v:x", "nope", "", "const-u:1e400"),
    "--vector": POINTS,
    "--chi": ("2", "0", "-2", "x", "1.5"),
    "--loop-file": FILE_ARGS,
    "--kappa": ("0.8", "1+0.5*sin(s)", "0", "-1", "s", "1/s", "(", "x",
                "nan", "sqrt(s)", "log(s)"),
    "--tau": ("0.4", "0.3*cos(s)", "0", "(", "x", "1/s", "nan", "1e400"),
    "--tol": ("1e-8", "1e-4", "1e-300", "0", "-1e-3", "x", "nan", "1e400"),
    "--json": OUTPUTS,
    "--csv": OUTPUTS,
}
# malformed numbers go everywhere but to the flags that bound the work and
# the output paths (a number there is a file written in the working tree)
VALUES = {flag: vals if flag in ("--grid", "--samples", "--length", "--json",
                                 "--csv")
          else vals + NUMBERS for flag, vals in VALUES.items()}
SWITCHES = ("--clamp", "--global")
ALL_FLAGS = tuple(VALUES) + SWITCHES
SHAPES = VALUES["--shape"][:8]

# well-formed invocations, as (flag, value) pairs, that the mutations
# start from; "S" is replaced by a drawn catalog shape
BASES = {
    "eval": ([("--shape", "S"), ("--at", "0.3,0.2"), ("--quantity", "K")],
             [("--shape", "S"), ("--grid", "2x2"),
              ("--quantity", "curvatures")],
             [("--file", "@saddle.ps"), ("--grid", "3"), ("--quantity", "H")],
             [("--file", "@helix.pc"), ("--at", "t=1.2"),
              ("--quantity", "frenet")]),
    "verify": ([("--shape", "S"), ("--seed", "1")],
               [("--file", "@helix.pc")]),
    "geodesic": ([("--shape", "S"), ("--from", "0.3,0.2"), ("--dir", "1,0.5"),
                  ("--length", "1.5")],
                 [("--shape", "S"), ("--from", "0.3,0.2"),
                  ("--to", "0.8,0.6")]),
    "transport": ([("--shape", "S"), ("--loop", "const-v:pi/6"),
                   ("--vector", "1,0")],
                  [("--shape", "torus"), ("--curve", "@diag.sc"),
                   ("--vector", "0.5,0.5")]),
    "gauss-bonnet": ([("--shape", "sphere"), ("--global", None),
                      ("--chi", "2")],
                     [("--shape", "plane"), ("--loop-file", "@tri.loop")]),
    "reconstruct": ([("--kappa", "0.8"), ("--tau", "0.4"),
                     ("--length", "2")],),
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        if text is None:
            (root / name).mkdir()
        else:
            (root / name).write_text(text)
    return str(root)


@st.composite
def argv_strategy(draw):
    cmd = draw(st.sampled_from(SUBCOMMANDS))
    shape = draw(st.sampled_from(SHAPES))
    pairs = [(f, shape if v == "S" else v)
             for f, v in draw(st.sampled_from(BASES[cmd]))]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.integers(0, 9))
        if kind == 0:    # another subcommand over the same flags
            cmd = draw(st.sampled_from(SUBCOMMANDS))
        elif kind <= 2 and pairs:    # drop a flag
            del pairs[draw(st.integers(0, len(pairs) - 1))]
        elif kind <= 4:    # add a flag, now and then without its value
            flag = draw(st.sampled_from(ALL_FLAGS))
            value = (None if flag in SWITCHES or not draw(st.integers(0, 9))
                     else draw(st.sampled_from(VALUES[flag])))
            pairs.insert(draw(st.integers(0, len(pairs))), (flag, value))
        elif pairs:    # change a value
            i = draw(st.integers(0, len(pairs) - 1))
            flag = pairs[i][0]
            if flag not in SWITCHES:
                pairs[i] = (flag, draw(st.sampled_from(VALUES[flag])))
    argv = [cmd] + [a for pair in pairs for a in pair if a is not None]
    if cmd == "verify":
        # bounds the work: --samples would default to 40
        argv += ["--samples", draw(st.sampled_from(("1", "4", "9")))]
    return argv


def run(argv, workdir):
    argv = [os.path.join(workdir, a[1:]) if a.startswith("@") else a
            for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argv_strategy())
def test_every_argv_ends_in_a_documented_exit(workdir, argv):
    code, err = run(argv, workdir)
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.strip(), argv
