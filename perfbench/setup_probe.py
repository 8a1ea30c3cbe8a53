"""Set-up probe, run in a fresh interpreter by run.py.

Times ``import diffgeo`` and the build of the shapes named on the command
line (``catalog.make`` plus one evaluation, which finishes any lazy
compilation), and prints both times as JSON.  Run it under
``python -X importtime`` to get the import split.

    python3 -X importtime perfbench/setup_probe.py SRC_DIR sphere torus ...
"""

import json
import sys
import time


def main(argv):
    src, names = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import diffgeo
    t1 = time.perf_counter()
    from diffgeo import catalog
    for name in names:
        shape = catalog.make(name)
        d = shape.domain
        if len(d) == 4:
            shape.eval(0.5 * (d[0] + d[1]), 0.5 * (d[2] + d[3]))
        else:
            shape.eval(0.5 * (d[0] + d[1]))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "module": diffgeo.__file__}))


if __name__ == "__main__":
    main(sys.argv[1:])
