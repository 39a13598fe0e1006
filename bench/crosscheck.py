"""Check the tracer against cProfile on acceptance c05's smt run.

    python3 bench/crosscheck.py

Runs the smt op on the unjittered c05 grid (25 radii in [5, 40]) in two
fresh interpreters: once traced, for the layer split of the wall time, and
once traced under cProfile, whose call count of every wrapped function must
equal the number of spans the tracer recorded for it.  cProfile also counts
primitive calls, which leave out calls made while the same function is
already on the stack (divisor_in_disc recurses through products).  Exits 1
on a count mismatch.
"""

from __future__ import annotations

import sys
import time

from run import spawn
from workloads import Smt


def main() -> int:
    spec = {"workload": "smt", "cli": True, "mode": "run",
            "ops": [{"argv": Smt.argv(5.0, 40.0)}], "trace": True}
    deadline = time.monotonic() + 600.0
    traced, _ = spawn(spec, deadline)
    profiled, _ = spawn({**spec, "profile": True}, deadline)
    if traced["failed"] or profiled["failed"]:
        print("the smt op failed its checks", file=sys.stderr)
        return 1

    print(f"{'function':36s} {'traced':>8s} {'cProfile':>9s} {'primitive':>9s}")
    mismatches = 0
    for name, prof in sorted(profiled["profile"]["functions"].items()):
        spans = profiled["span_counts"].get(name, 0)
        if spans or prof["calls"]:
            mismatches += spans != prof["calls"]
            print(f"{name:36s} {spans:8d} {prof['calls']:9d} {prof['primitive']:9d}"
                  + ("  MISMATCH" if spans != prof["calls"] else ""))

    layers, wall = traced["layers"], traced["wall_s"]
    roots = layers["fnmodel.poly_roots_self_s"]
    divisor = roots + layers["fnmodel.divisor_self_s"]
    funcs, total = profiled["profile"]["functions"], profiled["profile"]["total_s"]
    print(f"traced run: wall {wall:.3f} s; fnmodel divisor work (poly_roots + "
          f"divisor_in_disc self) {divisor:.3f} s = {divisor / wall:.1%}, "
          f"of which poly_roots {roots / wall:.1%}")
    print(f"cProfile run: {total:.3f} s profiled; poly_roots cumulative "
          f"{funcs['fnmodel.poly_roots']['cumtime'] / total:.1%}, divisor_in_disc "
          f"cumulative {funcs['fnmodel.divisor_in_disc']['cumtime'] / total:.1%}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
