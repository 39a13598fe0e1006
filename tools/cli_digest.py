"""Digest of the nevlab CLI's byte contract, one line per command.

Runs every command of ``COMMANDS`` and every demo in a fresh interpreter on
the ``src/`` tree of a checkout, and prints per command the exit code, the
sha256 of stdout, the sha256 of stderr and the argv.  Two checkouts print the
same lines exactly when every command gives them the same bytes, so a change
is checked against its parent with

    python3 tools/cli_digest.py > change.txt
    python3 tools/cli_digest.py /path/to/parent/checkout > parent.txt
    diff parent.txt change.txt

The only argument is the checkout to run; it defaults to the one that holds
this script.  Only stdout, stderr and the exit code are compared, so no
listed command writes a file: the one ``--out`` goes to ``/dev/stdout``,
where smt's per-radius rows show its reciprocal means.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import subprocess
import sys

CORPUS = ("exp_z", "exp_z2", "exp_z3", "rat_zero1_pole2", "rat_zero1_polem1",
          "rat_pole0", "exp_exp_z", "expz_minus_1", "expz2_minus_1",
          "orbit_left_m6", "orbit_right_m6")
# the census workload's ops, with the generic values of its seed 7
CENSUS_VALUES = "0,inf,-0.5751455743105502-0.8005678919708082i,-1.3261093622013884-0.6489961228488729i"

COMMANDS = [
    *(["char", "--fn", key] for key in CORPUS),
    *(["char", "--fn", key, "--radii", "1e-200,1e-8"] for key in CORPUS),
    *(["char", "--fn", key, "--radii", "1e8,1e200"] for key in CORPUS),
    ["char", "--fn", "orbit_left_m6", "--rmin", "0.5", "--rmax", "40", "--count", "12"],
    # a crossing pair between two scan samples, and circles the divisor bound decides
    ["char", "--fn", "orbit_left_m6", "--radii", "8.21086325832621"],
    ["char", "--fn", "orbit_right_m6", "--rmin", "1", "--rmax", "1e6", "--count", "12"],
    # radii on divisor points: the nudge, the band and the closed disc of restrict
    ["char", "--fn", "rat_zero1_pole2", "--radii", "1,2"],
    ["char", "--fn", "orbit_right_m6", "--radii", "1,56.25968530461196,15122.494343117332"],
    ["char", "--fn", "orbit_left_m6", "--radii", "4,6.272714415569453"],
    ["census", "--figure1", "left", "--generations", "6", "--radius", "4"],
    # the tower's closed mean to the edge of its range, then the quadrature
    ["char", "--fn", "exp_exp_z", "--radii", "28,60,200,400"],
    ["char", "--fn", "const_5", "--radii", "1,2"],
    ["char", "--fn", "nope", "--radii", "1"],
    ["hyperorder", "--fn", "exp_z"],
    ["hyperorder", "--fn", "exp_exp_z", "--rmin", "1", "--rmax", "3", "--count", "12"],
    ["hyperorder", "--fn", "orbit_right_m6"],
    ["hyperorder", "--fn", "rat_pole0"],
    ["verify", "pest"],
    ["verify", "lemma1"],
    ["verify", "asym", "--fn", "exp_z", "--omega", "z^2+z"],
    # compositions of a rational
    ["verify", "lemma1", "--fn", "orbit_left_m6", "--count", "12"],
    # a rational pulled back through degree 2 on both sides
    ["verify", "lemma1", "--fn", "orbit_left_m6", "--omega", "z^2+z", "--phi", "z^2",
     "--count", "12"],
    ["verify", "asym", "--fn", "orbit_left_m6", "--omega", "z+1", "--count", "12"],
    ["verify", "asym", "--fn", "orbit_left_m6", "--omega", "z^2+z", "--count", "12"],
    ["verify", "smt"],
    ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
     "--targets", "1,-1", "--rmin", "5", "--rmax", "40", "--count", "25"],
    ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
     "--targets", "1,-1", "--rmin", "5", "--rmax", "40", "--count", "25",
     "--out", "/dev/stdout"],
    ["verify", "borel", "--fn", "exp_z"],
    ["verify", "borel", "--fn", "exp_z", "--epsilon", "1e-12"],
    ["verify", "borel", "--fn", "all", "--rmax", "20", "--count", "20"],
    ["verify", "growth", "--profile", "exp_sqrt_r", "--rmin", "1", "--rmax", "100000",
     "--count", "150"],
    ["verify", "growth", "--profile", "exp_r"],
    ["verify", "growth", "--profile", "power"],
    ["verify", "growth", "--fn", "exp_exp_z", "--rmin", "1", "--rmax", "3"],
    # malformed harness inputs
    ["verify", "borel", "--epsilon", "0"],
    ["verify", "borel", "--epsilon", "-1"],
    ["verify", "borel", "--epsilon", "inf"],
    ["verify", "growth", "--profile", "exp_r", "--step-k", "nan"],
    ["verify", "growth", "--profile", "exp_r", "--step-k", "-5"],
    ["verify", "growth", "--profile", "exp_r", "--radii", "1,2,3,4,5,nan,7,8,9,10,11,12"],
    ["verify", "pest", "--trials", "-5"],
    # one-radius and decreasing grids, and a lockstep sweep of exp(z^2) - 1
    ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
     "--targets", "1,-1", "--radii", "10"],
    ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
     "--targets", "1,-1", "--radii", "40,10"],
    # both radii on zeros of exp(z^2) - 1: nudged circles cut from the grid's one read
    ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
     "--targets", "1,-1", "--radii", "2.5066282746310002,5.0132565492620005"],
    ["char", "--fn", "expz2_minus_1", "--rmin", "5", "--rmax", "40", "--count", "25"],
    # an unsorted grid across three discs: the largest is solved first whatever the order
    ["char", "--fn", "expz2_minus_1", "--radii", "40,5,20"],
    # f(omega) - f(phi) with no rewrite into the family
    ["verify", "smt", "--fn", "expz_minus_1"],
    ["verify", "smt", "--fn", "orbit_left_m6"],
    ["verify", "smt", "--slack", "nan"],
    ["verify", "smt", "--targets", "1,nan"],
    ["orbit", "--figure1", "left", "--seed", "4", "--k", "10"],
    ["orbit", "--figure1", "right", "--seed", "1", "--k", "10", "--mode", "track"],
    ["orbit", "--figure1", "left", "--seed", "1e400", "--k", "2"],
    ["construct", "--figure1", "left"],
    ["construct", "--figure1", "right", "--generations", "6"],
    ["census", "--figure1", "left", "--generations", "30", "--values", CENSUS_VALUES],
    ["census", "--figure1", "right", "--generations", "60", "--values", "0,inf"],
    ["census", "--figure1", "left"],
    ["census", "--figure1", "right", "--generations", "6", "--values", "0,inf,1"],
    ["census", "--figure1", "left", "--generations", "6", "--radius", "3"],
    ["census", "--figure1", "left", "--generations", "6", "--tol", "inf"],
    # spellings of the pole value and non-finite values
    ["census", "--figure1", "left", "--generations", "6", "--values", "0,INF,oo"],
    ["census", "--figure1", "left", "--generations", "6", "--values", "0,1e400"],
    ["census", "--figure1", "left", "--generations", "6", "--values", "0,nan"],
    ["census", "--figure1", "left", "--generations", "6", "--values", "0, inf"],
    ["counterexample"],
    ["counterexample", "--k", "3", "--probes", "20"],
    # help and usage errors, which build one subparser or none
    ["--help"],
    *([cmd, "--help"] for cmd in ("char", "hyperorder", "verify", "orbit", "construct",
                                  "census", "counterexample")),
    ["census"],
    ["bogus"],
    [],
]


def main(argv: list[str]) -> int:
    root = pathlib.Path(argv[0] if argv else pathlib.Path(__file__).parents[1]).resolve()
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    runs = [(cmd, [sys.executable, "-m", "nevlab.cli", *cmd]) for cmd in COMMANDS]
    runs += [([f"demos/{demo.name}"], [sys.executable, str(demo)])
             for demo in sorted((root / "demos").glob("*.py"))]
    for label, run in runs:
        done = subprocess.run(run, capture_output=True, env=env, cwd=root)
        print(done.returncode, hashlib.sha256(done.stdout).hexdigest(),
              hashlib.sha256(done.stderr).hexdigest(), *label, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
