"""The benchmark's three workloads: inputs from a seed, ops, checks.

``generate`` runs in run.py and needs only the standard library, so
the same seed gives the same inputs everywhere.  The rest runs in the
worker, after nevlab is imported: ``prepare`` builds what the ops need
(untimed), ``run`` executes one op through a public entry point (timed),
and ``check`` judges every op after the timed phase.  A check returns
``(ok, err, why)`` per op, ``err`` being the error against an independent
reference in units of the tolerance the op ran with, or ``None``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random

# the tolerances characteristic() runs with by default
CHAR_ATOL, CHAR_RTOL = 1e-9, 1e-8


def _log_uniform_strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One log-uniform radius in each of n equal log-cells of [lo, hi].

    Stratifying keeps the share of radii that land inside an orbit cloud
    (where quadrature refines most) the same for every seed.
    """
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]


def _fmt_complex(a: complex) -> str:
    return f"{a.real!r}{a.imag:+}i"


class Sweep:
    cli = False
    # key, rmin, rmax, characteristic radii, contour-count radii among them
    FUNCTIONS = (
        ("orbit_left_30", 1.0, 3.0e3, 32, 8),
        ("orbit_right_60", 1.0, 1.0e12, 64, 8),
        ("exp_exp_z", 0.5, 28.0, 60, 0),
        ("exp_z3", 0.5, 30.0, 60, 0),
        ("rat_pole0", 1.0, 1.0e3, 60, 0),
    )

    def generate(self, rng: random.Random) -> list[dict]:
        ops = []
        for key, lo, hi, n, n_count in self.FUNCTIONS:
            radii = _log_uniform_strata(rng, lo, hi, n)
            ops += [{"kind": "char", "fn": key, "r": r} for r in radii]
            if n_count:
                step = n // n_count
                ops += [{"kind": "count", "fn": key,
                         "r": radii[j * step + rng.randrange(step)]}
                        for j in range(n_count)]
        return ops

    def prepare(self, nevlab) -> dict:
        members = nevlab.corpus()
        exprs = {key: members[key].expr for key in ("exp_exp_z", "exp_z3", "rat_pole0")}
        exprs["orbit_left_30"] = nevlab.build_orbit_function(nevlab.figure_family("left", 30))
        exprs["orbit_right_60"] = nevlab.build_orbit_function(nevlab.figure_family("right", 60))
        return exprs

    def run(self, nevlab, exprs, op):
        if op["kind"] == "char":
            return nevlab.characteristic(exprs[op["fn"]], op["r"])
        return nevlab.argument_principle_count(exprs[op["fn"]], op["r"])

    def check(self, nevlab, exprs, ops, results) -> list[tuple]:
        verdicts = []
        last_T: dict[str, tuple] = {}  # fn -> (r_used, T, tol) of the previous radius
        for op, s in zip(ops, results):
            key, r = op["fn"], op["r"]
            if op["kind"] == "count":
                div = exprs[key].divisor_in_disc(r)
                net = div.total("zeros") - div.total("poles")
                verdicts.append((s == net, None, f"{key} r={r!r}: count {s} vs divisor {net}"))
                continue
            tol = max(CHAR_ATOL, CHAR_RTOL * abs(s.m))
            ok, err, why = True, None, ""
            prev = last_T.get(key)
            if prev and s.T < prev[1] - (tol + prev[2]):
                ok, why = False, f"{key}: T({s.r_used!r}) = {s.T!r} < T({prev[0]!r}) = {prev[1]!r}"
            last_T[key] = (s.r_used, s.T, tol)
            if key == "exp_z3":
                ref = s.r_used**3 / math.pi
                err = abs(s.T - ref) / max(CHAR_ATOL, CHAR_RTOL * ref)
            elif key == "rat_pole0":
                ref_N = math.log(s.r_used)
                err = max(abs(s.m) / CHAR_ATOL,
                          abs(s.N - ref_N) / max(CHAR_ATOL, CHAR_RTOL * ref_N))
            if err is not None and err > 1.0:
                ok, why = False, f"{key} r={r!r}: error {err:.3g} tolerances"
            verdicts.append((ok, err, why))
        return verdicts


def _cli(nevlab, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = nevlab.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Smt:
    cli = True
    LATTICE_RADII = (10.0, 25.0, 40.0)

    @staticmethod
    def argv(rmin: float, rmax: float) -> list[str]:
        """Acceptance c05's deficiency-sum configuration on a given grid."""
        return ["verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
                "--targets", "1,-1", "--rmin", repr(rmin), "--rmax", repr(rmax),
                "--count", "25"]

    def generate(self, rng: random.Random) -> list[dict]:
        # Jitter stays inside the radius quanta c05's grid already touches,
        # so every seed enumerates the same branches.
        rmin = 5.0 * math.exp(rng.uniform(-0.05, 0.05))
        rmax = 40.0 * math.exp(rng.uniform(-0.05, 0.05))
        return [{"argv": self.argv(rmin, rmax)}]

    def prepare(self, nevlab):
        return None

    def run(self, nevlab, state, op):
        return _cli(nevlab, op["argv"])

    def check(self, nevlab, state, ops, results) -> list[tuple]:
        # The correction difference exp(z^2+z) - exp(z^2) = exp(z^2)(exp(z) - 1)
        # has a simple zero at 0 and on the lattice 2 pi i k, nothing else.
        pair = nevlab.PolyPair.build(nevlab.Polynomial.parse("z^2+z"),
                                     nevlab.Polynomial.parse("z^2"))
        f = nevlab.corpus()["exp_z"].expr
        diff = nevlab.subtract(nevlab.compose_poly(f, pair.omega),
                               nevlab.compose_poly(f, pair.phi))
        two_pi = 2.0 * math.pi
        lattice_ok = []
        for r in self.LATTICE_RADII:
            kmax = int(r // two_pi)
            expected = nevlab.Divisor.build(
                [(two_pi * 1j * k, 1) for k in range(-kmax, kmax + 1) if k != 0],
                origin_order=1)
            lattice_ok.append(diff.divisor_in_disc(r) == expected)
        verdicts = []
        for code, out, err in results:
            if code != 0:
                verdicts.append((False, None, f"exit code {code}: {err.strip()}"))
            elif json.loads(out)["verdict"] != "pass":
                verdicts.append((False, None, "verdict is not pass"))
            elif not all(lattice_ok):
                verdicts.append((False, None, f"divisor off the lattice: {lattice_ok}"))
            else:
                verdicts.append((True, None, ""))
        return verdicts


class Census:
    cli = True

    def generate(self, rng: random.Random) -> list[dict]:
        generic = []
        for _ in range(2):
            modulus, angle = rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi)
            generic.append(_fmt_complex(complex(modulus * math.cos(angle),
                                                modulus * math.sin(angle))))
        return [
            {"side": "left", "generations": 30, "values": ["0", "inf"] + generic,
             "expect_code": 2},
            {"side": "right", "generations": 60, "values": ["0", "inf"],
             "expect_code": 0},
        ]

    def prepare(self, nevlab):
        return None

    def run(self, nevlab, state, op):
        return _cli(nevlab, ["census", "--figure1", op["side"],
                             "--generations", str(op["generations"]),
                             "--values", ",".join(op["values"])])

    def check(self, nevlab, state, ops, results) -> list[tuple]:
        verdicts = []
        for op, (code, out, err) in zip(ops, results):
            if code != op["expect_code"]:
                verdicts.append((False, None, f"exit code {code}: {err.strip()}"))
                continue
            payload = json.loads(out)
            R, tol = payload["config"]["radius"], payload["config"]["tol"]
            family = nevlab.figure_family(op["side"], op["generations"])
            in_disc = {
                "0": sum(abs(p) <= R for orb in family.points_zero for p in orb),
                "inf": sum(abs(p) <= R for orb in family.points_pole for p in orb),
            }
            problems, err_max = [], 0.0
            for rep in payload["reports"]:
                v = rep["value"]
                if v not in in_disc:
                    if rep["verdict"]:
                        problems.append(f"generic value {v} passed")
                    continue
                # a match is accepted within tol * (1 + |image|) and every
                # in-disc image has modulus <= R
                err_max = max(err_max, rep["max_matched_distance"] / (tol * (1.0 + R)))
                if not rep["verdict"] or rep["n_violations"]:
                    problems.append(f"value {v}: {rep['n_violations']} violations")
                if rep["n_points"] != in_disc[v]:
                    problems.append(f"value {v}: {rep['n_points']} points, "
                                    f"family has {in_disc[v]} in the disc")
                if rep["n_matched"] + rep["n_boundary_leaks"] != rep["n_points"]:
                    problems.append(f"value {v}: images unaccounted for")
            if err_max > 1.0:
                problems.append(f"matched distance {err_max:.3g} tolerances")
            verdicts.append((not problems, err_max, "; ".join(problems)))
        return verdicts


WORKLOADS = {"sweep": Sweep(), "smt": Smt(), "census": Census()}
