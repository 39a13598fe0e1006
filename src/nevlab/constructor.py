"""Builders for the package's concrete showcase objects.

Three constructions live here:

* orbit families: two seed sets iterated under a fixed-branch algebraic map,
  truncated at M generations, turned into a rational function with simple
  zeros on one family and simple poles on the other.  By construction the
  map sends each generation onto the next, so the zero and pole multisets
  are forward invariant up to the truncation boundary.
* the double-exponential tower exp(exp z) with the translation log(k+1),
  whose roots-of-unity targets have forward-invariant solution sets; ships
  with identity and pre-image verifiers.
* the named corpus: a deterministic registry of test functions with known
  growth tags, shared by the verification harnesses and the CLI.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .algmap import AlgebraicMap, Orbit, binomial_shift_map, orbit
from .core import OrbitCollision, Polynomial, record
from .divisor import Divisor
from .fnmodel import Exp, ExpPoly, FunctionExpr, RationalFromDivisor

_Z = Polynomial((0j, 1.0 + 0j))
# identity_probe_points draws its probes uniformly from the disc of this radius
PROBE_RADIUS = 2.0


# ---------------------------------------------------------------------------
# orbit families
# ---------------------------------------------------------------------------


@record
class OrbitFamily:
    map: AlgebraicMap
    seeds_zero: tuple[complex, ...]
    seeds_pole: tuple[complex, ...]
    generations: int
    # per seed: generations 0..M-1
    points_zero: tuple[tuple[complex, ...], ...]
    points_pole: tuple[tuple[complex, ...], ...]
    # generation M, used to place the census boundary
    next_zero: tuple[complex, ...]
    next_pole: tuple[complex, ...]

    def all_points(self) -> list[complex]:
        out = []
        for orb in self.points_zero + self.points_pole:
            out.extend(orb)
        return out

    def census_radius(self) -> float:
        """A radius containing no generation-M point.

        The seed families spread enough that generation moduli interleave
        across seeds, so no disc contains every generation-(M-1) point while
        excluding all of generation M.  Placing the boundary just inside the
        nearest generation-M point keeps the census sound: every tested
        image either matches a stored divisor point or leaves the disc.
        """
        first_out = min(abs(p) for p in self.next_zero + self.next_pole)
        r = 0.999 * first_out
        # keep divisor points comfortably off the boundary
        for p in self.all_points():
            if abs(abs(p) - r) < 1e-6 * r:
                r *= 0.9999
        return r


def build_orbit_family(m: AlgebraicMap, seeds_zero, seeds_pole,
                       generations: int) -> OrbitFamily:
    if generations < 1:
        raise ValueError("need at least one generation")
    seeds_zero = tuple(complex(s) for s in seeds_zero)
    seeds_pole = tuple(complex(s) for s in seeds_pole)
    horizon = max(40, generations + 10)
    orbits: dict[complex, Orbit] = {}
    for s in seeds_zero + seeds_pole:
        orb = orbit(m, s, horizon)
        if orb.classification != "escaped":
            raise ValueError(
                f"seed {s} is classified {orb.classification!r}; "
                "orbit functions need escaping seeds"
            )
        orbits[s] = orb

    def truncate(seeds):
        kept, nxt = [], []
        for s in seeds:
            pts = orbits[s].points
            kept.append(tuple(pts[:generations]))
            nxt.append(pts[generations])
        return tuple(kept), tuple(nxt)

    pz, nz = truncate(seeds_zero)
    pp, npole = truncate(seeds_pole)

    # the divisor merge decides coincidence: a merged multiplicity above 1
    # is a collision, at the merged point
    d = Divisor.build((p, 1) for orb in pz + pp for p in orb)
    hit = d.points[d.mults > 1].tolist() + [0j] * (d.origin_order > 1)
    if hit:
        raise OrbitCollision(f"two orbit points coincide within tolerance at {hit[0]}")
    return OrbitFamily(map=m, seeds_zero=seeds_zero, seeds_pole=seeds_pole,
                       generations=generations, points_zero=pz, points_pole=pp,
                       next_zero=nz, next_pole=npole)


def build_orbit_function(family: OrbitFamily) -> RationalFromDivisor:
    """Simple zeros on the zero family's orbit points, simple poles on the
    pole family's.  The family has no two points within the merge
    tolerance, so the merge keeps every point as it is."""
    pairs = [(p, 1) for orb in family.points_zero for p in orb]
    pairs += [(p, -1) for orb in family.points_pole for p in orb]
    return RationalFromDivisor(1.0, Divisor.build(pairs))


def divisor_cloud(family: OrbitFamily) -> list[tuple[str, int, float, float]]:
    """Rows (set, generation, re, im) for the point-cloud export."""
    rows = []
    for orb in family.points_zero:
        for g, p in enumerate(orb):
            rows.append(("P1", g, p.real, p.imag))
    for orb in family.points_pole:
        for g, p in enumerate(orb):
            rows.append(("P2", g, p.real, p.imag))
    return rows


# figure presets: the two documented seed/map configurations


def left_figure_map() -> AlgebraicMap:
    return AlgebraicMap(n=2, alphas=(0j, 0.5 + 0.2j))


def left_figure_seeds() -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    s3 = math.sqrt(3.0)
    zeros = (4 + 0j, -4 + 0j, 2 + 2j * s3, 2 - 2j * s3, -2 + 2j * s3, -2 - 2j * s3)
    poles = (4j, -4j, 2 * s3 + 2j, 2 * s3 - 2j, -2 * s3 + 2j, -2 * s3 - 2j)
    return zeros, poles


def right_figure_map() -> AlgebraicMap:
    return binomial_shift_map(10, 0.5 + 0.5j)


def right_figure_seeds() -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    h = math.sqrt(2.0) / 2.0
    zeros = (1 + 0j, -1 + 0j, 1j, h + h * 1j, -h + h * 1j)
    poles = (-1j, h - h * 1j, -h - h * 1j)
    return zeros, poles


def figure_family(side: str, generations: int | None = None) -> OrbitFamily:
    if side == "left":
        m, (sz, sp) = left_figure_map(), left_figure_seeds()
        gens = 30 if generations is None else generations
    elif side == "right":
        m, (sz, sp) = right_figure_map(), right_figure_seeds()
        gens = 20 if generations is None else generations
    else:
        raise ValueError("side must be 'left' or 'right'")
    return build_orbit_family(m, sz, sp, gens)


# ---------------------------------------------------------------------------
# the double-exponential tower
# ---------------------------------------------------------------------------


@record
class CounterexampleKit:
    k: int
    g: FunctionExpr
    shift: float
    targets: tuple[complex, ...]


def counterexample_kit(k: int) -> CounterexampleKit:
    """exp(exp z) with the translation by log(k+1) and k-th roots of unity.

    The defining identity is g(z + log(k+1)) = g(z)^{k+1}; each root of
    unity xi satisfies xi^{k+1} = xi, so its solution set is forward
    invariant under the translation.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    targets = tuple(cmath.exp(2j * math.pi * j / k) for j in range(k))
    return CounterexampleKit(k=k, g=Exp(_Z), shift=math.log(k + 1),
                             targets=targets)


def identity_residuals(kit: CounterexampleKit, points) -> np.ndarray:
    """Relative residual of g(z + shift) = g(z)^(k+1) at each probe point."""
    out = []
    for z in points:
        z = complex(z)
        lhs = kit.g.eval(z + kit.shift)
        rhs = kit.g.eval(z) ** (kit.k + 1)
        out.append(abs(lhs - rhs) / abs(rhs))
    return np.asarray(out)


def identity_probe_points(count: int = 100, seed: int = 20260815) -> np.ndarray:
    rng = np.random.default_rng(seed)
    r = PROBE_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, count))
    th = rng.uniform(0.0, 2.0 * math.pi, count)
    return r * np.exp(1j * th)


def counterexample_preimages(kit: CounterexampleKit, j: int, count: int) -> list[complex]:
    """``count`` solutions of exp(exp z) = xi_j, principal logs throughout.

    Solutions are z = Log(Log xi_j + 2 pi i m) over integers m, enumerated
    outward from m = 0 (skipping any m that makes the inner value vanish).
    """
    if not 0 <= j < kit.k:
        raise ValueError("target index out of range")
    base = cmath.log(kit.targets[j])
    out: list[complex] = []
    ms = [0]
    for step in range(1, 2 * count + 2):
        ms.extend([step, -step])
    for m_int in ms:
        if len(out) >= count:
            break
        inner = base + 2j * math.pi * m_int
        if inner == 0:
            continue
        out.append(cmath.log(inner))
    return out


# ---------------------------------------------------------------------------
# corpus registry
# ---------------------------------------------------------------------------


@record
class CorpusMember:
    key: str
    expr: FunctionExpr
    hyper_tag: float | None  # expected hyper-order; None = growth untagged
    note: str


def _small_rational(zeros, poles) -> RationalFromDivisor:
    pairs = [(z, 1) for z in zeros] + [(p, -1) for p in poles]
    return RationalFromDivisor(1.0, Divisor.build(pairs))


# key -> (builder, hyper_tag, note): corpus() builds every member, the CLI
# only the one it is asked for
CORPUS_TABLE = {
    "exp_z": (lambda: ExpPoly(_Z), 0.0, "order-1 entire"),
    "exp_z2": (lambda: ExpPoly(Polynomial((0j, 0j, 1.0))), 0.0, "order-2 entire"),
    "exp_z3": (lambda: ExpPoly(Polynomial((0j, 0j, 0j, 1.0))), 0.0, "order-3 entire"),
    "rat_zero1_pole2": (lambda: _small_rational([1.0], [2.0]), 0.0,
                        "degree-1 rational, zero at 1, pole at 2"),
    "rat_zero1_polem1": (lambda: _small_rational([1.0], [-1.0]), 0.0,
                         "degree-1 rational, zero at 1, pole at -1"),
    "rat_pole0": (lambda: RationalFromDivisor(1.0, Divisor((), -1)), 0.0,
                  "reciprocal of the identity"),
    "exp_exp_z": (lambda: Exp(_Z), 1.0, "double exponential tower"),
    "expz_minus_1": (lambda: ExpPoly(_Z, 1.0), 0.0,
                     "exp(z) - 1, zeros on the imaginary lattice"),
    "expz2_minus_1": (lambda: ExpPoly(Polynomial((0j, 0j, 1.0)), 1.0), 0.0, "exp(z^2) - 1"),
    "orbit_left_m6": (lambda: build_orbit_function(figure_family("left", 6)), 0.0,
                      "orbit rational, left configuration, 6 generations"),
    "orbit_right_m6": (lambda: build_orbit_function(figure_family("right", 6)), 0.0,
                       "orbit rational, right configuration, 6 generations"),
}


def corpus() -> dict[str, CorpusMember]:
    """Deterministic registry of named test functions."""
    return {key: CorpusMember(key, build(), tag, note)
            for key, (build, tag, note) in CORPUS_TABLE.items()}
