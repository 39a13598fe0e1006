"""Adaptive circle quadrature against independently computed integrals."""

import bisect
import math

import numpy as np
import pytest

from nevlab import quadrature
from nevlab.fnmodel import QuadratureFailure, TWO_PI
from nevlab.quadrature import (MERGE_GAP, MIN_WIDTH, PANEL_ORDER, SEED_LEVELS,
                               QuadratureResult, adaptive_circle, adaptive_circles)

# reference values computed with mpmath.quad at 30 digits
EXP_SIN_INTEGRAL = 7.9549265210128452745       # = 2 pi I_0(1)
NEG_POWER_ON_CIRCLE = 7.1283328107215635462    # integral of |e^{2it}-1|^{-0.45}
OFF_CIRCLE_NEG_SQRT = 4.5202281879712915817    # integral of |2e^{it}-1|^{-1/2}
ON_CIRCLE = [(0.0, 0.0), (math.pi, 0.0)]       # cuts at the singularities of e^{2it} - 1


def test_gauss_legendre_table_is_leggauss_bit_for_bit():
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)
    assert x.tobytes() == quadrature._GL_X.tobytes()
    assert w.tobytes() == quadrature._GL_W.tobytes()


def test_constant_integrand():
    res = adaptive_circle(lambda t: np.ones_like(t))
    assert res.value == pytest.approx(TWO_PI, rel=1e-13)


def test_smooth_periodic_integrand():
    res = adaptive_circle(lambda t: np.exp(np.sin(t)), atol=1e-12, rtol=1e-11)
    assert res.value == pytest.approx(EXP_SIN_INTEGRAL, rel=1e-10)
    assert res.err_estimate < 1e-8


def test_cos_squared():
    res = adaptive_circle(lambda t: np.cos(t) ** 2)
    assert res.value == pytest.approx(math.pi, rel=1e-12)


def test_integrable_singularity_off_circle():
    def f(t):
        return np.abs(2.0 * np.exp(1j * t) - 1.0) ** -0.5

    res = adaptive_circle(f, atol=1e-10, rtol=1e-9)
    assert res.value == pytest.approx(OFF_CIRCLE_NEG_SQRT, rel=1e-8)


def test_singularity_on_circle_with_split_angles():
    # |z^2 - 1|^{-0.45} on |z| = 1: genuine integrable singularities at 0, pi
    def f(t):
        with np.errstate(divide="ignore"):
            return np.exp(-0.45 * np.log(np.abs(np.exp(2j * t) - 1.0)))

    res = adaptive_circle(f, cuts=ON_CIRCLE, atol=1e-8, rtol=1e-7)
    assert res.value == pytest.approx(NEG_POWER_ON_CIRCLE, rel=1e-6)


def test_log_singularity_cancels_to_zero():
    """Circle mean of log|z^2-1| on |z|=1 vanishes (mean-value property);
    this is the cancellation-noise regime the global error cutoff exists for."""
    def f(t):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(np.exp(2j * t) - 1.0))

    res = adaptive_circle(f, cuts=ON_CIRCLE, atol=1e-9, rtol=1e-8)
    assert abs(res.value) < 1e-8
    assert res.panels < 20000


def test_interior_nan_raises():
    def f(t):
        out = np.sin(t)
        out[(t > 1.0) & (t < 1.2)] = np.nan
        return out

    with pytest.raises(QuadratureFailure):
        adaptive_circle(f)


def test_split_angles_are_normalized():
    # duplicated and out-of-range cuts must not break panel construction; a
    # merged cut keeps the smaller distance, and 2pi is the angle 0
    cuts = [(0.0, math.inf), (TWO_PI, 0.0), (-math.pi, math.inf), (math.pi, 0.5),
            (math.pi, 0.0), (TWO_PI - 0.1 * MERGE_GAP, math.inf)]
    res = adaptive_circle(lambda t: np.ones_like(t), cuts=cuts)
    assert res.value == pytest.approx(TWO_PI, rel=1e-13)
    assert res == adaptive_circle(lambda t: np.ones_like(t), cuts=ON_CIRCLE)
    # a negative angle is the same edge as its value mod 2pi
    f, calls = _counted(lambda t: np.ones_like(t))
    adaptive_circle(f, cuts=[(-math.pi / 2, 0.0)])
    g, want = _counted(lambda t: np.ones_like(t))
    adaptive_circle(g, cuts=[(1.5 * math.pi, 0.0)])
    assert calls == want == [3 * PANEL_ORDER * 2 * (1 + SEED_LEVELS)]


@pytest.mark.parametrize("atol, rtol", [(math.nan, 1e-8), (1e-9, math.nan),
                                        (math.inf, 1e-8), (1e-9, math.inf),
                                        (-1.0, 1e-8), (1e-9, -1e-3), (0.0, 0.0)])
def test_bad_tolerances_raise_before_any_evaluation(atol, rtol):
    calls = []
    with pytest.raises(ValueError):
        adaptive_circle(lambda t: calls.append(t) or np.ones_like(t), atol=atol, rtol=rtol)
    assert not calls


# ---------------------------------------------------------------------------
# the split-and-compare loop as it stood before each round became one call,
# seeded by distance-graded cuts
# ---------------------------------------------------------------------------


def _reference_levels(width, distance):
    """clip(ceil(log2(width / (2 distance))), 0, SEED_LEVELS), spelled out."""
    if distance == 0:
        return SEED_LEVELS
    if distance == math.inf:
        return 0
    return min(max(math.ceil(math.log2(width / (2.0 * distance))), 0), SEED_LEVELS)


def _reference_adaptive_circle(f, cuts=(), atol=1e-10, rtol=1e-8,
                               max_rounds=60, max_panels=20000):
    """Three integrand calls in the first round, two in each later one."""
    x, w = np.polynomial.legendre.leggauss(PANEL_ORDER)

    def panel_values(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        theta = mid[:, None] + half[:, None] * x[None, :]
        return half * (f(theta.ravel()).reshape(theta.shape) @ w)

    # one distance per edge: the smallest among the cuts merged into it,
    # with 0 and 2pi one edge
    angles, dist = [0.0], {0.0: math.inf}
    for a, d in sorted((float(a) % TWO_PI, float(d)) for a, d in cuts):
        if a - angles[-1] > MERGE_GAP:
            angles.append(a)
            dist[a] = d
        else:
            dist[angles[-1]] = min(dist[angles[-1]], d)
    if angles[-1] >= TWO_PI - MERGE_GAP:
        dist[0.0] = min(dist[0.0], dist.pop(angles.pop()))
    angles.append(TWO_PI)
    dist[TWO_PI] = dist[0.0]
    lo_list, hi_list = [], []
    for a, b in zip(angles[:-1], angles[1:]):
        la, lb = _reference_levels(b - a, dist[a]), _reference_levels(b - a, dist[b])
        knots = [a] + [a + (b - a) * 0.5**k for k in range(la, 0, -1)]
        knots += [b - (b - a) * 0.5**k for k in range(1, lb + 1)] + [b]
        knots = sorted(set(knots))
        lo_list += knots[:-1]
        hi_list += knots[1:]
    lo, hi = np.array(lo_list), np.array(hi_list)
    evaluations = 0

    def safe_values(lo_arr, hi_arr):
        nonlocal evaluations
        evaluations += lo_arr.size * PANEL_ORDER
        vals = panel_values(lo_arr, hi_arr)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            shrink = 1e-9 * (hi_arr[bad] - lo_arr[bad])
            vals2 = panel_values(lo_arr[bad] + shrink, hi_arr[bad] - shrink)
            evaluations += int(np.sum(bad)) * PANEL_ORDER
            if np.any(~np.isfinite(vals2)):
                raise QuadratureFailure("non-finite after a nudge retry")
            vals = vals.copy()
            vals[bad] = vals2
        return vals

    coarse = safe_values(lo, hi)
    acc_val, acc_err, acc_cnt = 0.0, 0.0, 0
    for _ in range(max_rounds):
        mid = 0.5 * (lo + hi)
        left, right = safe_values(lo, mid), safe_values(mid, hi)
        fine = left + right
        err = np.abs(coarse - fine)
        total_now = acc_val + float(np.sum(fine))
        etol = max(atol, rtol * abs(total_now))
        residual = acc_err + float(np.sum(err))
        if residual <= etol:
            return QuadratureResult(total_now, residual, acc_cnt + int(lo.size), evaluations)
        done = (err <= etol * (hi - lo) / TWO_PI) | (hi - lo <= MIN_WIDTH)
        acc_val += float(np.sum(fine[done]))
        acc_err += float(np.sum(err[done]))
        acc_cnt += int(np.sum(done))
        keep = ~done
        if not np.any(keep):
            return QuadratureResult(acc_val, acc_err, acc_cnt, evaluations)
        lo = np.concatenate([lo[keep], mid[keep]])
        hi = np.concatenate([mid[keep], hi[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
        if lo.size + acc_cnt > max_panels:
            raise QuadratureFailure("panel count exceeded")
    raise QuadratureFailure("tolerance not reached")


def _counted(f):
    calls = []

    def g(t):
        calls.append(t.size)
        return f(t)
    return g, calls


def _log_abs_z2_minus_1(t):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(np.exp(2j * t) - 1.0))


def _neg_power_z2_minus_1(t):
    with np.errstate(divide="ignore"):
        return np.exp(-0.45 * np.log(np.abs(np.exp(2j * t) - 1.0)))


def _nan_at_a_seed_node(t):
    """exp(sin t), NaN at one node of a seed panel: the nudge retry repairs it."""
    out = np.exp(np.sin(t))
    out[t == _SEED_NODE] = np.nan
    return out


# node 5 of the seed panel [0, 2pi] (no cuts), formed as the quadrature forms it
_LO, _HI = 0.0, TWO_PI
_X5 = np.polynomial.legendre.leggauss(PANEL_ORDER)[0][5]
_SEED_NODE = 0.5 * (_HI + _LO) + 0.5 * (_HI - _LO) * _X5

def _log_abs_near_point(t):
    """log|e^{it} - 1.3 e^{i}|: a log singularity log 1.3 off the axis at t = 1,
    seeded 1 level on [0, 1] and 3 (clipped from 4) on [1, 2pi]."""
    return np.log(np.abs(np.exp(1j * t) - 1.3 * np.exp(1j)))


def _plus_part_of_cos3(t):
    """max(cos 3t, 0): kinks at pi/6 + k pi/3."""
    return np.maximum(np.cos(3.0 * t), 0.0)


REFERENCE_CASES = {
    "smooth": (lambda t: np.exp(np.sin(3.0 * t)), {"atol": 1e-13, "rtol": 1e-13}),
    "split angles": (_neg_power_z2_minus_1, {"cuts": ON_CIRCLE, "atol": 1e-8, "rtol": 1e-7}),
    "nudged node": (_nan_at_a_seed_node, {}),
    "global exit": (_log_abs_z2_minus_1, {"cuts": ON_CIRCLE, "atol": 1e-9, "rtol": 1e-8}),
    "graded cut": (_log_abs_near_point, {"cuts": [(1.0, math.log(1.3))],
                                         "atol": 1e-12, "rtol": 1e-12}),
    "plain cuts": (_plus_part_of_cos3, {"cuts": [(math.pi / 6 + k * math.pi / 3, math.inf)
                                                 for k in range(6)],
                                        "atol": 1e-13, "rtol": 1e-13}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_one_call_per_round_equals_the_reference_loop(case):
    f, kwargs = REFERENCE_CASES[case]
    f_ref, ref_calls = _counted(f)
    f_new, new_calls = _counted(f)
    want = _reference_adaptive_circle(f_ref, **kwargs)
    got = adaptive_circle(f_new, **kwargs)
    assert got == want
    assert type(got.panels) is type(got.evaluations) is int
    assert sum(new_calls) == sum(ref_calls) == got.evaluations
    if case == "nudged node":
        assert got.evaluations > adaptive_circle(lambda t: np.exp(np.sin(t))).evaluations
    else:  # the reference calls f once for the seed panels, then twice a round
        assert len(new_calls) == (len(ref_calls) - 1) // 2


@pytest.mark.parametrize("distance, levels", [(0.0, SEED_LEVELS), (math.inf, 0), (1e-300, 3),
                                             (0.3, 3), (0.5, 2), (1.0, 1), (2.0, 0)])
def test_seed_levels_follow_the_distance(distance, levels):
    # a cut at pi splits [0, 2pi] into two panels of width pi, each refined
    # ceil(log2(pi / (2 distance))) levels toward pi only, clipped to [0, 3]
    f, calls = _counted(lambda t: np.exp(np.sin(t)))
    adaptive_circle(f, cuts=[(math.pi, distance)])
    seed_panels = 2 * (1 + levels)
    assert calls[0] == 3 * PANEL_ORDER * seed_panels  # coarse, left and right halves


def _nan_inside(t):
    out = np.sin(t)
    out[(t > 1.0) & (t < 1.2)] = np.nan
    return out


def _capped(monkeypatch, kwargs):
    """``kwargs`` without the cap ``max_panels``, which is set on the
    quadrature module instead, as it reads it per call."""
    kwargs = dict(kwargs)
    if "max_panels" in kwargs:
        monkeypatch.setattr(quadrature, "MAX_PANELS", kwargs.pop("max_panels"))
    return kwargs


@pytest.mark.parametrize("f, kwargs", [
    (_nan_inside, {}),
    (_log_abs_z2_minus_1, {"cuts": ON_CIRCLE, "atol": 1e-14, "rtol": 1e-14,
                           "max_panels": 60}),
], ids=["interior NaN", "max_panels"])
def test_failures_match_the_reference_loop(f, kwargs, monkeypatch):
    with pytest.raises(QuadratureFailure):
        _reference_adaptive_circle(f, **kwargs)
    with pytest.raises(QuadratureFailure) as info:
        adaptive_circle(f, **_capped(monkeypatch, kwargs))
    assert ("panel count" in str(info.value)) == ("max_panels" in kwargs)


@pytest.mark.parametrize("rounds", [1, 2, 5])
def test_the_integrand_is_called_once_per_round(rounds, monkeypatch):
    """No panel of this integrand is accepted at these tolerances in the
    first rounds, so round k ends with 2^k panels, and a cap of 2^rounds - 1
    panels stops the run after ``rounds``."""
    f, calls = _counted(lambda t: np.exp(np.sin(100.0 * t)))
    monkeypatch.setattr(quadrature, "MAX_PANELS", 2**rounds - 1)
    with pytest.raises(QuadratureFailure, match="panel count exceeded"):
        adaptive_circle(f, atol=1e-300, rtol=1e-300)
    assert len(calls) == rounds


def test_an_uncut_jump_ends_at_the_width_floor_without_a_round_cap():
    """A jump at an angle no cut marks is never resolved: the panel that
    holds it halves each round until MIN_WIDTH accepts it, within 56
    rounds of one integrand call each, and the run returns its value.  At
    these tolerances only a panel on which f is constant passes by its
    error estimate."""
    f, calls = _counted(lambda t: (t < 1.0).astype(float))
    res = adaptive_circle(f, atol=1e-300, rtol=1e-300)
    assert abs(res.value - 1.0) <= 1e-12
    assert len(calls) <= 56


# ---------------------------------------------------------------------------
# many circles in lockstep
# ---------------------------------------------------------------------------


# one integrand per circle, with its cuts and tolerances as a lone run takes them
LOCKSTEP_CIRCLES = [
    (lambda t: np.exp(np.sin(3.0 * t)), []),
    (_log_abs_z2_minus_1, ON_CIRCLE),
    (_log_abs_near_point, [(1.0, math.log(1.3))]),
    (_plus_part_of_cos3, [(math.pi / 6 + k * math.pi / 3, math.inf) for k in range(6)]),
    (lambda t: np.ones_like(t), []),
]


def _flat(cuts_per_circle):
    """The ``cuts, count`` arguments of :func:`adaptive_circles` for lists of
    (angle, distance) pairs, one list per circle."""
    angle = [a for cuts in cuts_per_circle for a, _ in cuts]
    dist = [d for cuts in cuts_per_circle for _, d in cuts]
    of = [c for c, cuts in enumerate(cuts_per_circle) for _ in cuts]
    return (np.array(angle, dtype=float), np.array(dist, dtype=float),
            np.array(of, dtype=np.intp)), len(cuts_per_circle)


def _by_circle(fs):
    """f(theta, circle) that evaluates circle c's nodes through fs[c], and the
    list of (nodes, circles) of every call."""
    calls = []

    def f(theta, circle):
        calls.append((theta.size, np.unique(circle).tolist()))
        out = np.empty(theta.size)
        for c in np.unique(circle).tolist():
            out[circle == c] = fs[c](theta[circle == c])
        return out
    return f, calls


def test_lockstep_circles_match_lone_runs():
    fs, cuts = zip(*LOCKSTEP_CIRCLES)
    f, calls = _by_circle(fs)
    got = adaptive_circles(f, *_flat(cuts), atol=1e-11, rtol=1e-10,
                           evaluations=[0, 5, 0, 7, 0])
    for c, (g, cut) in enumerate(LOCKSTEP_CIRCLES):
        lone = adaptive_circle(g, cut, atol=1e-11, rtol=1e-10, evaluations=[0, 5, 0, 7, 0][c])
        assert abs(got[c].value - lone.value) <= 1e-3 * max(1e-11, 1e-10 * abs(lone.value))
        assert (got[c].panels, got[c].evaluations) == (lone.panels, lone.evaluations)
    rounds = max(len(lone_calls) for lone_calls in [
        _counted_run(g, cut) for g, cut in LOCKSTEP_CIRCLES])
    assert len(calls) == rounds  # one call a round for all circles
    assert sum(n for n, _ in calls) == sum(r.evaluations for r in got) - 12


def _counted_run(g, cut):
    h, calls = _counted(g)
    adaptive_circle(h, cut, atol=1e-11, rtol=1e-10)
    return calls


def test_a_finished_circle_gets_no_more_nodes():
    fs, cuts = zip(*LOCKSTEP_CIRCLES)
    f, calls = _by_circle(fs)
    got = adaptive_circles(f, *_flat(cuts), atol=1e-11, rtol=1e-10)
    for c in range(len(fs)):
        seen = [c in circles for _, circles in calls]
        assert seen == sorted(seen, reverse=True)  # a prefix of the calls
        assert sum(seen) == len(_counted_run(fs[c], cuts[c]))
    assert got[-1].evaluations == 3 * PANEL_ORDER  # the constant ends after one round


@pytest.mark.parametrize("cap", [16, 48, 64, 1000])
def test_no_call_exceeds_the_node_cap(monkeypatch, cap):
    """Rounds split into calls of at most MAX_CALL_NODES nodes, across block
    and circle boundaries, with the same panels and evaluations."""
    fs, cuts = zip(*LOCKSTEP_CIRCLES)
    want = adaptive_circles(_by_circle(fs)[0], *_flat(cuts), atol=1e-11, rtol=1e-10)
    monkeypatch.setattr(quadrature, "MAX_CALL_NODES", cap)
    f, calls = _by_circle(fs)
    got = adaptive_circles(f, *_flat(cuts), atol=1e-11, rtol=1e-10)
    assert max(n for n, _ in calls) <= cap
    assert sum(n for n, _ in calls) == sum(r.evaluations for r in got)
    for g, w in zip(got, want):
        assert (g.panels, g.evaluations) == (w.panels, w.evaluations)
        assert abs(g.value - w.value) <= 1e-3 * max(1e-11, 1e-10 * abs(w.value))


@pytest.mark.parametrize("bad, kwargs", [
    (_nan_inside, {}),
    (_log_abs_z2_minus_1, {"cuts": ON_CIRCLE, "atol": 1e-14, "rtol": 1e-14, "max_panels": 60}),
], ids=["interior NaN", "max_panels"])
def test_a_failing_circle_raises_its_own_failure(bad, kwargs, monkeypatch):
    kwargs = _capped(monkeypatch, kwargs)
    cuts = kwargs.pop("cuts", [])
    with pytest.raises(QuadratureFailure) as lone:
        adaptive_circle(bad, cuts, **kwargs)
    f, _ = _by_circle([lambda t: np.ones_like(t), bad, lambda t: np.ones_like(t)])
    with pytest.raises(QuadratureFailure) as batch:
        adaptive_circles(f, *_flat([[], cuts, []]), **kwargs)
    assert str(batch.value) == str(lone.value)


# ---------------------------------------------------------------------------
# the seed panels of a batch against the one-circle loop they replaced
# ---------------------------------------------------------------------------


_LEVEL_RATIOS = tuple(2.0 ** (k + 1) for k in range(SEED_LEVELS))
_KNOT_STEPS = tuple(tuple(0.5**k for k in range(1, L + 1)) for L in range(SEED_LEVELS + 1))


def _reference_seed_panels(cuts):
    """One circle's seed panels, as the per-circle loop built them."""
    cuts = sorted(cuts, key=lambda cut: cut[0])
    if cuts and not 0.0 <= cuts[0][0] <= cuts[-1][0] < TWO_PI:
        cuts = sorted(((a % TWO_PI, d) for a, d in cuts), key=lambda cut: cut[0])
    angle, dist = [0.0], [math.inf]
    for a, d in cuts:
        if a - angle[-1] > MERGE_GAP:
            angle.append(a)
            dist.append(d)
        elif d < dist[-1]:
            dist[-1] = d
    if TWO_PI - angle[-1] <= MERGE_GAP:  # 2pi is the angle 0
        angle.pop()
        dist[0] = min(dist[0], dist.pop())
    angle.append(TWO_PI)
    dist.append(dist[0])

    knots = [TWO_PI]
    for a, b, da, db in zip(angle, angle[1:], dist, dist[1:]):
        w = b - a
        la = bisect.bisect_left(_LEVEL_RATIOS, w / da) if da else SEED_LEVELS
        lb = bisect.bisect_left(_LEVEL_RATIOS, w / db) if db else SEED_LEVELS
        knots.append(a)
        knots += [a + w * h for h in _KNOT_STEPS[la]]
        knots += [b - w * h for h in _KNOT_STEPS[lb]]
    knots = sorted(set(knots))
    return np.array(knots[:-1]), np.array(knots[1:])


def _random_cut(rng):
    angle = [0.0, TWO_PI - 1e-13, TWO_PI, -0.0, math.pi, rng.uniform(0.0, 2e-12),
             rng.uniform(-20.0, 20.0), rng.uniform(0.0, TWO_PI)][rng.integers(8)]
    dist = [0.0, math.inf, 10.0 ** rng.uniform(-15.0, 1.0), rng.uniform(0.0, 3.0)][rng.integers(4)]
    return angle, dist


def _random_batch(rng):
    """1-6 circles of 0-6 random cuts, some with a repeated cut, some with a
    chain of 3-5 cuts 0.6 MERGE_GAP apart."""
    batch = []
    for _ in range(int(rng.integers(1, 7))):
        cuts = [_random_cut(rng) for _ in range(int(rng.integers(0, 7)))]
        if cuts and rng.random() < 0.3:
            cuts.append(cuts[int(rng.integers(len(cuts)))])
        if rng.random() < 0.3:
            a = [0.0, TWO_PI - 2e-12, rng.uniform(0.0, TWO_PI)][rng.integers(3)]
            cuts += [(a + k * 0.6 * MERGE_GAP, rng.uniform(0.0, 1.0))
                     for k in range(int(rng.integers(3, 6)))]
        batch.append(cuts)
    return batch


@pytest.mark.parametrize("seed", range(4))
def test_batch_seed_panels_equal_the_one_circle_loop(seed):
    """Each circle's (lo, hi) of one batch pass equals the loop's bit for
    bit, whatever the order of the batch's cuts."""
    rng = np.random.default_rng(seed)
    for _ in range(100):
        batch = _random_batch(rng)
        (angle, dist, of), count = _flat(batch)
        order = rng.permutation(angle.size)
        lo, hi, circle = quadrature._seed_panels(angle[order], dist[order], of[order], count)
        assert (np.diff(circle) >= 0).all()
        for c, cuts in enumerate(batch):
            want_lo, want_hi = _reference_seed_panels(cuts)
            assert lo[circle == c].tobytes() == want_lo.tobytes(), cuts
            assert hi[circle == c].tobytes() == want_hi.tobytes(), cuts


def test_a_chain_of_close_cuts_merges_into_the_last_edge_kept():
    # 0.6 gaps: the second cut merges into the first, the third starts an edge
    a = 1.0
    chain = [(a, math.inf), (a + 0.6 * MERGE_GAP, 0.0), (a + 1.2 * MERGE_GAP, math.inf)]
    (angle, dist, of), count = _flat([chain, [], chain[::-1]])
    lo, hi, circle = quadrature._seed_panels(angle, dist, of, count)
    want_lo, want_hi = _reference_seed_panels(chain)
    assert a + 1.2 * MERGE_GAP in want_lo.tolist()
    assert (lo[circle == 1].tolist(), hi[circle == 1].tolist()) == ([0.0], [TWO_PI])
    for c in (0, 2):
        assert lo[circle == c].tobytes() == want_lo.tobytes()
        assert hi[circle == c].tobytes() == want_hi.tobytes()


MALFORMED_CUTS = {
    "NaN angle": (math.nan, 0.0),
    "inf angle": (math.inf, 0.0),
    "-inf angle": (-math.inf, math.inf),
    "NaN distance": (1.0, math.nan),
    "negative distance": (1.0, -1e-300),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CUTS))
def test_malformed_cuts_raise_before_any_evaluation(case):
    calls = []

    def f(t, *_):
        calls.append(t.size)
        return np.ones_like(t)

    cut = MALFORMED_CUTS[case]
    with pytest.raises(ValueError, match="cuts"):
        adaptive_circle(f, [(math.pi, 0.0), cut])
    with pytest.raises(ValueError, match="cuts"):
        adaptive_circles(f, *_flat([[], [cut], [(0.5, 1.0)]]))
    assert not calls
