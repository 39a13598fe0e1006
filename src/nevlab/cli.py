"""Command-line front end: sweeps, verifiers, constructions, data export.

Design rules, enforced everywhere:

* every command echoes its effective configuration into its outputs, so a
  run can be replayed bit-for-bit from what it printed;
* CSV for tabular data (one `# config ...` comment line, then a header),
  JSON with sorted keys for verdicts; no timestamps, no machine info;
* exit codes: 0 = pass, 1 = computational error, 2 = verification failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import boundslab, constructor, nevanlinna
from .algmap import AlgebraicMap, invariance_census, orbit
from .boundslab import BoundConfig, PolyPair
from .fnmodel import Const, Polynomial, ToolkitError, parse_complex
from .nevanlinna import characteristic_sweep, hyperorder_estimate, log_radii

EXIT_PASS = 0
EXIT_ERROR = 1
EXIT_FAIL = 2


def _lookup_fn(key: str):
    """The named function, built alone: a corpus member or ``const_5``."""
    if key == "const_5":
        return Const(5.0)
    if key not in constructor.CORPUS_TABLE:
        known = sorted([*constructor.CORPUS_TABLE, "const_5"])
        raise ToolkitError(f"unknown function id {key!r}; known: {', '.join(known)}")
    return constructor.CORPUS_TABLE[key][0]()


def _radii_from(args) -> list[float]:
    if args.radii is None:
        return [float(r) for r in log_radii(args.rmin, args.rmax, args.count)]
    return [float(tok) for tok in args.radii.split(",")]  # '' is no radius: ValueError


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        sign = "+" if x.imag >= 0 else "-"
        return f"{repr(x.real)}{sign}{repr(abs(x.imag))}i"
    return str(x)


def _write_csv(path: str | None, config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config, sort_keys=True, default=_fmt) + "\n")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def _write_json(payload: dict, path: str | None) -> str:
    """The payload as sorted, indented JSON, also written to ``path`` if given."""
    text = json.dumps(payload, sort_keys=True, indent=2, default=_fmt)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text


def _emit(payload: dict, args) -> None:
    print(_write_json(payload, getattr(args, "json_out", None)))


def _emit_table(args, config: dict, header: list[str], rows) -> int:
    """A table command's CSV, to --out or else stdout, mirrored as JSON
    when --json-out asks for it."""
    text = _write_csv(args.out, config, header, rows)
    if args.json_out:
        _write_json({"config": config, "header": header,
                     "rows": [list(row) for row in rows]}, args.json_out)
    if not args.out:
        sys.stdout.write(text)
    return EXIT_PASS


def _report_rows(reports):
    for rep in reports:
        yield (rep.r, rep.lhs, rep.rhs, rep.margin, rep.passed,
               rep.meta.get("exceptional", ""), rep.meta.get("s", ""),
               rep.meta.get("K", ""))


REPORT_HEADER = ["r", "lhs", "rhs", "margin", "pass", "exceptional", "s", "K"]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_char(args) -> int:
    expr = _lookup_fn(args.fn)
    radii = _radii_from(args)
    config = {"command": "char", "fn": args.fn, "radii": radii,
              "atol": args.atol, "rtol": args.rtol}
    samples = characteristic_sweep(expr, radii, atol=args.atol, rtol=args.rtol)
    rows = [(s.r, s.m, s.N, s.T, s.quad_err, s.nudged) for s in samples]
    header = ["r", "m", "N", "T", "quad_err", "nudged"]
    return _emit_table(args, config, header, rows)


def cmd_hyperorder(args) -> int:
    expr = _lookup_fn(args.fn)
    radii = _radii_from(args)
    config = {"command": "hyperorder", "fn": args.fn, "radii": radii,
              "atol": args.atol, "rtol": args.rtol}
    samples = characteristic_sweep(expr, radii, atol=args.atol, rtol=args.rtol)
    est = hyperorder_estimate([s.r for s in samples], [s.T for s in samples])
    _emit({"config": config,
           "estimate": {"varsigma": est.varsigma, "residual": est.residual,
                        "fit_window": list(est.fit_window),
                        "clamped": est.clamped, "points_used": est.points_used}},
          args)
    return EXIT_PASS


def _verify_pest(args) -> tuple[int, dict, list]:
    if args.trials < 1:
        raise ValueError(f"verify pest needs at least 1 trial, got --trials {args.trials}")
    rng = np.random.default_rng(args.seed)
    reports = []
    for _ in range(args.trials):
        deg = int(rng.integers(1, 5))
        roots = rng.uniform(-3, 3, deg) + 1j * rng.uniform(-3, 3, deg)
        roots = roots[np.abs(roots) <= 3.0]
        while roots.size < deg:
            extra = rng.uniform(-3, 3, deg) + 1j * rng.uniform(-3, 3, deg)
            roots = np.concatenate([roots, extra[np.abs(extra) <= 3.0]])[:deg]
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        p = Polynomial.from_roots(list(roots), lead)
        gamma = float(rng.choice(np.arange(0.1, 1.0, 0.1)))
        r = float(rng.uniform(0.5, 10.0))
        reports.append(boundslab.pestimate_check(p, gamma, r, rtol=args.rtol))
    failures = [rep for rep in reports if not rep.passed]
    summary = {"trials": args.trials, "failures": len(failures)}
    return (EXIT_PASS if not failures else EXIT_FAIL), summary, reports


def _poly_pair(args) -> PolyPair:
    return PolyPair.build(Polynomial.parse(args.omega), Polynomial.parse(args.phi))


def _verify_lemma1(args) -> tuple[int, dict, list]:
    expr = _lookup_fn(args.fn)
    pair = _poly_pair(args)
    cfg = BoundConfig(alpha=args.alpha, delta=args.delta)
    radii = _radii_from(args)
    reports = boundslab.lemma1_check(expr, pair, cfg, radii,
                                     atol=args.atol, rtol=args.rtol)
    r0 = boundslab.first_stable_radius(reports)
    summary = {"K": boundslab.k_constant(cfg, pair), "r0": r0,
               "n_pass": sum(r.passed for r in reports), "n_total": len(reports)}
    return (EXIT_PASS if r0 is not None else EXIT_FAIL), summary, reports


def _verify_asym(args) -> tuple[int, dict, list]:
    expr = _lookup_fn(args.fn)
    omega = Polynomial.parse(args.omega)
    radii = _radii_from(args)
    samples = boundslab.asym_ratio(expr, omega, radii,
                                   atol=args.atol, rtol=args.rtol)
    devs = [abs(s.ratio - 1.0) for s in samples]
    top, median = devs[-1], devs[len(devs) // 2]
    ok = top < 0.1 and top < median
    summary = {"final_ratio": samples[-1].ratio, "final_deviation": top,
               "median_deviation": median}
    reports = [boundslab.BoundReport(r=s.r, lhs=s.ratio, rhs=1.0,
                                     margin=1.0 - s.ratio, passed=abs(s.ratio - 1) < 0.1,
                                     meta={}) for s in samples]
    return (EXIT_PASS if ok else EXIT_FAIL), summary, reports


def _verify_smt(args) -> tuple[int, dict, list]:
    expr = _lookup_fn(args.fn)
    pair = _poly_pair(args)
    targets = [parse_complex(tok) for tok in args.targets.split(",")]
    radii = _radii_from(args)
    result = boundslab.smt_check(expr, pair, targets, args.slack, radii,
                                 atol=args.atol, rtol=args.rtol)
    n_exceptional = sum(not r.passed for r in result.reports)
    # a one-radius grid has no measure: it passes where its radius passed
    ok = not n_exceptional or result.exceptional_logmeasure < 0.10 * result.total_logmeasure
    summary = {"exceptional_logmeasure": result.exceptional_logmeasure,
               "total_logmeasure": result.total_logmeasure,
               "n_exceptional": n_exceptional}
    return (EXIT_PASS if ok else EXIT_FAIL), summary, result.reports


def _verify_borel(args) -> tuple[int, dict, list]:
    if args.radii is not None:
        raise ToolkitError("verify borel builds its grid from --rmin, --rmax and "
                           "--count; --radii is not accepted")
    if args.fn == "all":  # one corpus build serves every member
        exprs = {k: m.expr for k, m in constructor.corpus().items()}
    else:
        exprs = {args.fn: _lookup_fn(args.fn)}
    rows = []
    worst = EXIT_PASS
    details = {}
    for key in sorted(exprs):
        res = boundslab.borel_probe(exprs[key], n=args.order, c=args.scale,
                                    epsilon=args.epsilon, rmax=args.rmax,
                                    rmin=args.rmin, count=args.count,
                                    atol=args.atol, rtol=args.rtol)
        ok = res.measured_logmeasure <= res.closed_form_bound
        if not ok:
            worst = EXIT_FAIL
        details[key] = {"measured": res.measured_logmeasure,
                        "bound": res.closed_form_bound,
                        "r0": res.r0, "n_exceptional": res.n_exceptional}
        rows.append(boundslab.BoundReport(
            r=res.r0, lhs=res.measured_logmeasure, rhs=res.closed_form_bound,
            margin=res.closed_form_bound - res.measured_logmeasure,
            passed=ok, meta={"fn": key}))
    return worst, details, rows


def _growth_profile(name: str):
    profiles = {
        "exp_sqrt_r": lambda r: np.exp(np.sqrt(r)),
        "exp_r": lambda r: np.exp(r),
        "power": lambda r: r**2,
    }
    if name not in profiles:
        raise ToolkitError(f"unknown growth profile {name!r}; known: "
                           + ", ".join(sorted(profiles)))
    return profiles[name]


def _verify_growth(args) -> tuple[int, dict, list]:
    radii = np.array(_radii_from(args))
    if args.profile:
        T = _growth_profile(args.profile)(radii)
    else:
        expr = _lookup_fn(args.fn)
        sweep = characteristic_sweep(expr, radii, atol=args.atol, rtol=args.rtol)
        T = np.array([s.T for s in sweep])
    probe = boundslab.growth_lemma_probe(radii, T, step_K=args.step_k,
                                         step_mu=args.mu, alpha=args.factor)
    summary = {"verdict": probe.verdict, "logmeasure_F": probe.logmeasure_F,
               "hyper_slope": probe.hyper_slope,
               "tail_cauchy": probe.tail_cauchy,
               "window_increments": list(probe.window_increments)}
    if probe.verdict == "degenerate":
        return EXIT_ERROR, summary, []
    return (EXIT_PASS if probe.verdict != "inconsistent" else EXIT_FAIL), summary, []


def cmd_verify(args) -> int:
    handlers = {
        "pest": _verify_pest,
        "lemma1": _verify_lemma1,
        "asym": _verify_asym,
        "smt": _verify_smt,
        "borel": _verify_borel,
        "growth": _verify_growth,
    }
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("func", "out", "json_out") and v is not None}
    code, summary, reports = handlers[args.which](args)
    if args.out and reports:
        _write_csv(args.out, config, REPORT_HEADER, _report_rows(reports))
    _emit({"config": config, "summary": summary,
           "verdict": "pass" if code == EXIT_PASS else "fail"}, args)
    return code


def _figure_map(args) -> AlgebraicMap:
    if args.figure1:
        return (constructor.left_figure_map() if args.figure1 == "left"
                else constructor.right_figure_map())
    if args.map_json:
        with open(args.map_json) as fh:
            return _map_from_json(json.load(fh))
    raise ToolkitError("need --figure1 or --map-json to pick a map")


def _map_from_json(data) -> AlgebraicMap:
    """The map of a ``--map-json`` file: {"n": int, "alphas": [[re, im], ...]}
    with an optional integer "branch"; AlgebraicMap checks their values."""
    if not (isinstance(data, dict) and "n" in data and "alphas" in data):
        raise ToolkitError('--map-json needs a JSON object with "n" and "alphas"')
    n, pairs, branch = data["n"], data["alphas"], data.get("branch", 0)
    for key, val in (("n", n), ("branch", branch)):
        if type(val) is not int:  # JSON true and false are bools, 2.0 a float
            raise ToolkitError(f'--map-json "{key}" must be an integer, not {val!r}')
    if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 and all(
            type(x) in (int, float) and abs(x) <= sys.float_info.max for x in p) for p in pairs)):
        raise ToolkitError('--map-json "alphas" must be a list of finite [re, im] pairs')
    return AlgebraicMap(n=n, alphas=tuple(complex(re, im) for re, im in pairs), branch=branch)


def cmd_orbit(args) -> int:
    m = _figure_map(args)
    seed = parse_complex(args.seed)
    config = {"command": "orbit", "figure1": args.figure1, "seed": args.seed,
              "k": args.k, "mode": args.mode}
    orb = orbit(m, seed, args.k, mode=args.mode)
    rows = [(seed.real, seed.imag, k, z.real, z.imag, abs(z), cut)
            for k, (z, cut) in enumerate(zip(orb.points, orb.cut_crossed))]
    header = ["seed_re", "seed_im", "k", "z_re", "z_im", "modulus",
              "cut_crossed"]
    return _emit_table(args, config, header, rows)


def cmd_construct(args) -> int:
    family = constructor.figure_family(args.figure1, args.generations)
    config = {"command": "construct", "figure1": args.figure1,
              "generations": family.generations}
    rows = constructor.divisor_cloud(family)
    header = ["set", "generation", "re", "im"]
    return _emit_table(args, config, header, rows)


def cmd_census(args) -> int:
    family = constructor.figure_family(args.figure1, args.generations)
    expr = constructor.build_orbit_function(family)
    values = args.values.split(",")
    R = args.radius if args.radius is not None else family.census_radius()
    config = {"command": "census", "figure1": args.figure1,
              "generations": family.generations, "values": values,
              "radius": R, "tol": args.tol}
    reports = invariance_census(expr, family.map, values, R, tol=args.tol)
    payload = []
    for raw, rep in zip(values, reports):
        payload.append({
            "value": raw,
            "verdict": rep.verdict,
            "n_points": rep.n_points,
            "n_matched": rep.n_matched,
            "n_value_matched": rep.n_value_matched,
            "n_boundary_leaks": rep.n_boundary_leaks,
            "n_violations": rep.n_violations,
            "max_matched_distance": rep.max_matched_distance,
            "assignment_ambiguous": rep.assignment_ambiguous,
            "violations": [[p.real, p.imag, q.real, q.imag]
                           for p, q in rep.violations[:20]],
        })
    ok = all(rep.verdict for rep in reports)
    _emit({"config": config, "reports": payload,
           "verdict": "pass" if ok else "fail"}, args)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_counterexample(args) -> int:
    for flag, n in (("--probes", args.probes), ("--preimages", args.preimages)):
        if n < 1:
            raise ValueError(f"counterexample needs {flag} of at least 1, got {flag} {n}")
    kit = constructor.counterexample_kit(args.k)
    probes = constructor.identity_probe_points(args.probes, seed=args.seed)
    residuals = constructor.identity_residuals(kit, probes)
    pre_status = []
    for j in range(kit.k):
        pts = constructor.counterexample_preimages(kit, j, args.preimages)
        worst = 0.0
        worst_shift = 0.0
        for z in pts:
            worst = max(worst, abs(kit.g.eval(z) - kit.targets[j]))
            worst_shift = max(worst_shift,
                              abs(kit.g.eval(z + kit.shift) - kit.targets[j]))
        pre_status.append({"target_index": j, "count": len(pts),
                           "max_residual": worst,
                           "max_residual_after_shift": worst_shift})
    max_rel = float(np.max(residuals))
    ok = max_rel <= 1e-12 and all(
        s["max_residual"] <= 1e-9 and s["max_residual_after_shift"] <= 1e-9
        for s in pre_status)
    config = {"command": "counterexample", "k": args.k, "probes": args.probes,
              "preimages": args.preimages, "seed": args.seed}
    _emit({"config": config,
           "summary": {"max_identity_relative_error": max_rel,
                       "preimages": pre_status},
           "verdict": "pass" if ok else "fail"}, args)
    return EXIT_PASS if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_grid(p, rmin=1.0, rmax=30.0):
    p.add_argument("--rmin", type=float, default=rmin)
    p.add_argument("--rmax", type=float, default=rmax)
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--radii", type=str, default=None,
                   help="explicit comma-separated radii (overrides rmin/rmax/count)")


def _add_tols(p, atol=1e-9, rtol=1e-8):
    p.add_argument("--atol", type=float, default=atol)
    p.add_argument("--rtol", type=float, default=rtol)


def _add_out(p):
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--json-out", dest="json_out", type=str, default=None)


def _char_args(p):
    p.add_argument("--fn", required=True)
    _add_grid(p)
    _add_tols(p)
    _add_out(p)
    p.set_defaults(func=cmd_char)


def _hyperorder_args(p):
    p.add_argument("--fn", required=True)
    _add_grid(p, rmin=5.0, rmax=30.0)
    _add_tols(p, atol=1e-8, rtol=1e-7)
    _add_out(p)
    p.set_defaults(func=cmd_hyperorder)


def _verify_args(p):
    p.add_argument("which", choices=["pest", "lemma1", "asym", "smt", "borel",
                                     "growth"])
    p.add_argument("--fn", default="exp_z")
    p.add_argument("--omega", default="z+1")
    p.add_argument("--phi", default="z")
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--targets", default="1,-1")
    p.add_argument("--slack", type=float, default=0.05)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--order", type=int, default=1, help="root order n in g(r)=T(|c|r^n)")
    p.add_argument("--scale", type=parse_complex, default=1.0 + 0j,
                   help="leading coefficient c in g(r)=T(|c|r^n)")
    p.add_argument("--profile", default=None,
                   help="synthetic growth profile for `growth` (exp_sqrt_r, exp_r, power)")
    p.add_argument("--step-k", dest="step_k", type=float, default=1.0)
    p.add_argument("--mu", type=float, default=0.25)
    p.add_argument("--factor", type=float, default=0.9,
                   help="comparison factor in (0,1) for `growth`")
    _add_grid(p, rmin=1.0, rmax=40.0)
    _add_tols(p, atol=1e-8, rtol=1e-7)
    _add_out(p)
    p.set_defaults(func=cmd_verify)


def _orbit_args(p):
    p.add_argument("--figure1", choices=["left", "right"], default=None)
    p.add_argument("--map-json", dest="map_json", default=None)
    p.add_argument("--seed", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", choices=["fixed", "track"], default="fixed")
    _add_out(p)
    p.set_defaults(func=cmd_orbit)


def _construct_args(p):
    p.add_argument("--figure1", choices=["left", "right"], required=True)
    p.add_argument("--generations", type=int, default=None)
    _add_out(p)
    p.set_defaults(func=cmd_construct)


def _census_args(p):
    p.add_argument("--figure1", choices=["left", "right"], required=True)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--values", default="0,inf")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    _add_out(p)
    p.set_defaults(func=cmd_census)


def _counterexample_args(p):
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--probes", type=int, default=100)
    p.add_argument("--preimages", type=int, default=5)
    p.add_argument("--seed", type=int, default=20260815)
    _add_out(p)
    p.set_defaults(func=cmd_counterexample)


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise :class:`ToolkitError`, so that
    :func:`main` prints them as its JSON error line and returns
    ``EXIT_ERROR``: argparse would exit with 2, the code of a failed check."""

    def error(self, message):
        raise ToolkitError(f"{self.prog}: {message}")


class _Subcommand(_Parser):
    """A subcommand's parser that adds its arguments, by ``populate``, on
    its first parse: a command line builds only the subparser it runs."""

    def __init__(self, populate, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._populate = populate

    def parse_known_args(self, args=None, namespace=None):
        if self._populate is not None:
            populate, self._populate = self._populate, None
            populate(self)
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: an abbreviated flag would slip past --config folding
    ap = _Parser(
        prog="nevlab", allow_abbrev=False,
        description="growth functionals, orbit constructions and inequality "
                    "verifiers for a closed meromorphic function family",
    )
    ap.add_argument("--config", type=str, default=None,
                    help="JSON file of flag defaults; explicit flags win "
                         "(accepted anywhere on the command line)")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    sub.add_parser("char", help="characteristic sweep", populate=_char_args)
    sub.add_parser("hyperorder", help="hyper-order estimate from a sweep",
                   populate=_hyperorder_args)
    sub.add_parser("verify", help="run a named inequality harness", populate=_verify_args)
    sub.add_parser("orbit", help="iterate a map from one seed", populate=_orbit_args)
    sub.add_parser("construct", help="emit an orbit family's divisor cloud",
                   populate=_construct_args)
    sub.add_parser("census", help="forward-invariance census", populate=_census_args)
    sub.add_parser("counterexample", help="tower identity and pre-image checks",
                   populate=_counterexample_args)
    return ap


def _apply_config_file(argv: list[str]) -> list[str]:
    """Fold --config file values in as defaults (explicit flags still win).

    The flag (``--config PATH`` or ``--config=PATH``) is stripped here and
    may sit anywhere in the command line; the derived flags are appended,
    which argparse scopes to the subcommand, unless given in either form.
    """
    for i, arg in enumerate(argv):
        name, eq, path = arg.partition("=")
        if name == "--config":
            if not eq:
                path = argv[i + 1] if i + 1 < len(argv) else ""
            if not path:
                raise ToolkitError("--config needs a JSON file path")
            argv = argv[:i] + argv[i + (1 if eq else 2):]
            break
    else:
        return argv
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ToolkitError("--config needs a JSON object of flag values")
    given = {arg.split("=", 1)[0] for arg in argv}
    extra: list[str] = []
    for key, val in sorted(data.items()):
        if type(val) not in (str, int, float):  # JSON null, true, false, lists, objects
            raise ToolkitError(f"--config value of {key!r} must be a string or a number, "
                               f"not {json.dumps(val)}")
        flag = "--" + str(key).replace("_", "-")
        if flag not in given:
            extra.extend([flag, str(val)])
    return argv + extra


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = ap.parse_args(argv)
        # argparse before Python 3.12 parses "--name=--" as the value []
        empty = [name for name, value in vars(args).items() if value == []]
        if empty:
            raise ToolkitError(f"--{empty[0].replace('_', '-')} needs a value")
        return args.func(args)
    except (ToolkitError, OSError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)},
                         sort_keys=True), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
