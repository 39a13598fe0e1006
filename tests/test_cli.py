"""Command-line behavior: exit codes, determinism, file outputs, config."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nevlab import fnmodel
from nevlab.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# char / hyperorder
# ---------------------------------------------------------------------------


def test_char_writes_csv_with_config_echo(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "char", "--fn", "exp_z", "--radii", "1,2,4",
                     "--out", str(out))
    assert code == EXIT_PASS
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# config ")
    cfg = json.loads(lines[0][len("# config "):])
    assert cfg["fn"] == "exp_z"
    assert lines[1] == "r,m,N,T,quad_err,nudged"
    assert len(lines) == 5


def test_char_stdout_when_no_out(capsys):
    code, out, _ = run(capsys, "char", "--fn", "rat_pole0", "--radii", "2,10")
    assert code == EXIT_PASS
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")][1:]
    # T(r, 1/z) = log r with m = 0
    for ln, r in zip(rows, (2.0, 10.0)):
        _, m, N, T = ln.split(",")[:4]
        assert float(m) == 0.0
        assert float(T) == pytest.approx(math.log(r), abs=1e-12)


def test_char_runs_are_byte_identical(capsys):
    code1, out1, _ = run(capsys, "char", "--fn", "expz_minus_1", "--radii", "1,3,9")
    code2, out2, _ = run(capsys, "char", "--fn", "expz_minus_1", "--radii", "1,3,9")
    assert code1 == code2 == EXIT_PASS
    assert out1 == out2


def test_unknown_function_is_a_usage_error(capsys):
    code, _, err = run(capsys, "char", "--fn", "nope", "--radii", "1")
    assert code == EXIT_ERROR
    assert "nope" in err


@pytest.mark.parametrize("argv, said", [
    (["bogus"], "invalid choice: 'bogus'"),
    (["census"], "nevlab census: the following arguments are required: --figure1"),
    ([], "nevlab: the following arguments are required: command"),
    (["char", "--fn", "exp_z", "--count", "two"], "argument --count: invalid int value"),
])
def test_a_usage_error_returns_the_error_code(capsys, argv, said):
    # main returns, with argparse's message as its JSON error line
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ToolkitError" and said in json.loads(err)["detail"]


def _count_builds(monkeypatch):
    """Count the builds of every corpus member and the calls of corpus()."""
    from nevlab import constructor
    builds = {"corpus()": 0}
    for key, (build, tag, note) in constructor.CORPUS_TABLE.items():
        def counted(key=key, build=build):
            builds[key] = builds.get(key, 0) + 1
            return build()
        monkeypatch.setitem(constructor.CORPUS_TABLE, key, (counted, tag, note))
    corpus = constructor.corpus

    def counted_corpus():
        builds["corpus()"] += 1
        return corpus()
    monkeypatch.setattr(constructor, "corpus", counted_corpus)
    return builds


def test_fn_lookup_builds_only_the_requested_member(capsys, monkeypatch):
    builds = _count_builds(monkeypatch)
    assert run(capsys, "char", "--fn", "exp_z", "--radii", "1")[0] == EXIT_PASS
    assert run(capsys, "char", "--fn", "const_5", "--radii", "1")[0] == EXIT_PASS
    assert builds == {"corpus()": 0, "exp_z": 1}
    code, _, err = run(capsys, "char", "--fn", "nope", "--radii", "1")
    assert code == EXIT_ERROR and builds == {"corpus()": 0, "exp_z": 1}
    assert json.loads(err)["detail"] == (
        "unknown function id 'nope'; known: const_5, exp_exp_z, exp_z, exp_z2, exp_z3, "
        "expz2_minus_1, expz_minus_1, orbit_left_m6, orbit_right_m6, rat_pole0, "
        "rat_zero1_pole2, rat_zero1_polem1")


def test_verify_borel_all_builds_the_corpus_once(capsys, monkeypatch):
    builds = _count_builds(monkeypatch)
    run(capsys, "verify", "borel", "--fn", "all", "--rmax", "20", "--count", "20")
    assert builds.pop("corpus()") == 1
    assert len(builds) == 11 and set(builds.values()) == {1}


def test_hyperorder_json(capsys):
    code, out, _ = run(capsys, "hyperorder", "--fn", "exp_exp_z",
                       "--rmin", "5", "--rmax", "30", "--count", "25")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert 0.85 <= payload["estimate"]["varsigma"] <= 1.15
    assert payload["config"]["fn"] == "exp_exp_z"


# ---------------------------------------------------------------------------
# verify subcommands (small workloads; the acceptance suite runs the big ones)
# ---------------------------------------------------------------------------


def test_verify_pest_small(capsys):
    code, out, _ = run(capsys, "verify", "pest", "--trials", "8", "--seed", "3")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["summary"] == {"failures": 0, "trials": 8}
    assert payload["verdict"] == "pass"


def test_verify_pest_writes_its_reports(capsys, tmp_path):
    dest = tmp_path / "pest.csv"
    code, out, _ = run(capsys, "verify", "pest", "--trials", "8", "--seed", "3",
                       "--out", str(dest))
    assert code == EXIT_PASS
    lines = dest.read_text().splitlines()
    assert json.loads(lines[0][len("# config "):]) == json.loads(out)["config"]
    assert lines[1] == "r,lhs,rhs,margin,pass,exceptional,s,K"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 8 and all(row[4] == "1" and row[5:] == ["", "", ""] for row in rows)
    assert all(float(row[1]) <= float(row[2]) for row in rows)


def test_verify_lemma1_documented_triple(capsys):
    code, out, _ = run(capsys, "verify", "lemma1", "--fn", "exp_z",
                       "--omega", "z+1", "--phi", "z", "--radii", "1,4,16")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["summary"]["K"] == pytest.approx(1984.0)
    assert payload["summary"]["r0"] == 1.0


SMT_C05 = ("verify", "smt", "--fn", "exp_z", "--omega", "z^2+z", "--phi", "z^2",
           "--targets", "1,-1", "--rmin", "5", "--rmax", "40")


def test_verify_smt_c05_grid_passes_deterministically(capsys):
    code1, out1, _ = run(capsys, *SMT_C05, "--count", "25")
    code2, out2, _ = run(capsys, *SMT_C05, "--count", "25")
    assert code1 == code2 == EXIT_PASS
    assert json.loads(out1)["verdict"] == "pass"
    assert out1 == out2


def test_verify_smt_c05_solves_each_divisor_on_one_disc(monkeypatch, capsys):
    """Every expression of the c05 grid has its divisor solved once, on the
    largest disc the grid reads; each smaller disc restricts it."""
    solves = []
    for cls in vars(fnmodel).values():
        if isinstance(cls, type) and "_divisor_impl" in vars(cls):
            def spy(self, r, solve=vars(cls)["_divisor_impl"]):
                solves.append((self, r))
                return solve(self, r)
            monkeypatch.setattr(cls, "_divisor_impl", spy)
    fnmodel._divisor_cached.cache_clear()
    code, _, _ = run(capsys, *SMT_C05, "--count", "25")
    assert code == EXIT_PASS
    exprs = [expr for expr, _ in solves]
    assert len(exprs) == len(set(exprs)) >= 6
    assert {r for _, r in solves} == {64.0}
    assert fnmodel._divisor_cached.cache_info().misses == len(solves)


@pytest.mark.parametrize("key", ["expz_minus_1", "orbit_left_m6"])
def test_verify_smt_without_a_rewrite_of_the_correction_is_an_error(capsys, key):
    code, out, err = run(capsys, "verify", "smt", "--fn", key)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err) == {"error": "OpaqueExpr", "detail": (
        "f(omega) - f(phi) has no divisor-transparent rewrite; "
        "the correction term cannot be assembled exactly")}


def test_verify_smt_empty_grid_is_an_error(capsys):
    code, out, err = run(capsys, *SMT_C05, "--count", "0")
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("grid, slack, code", [
    (("--radii", "10"), "0.05", EXIT_PASS), (("--count", "1"), "0.05", EXIT_PASS),
    (("--radii", "10"), "-3", EXIT_FAIL)])
def test_verify_smt_one_radius_passes_where_its_radius_passed(capsys, grid, slack, code):
    got, out, err = run(capsys, *SMT_C05, *grid, "--slack", slack)
    payload = json.loads(out)
    assert got == code and err == ""
    assert payload["verdict"] == ("pass" if code == EXIT_PASS else "fail")
    assert payload["summary"]["n_exceptional"] == (code != EXIT_PASS)
    assert payload["summary"]["total_logmeasure"] == 0.0


@pytest.mark.parametrize("radii", ["40,10", "10,10", "10,-5", "10,nan"])
def test_verify_smt_rejects_a_grid_that_is_not_increasing(capsys, radii):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would reach stderr
        code, out, err = run(capsys, *SMT_C05, "--radii", radii)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err) == {"error": "ValueError", "detail": (
        "smt_check needs one or more finite positive radii, strictly increasing")}


def test_char_empty_grid_is_an_error(capsys):
    code, out, err = run(capsys, "char", "--fn", "exp_z", "--rmin", "1",
                         "--rmax", "4", "--count", "0")
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("rmin, rmax", [("1", "inf"), ("nan", "4"), ("inf", "inf")])
def test_a_non_finite_grid_end_is_one_json_error_line(rmin, rmax):
    # numpy never sees it: no RuntimeWarning ahead of the error line
    r = subprocess.run([sys.executable, "-m", "nevlab.cli", "char", "--fn", "exp_z",
                        "--rmin", rmin, "--rmax", rmax, "--count", "3"],
                       capture_output=True, text=True)
    assert r.returncode == EXIT_ERROR and r.stdout == ""
    assert r.stderr.count("\n") == 1
    assert json.loads(r.stderr) == {"error": "ValueError", "detail": "need a finite rmin and rmax"}


def test_a_grid_past_the_address_space_is_a_memory_error(capsys):
    # numpy refuses the 7.1 PiB radius array at once, touching no memory
    code, out, err = run(capsys, "hyperorder", "--fn", "exp_z", "--count", "1000000000000000")
    assert code == EXIT_ERROR and out == ""
    error = json.loads(err)
    assert error["error"] == "MemoryError" and "Unable to allocate" in error["detail"]


@pytest.mark.parametrize("fn, radius", [("exp_z", "1e308"), ("rat_pole0", "1e308"),
                                        ("expz2_minus_1", "1e200"), ("exp_exp_z", "800")])
def test_char_past_the_floating_range_is_an_error(capsys, fn, radius):
    code, out, err = run(capsys, "char", "--fn", fn, "--radii", radius)
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["error"] == "OverflowSignal"


@pytest.mark.parametrize("fn, radius", [("exp_z2", "1e-200"), ("exp_z3", "1e-110")])
def test_char_at_a_radius_whose_power_underflows(capsys, fn, radius):
    # r^d underflows to 0: no level set is solved, and m = T = 0
    code, out, _ = run(capsys, "char", "--fn", fn, "--radii", radius)
    assert code == EXIT_PASS
    assert out.splitlines()[2].split(",")[1:4] == ["0.0", "0.0", "0.0"]


@pytest.mark.parametrize("argv", [
    ("char", "--fn", "exp_z2", "--radii", "1e200"),
    ("char", "--fn", "exp_z3", "--radii", "1e103"),
    ("hyperorder", "--fn", "exp_z2", "--rmin", "1", "--rmax", "1e200", "--count", "12"),
    ("verify", "growth", "--fn", "exp_z2", "--rmin", "1", "--rmax", "1e200", "--count", "12"),
])
def test_exponent_past_the_floating_range_is_an_error(capsys, argv):
    # p(z) of exp(p) overflows on the circle: not m = T = 0, not a
    # QuadratureFailure, and no numpy overflow warning on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["error"] == "OverflowSignal"


def test_exponent_just_inside_the_floating_range_still_computes(capsys):
    # (1e102)^3 = 1e306 is finite: m(r, e^{z^3}) = r^3 / pi
    code, out, _ = run(capsys, "char", "--fn", "exp_z3", "--radii", "1e102")
    assert code == EXIT_PASS
    _, m, N, T = out.splitlines()[2].split(",")[:4]
    assert float(m) == float(T) == pytest.approx(1e306 / math.pi, rel=1e-13)
    assert float(N) == 0.0


def test_verify_borel_single_member(capsys):
    code, out, _ = run(capsys, "verify", "borel", "--fn", "exp_z",
                       "--rmin", "1", "--rmax", "40", "--count", "25")
    assert code == EXIT_PASS
    payload = json.loads(out)
    row = payload["summary"]["exp_z"]
    assert row["measured"] <= row["bound"]


def test_verify_growth_synthetic_profile(capsys):
    code, out, _ = run(capsys, "verify", "growth", "--profile", "exp_sqrt_r",
                       "--rmin", "1", "--rmax", "100000", "--count", "150",
                       "--step-k", "1.0", "--mu", "0.25", "--factor", "0.9")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["summary"]["verdict"].startswith("consistent")


def test_verify_growth_runs_on_the_given_radii(capsys):
    code, out, err = run(capsys, "verify", "growth", "--fn", "exp_z",
                         "--radii", "3,4,5")
    assert code == EXIT_ERROR
    assert out == ""
    assert "at least 10 samples" in json.loads(err)["detail"]


def test_verify_borel_rejects_explicit_radii(capsys):
    for radii in ("2,3", ""):  # an empty list too, which is not the default grid
        code, out, err = run(capsys, "verify", "borel", "--fn", "exp_z", "--radii", radii)
        assert code == EXIT_ERROR
        assert out == ""
        assert json.loads(err)["error"] == "ToolkitError"


@pytest.mark.parametrize("argv", [("--radii", ""), ("--radii=",), ("--config", "{cfg}")])
def test_an_empty_radii_list_is_an_error_not_the_default_grid(capsys, tmp_path, argv):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"radii": ""}))
    for cmd in (("char", "--fn", "exp_z"), ("hyperorder", "--fn", "exp_z")):
        code, out, err = run(capsys, *cmd, *(a.format(cfg=cfg) for a in argv))
        assert (code, out) == (EXIT_ERROR, "")
        assert json.loads(err) == {"error": "ValueError",
                                   "detail": "could not convert string to float: ''"}


@pytest.mark.parametrize("which", ["growth", "borel"])
def test_verify_grid_commands_reject_an_empty_grid(capsys, which):
    code, out, err = run(capsys, "verify", which, "--fn", "exp_z", "--count", "0")
    assert code == EXIT_ERROR
    assert out == ""
    assert json.loads(err)["detail"] == "need a radius count of at least 1"


@pytest.mark.parametrize("argv, named", [
    (("borel", "--epsilon", "0"), "epsilon"), (("borel", "--epsilon", "-1"), "epsilon"),
    (("borel", "--epsilon", "inf"), "epsilon"), (("borel", "--epsilon", "nan"), "epsilon"),
    (("growth", "--profile", "exp_r", "--step-k", "nan"), "K must"),
    (("growth", "--profile", "exp_r", "--step-k", "-5"), "K must"),
    (("smt", "--slack", "nan"), "slack"), (("smt", "--targets", "1,nan"), "finite targets"),
    (("growth", "--profile", "exp_r", "--radii", "1,2,3,4,5,nan,7,8,9,10,11,12"),
     "must be finite"),
    (("pest", "--trials", "-5"), "at least 1 trial"), (("pest", "--trials", "0"), "at least 1 trial"),
    (("smt", "--omega", "2**z+z", "--phi", "2*z"), "cannot parse term '2**z'"),
    (("asym", "--fn", "exp_z", "--omega", "z^2+1e400"), "cannot parse term '+1e400'"),
    (("lemma1", "--omega", "z^-1"), "cannot parse term 'z^-1'"),
    (("lemma1", "--omega", "z^+2"), "cannot parse term 'z^+2'"),
])
def test_verify_malformed_harness_inputs_are_errors(capsys, argv, named):
    code, out, err = run(capsys, "verify", *argv)
    assert code == EXIT_ERROR
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "ValueError" and named in error["detail"]


# ---------------------------------------------------------------------------
# orbit / construct / census / counterexample
# ---------------------------------------------------------------------------


def test_orbit_csv_matches_hand_oracle(capsys):
    code, out, _ = run(capsys, "orbit", "--figure1", "left", "--seed", "4",
                       "--k", "2")
    assert code == EXIT_PASS
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert len(rows) == 3
    assert float(rows[1][3]) == 5.0 and float(rows[1][4]) == 0.4
    assert float(rows[2][3]) == pytest.approx(6.101052360167807, abs=1e-12)
    assert float(rows[2][4]) == pytest.approx(0.8922563354910713, abs=1e-12)


def test_orbit_map_json_gives_the_rows_of_its_figure_map(capsys, tmp_path):
    # the left figure's map tau(z) = z + 0.5 + 0.2i w, w the root of z
    dest = tmp_path / "map.json"
    dest.write_text(json.dumps({"n": 2, "alphas": [[0, 0], [0.5, 0.2]], "branch": 0}))
    rows = []
    for pick in (("--map-json", str(dest)), ("--figure1", "left")):
        code, out, _ = run(capsys, "orbit", *pick, "--seed", "4", "--k", "5")
        assert code == EXIT_PASS
        rows.append(out.splitlines()[1:])
    assert len(rows[0]) == 7 and rows[0] == rows[1]


@pytest.mark.parametrize("text, detail", [
    ('{"n": 2}', '--map-json needs a JSON object with "n" and "alphas"'),
    ("[1]", '--map-json needs a JSON object with "n" and "alphas"'),
    ('{"n": 2, "alphas": [1, 2]}', '--map-json "alphas" must be a list of finite [re, im] pairs'),
    ('{"n": null, "alphas": [[0, 0], [0.5, 0.2]]}', '--map-json "n" must be an integer, not None'),
    ('{"n": 2, "alphas": [["a", 0], [0.5, 0.2]]}',
     '--map-json "alphas" must be a list of finite [re, im] pairs'),
    ('{"n": 2, "alphas": [[0, 0], [0.5, 0.2]], "branch": 1.5}',
     '--map-json "branch" must be an integer, not 1.5'),
], ids=["no_alphas", "a_list", "bare_alphas", "null_n", "string_alpha", "float_branch"])
def test_malformed_map_json_is_an_error(capsys, tmp_path, text, detail):
    dest = tmp_path / "map.json"
    dest.write_text(text)
    code, out, err = run(capsys, "orbit", "--map-json", str(dest), "--seed", "4", "--k", "3")
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err) == {"error": "ToolkitError", "detail": detail}


def test_construct_cloud_row_count(capsys, tmp_path):
    out = tmp_path / "cloud.csv"
    code, _, _ = run(capsys, "construct", "--figure1", "left",
                     "--generations", "4", "--out", str(out))
    assert code == EXIT_PASS
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 12 * 4   # config + header + 12 seeds x 4 gens


def test_census_passes_invariant_values(capsys):
    code, out, _ = run(capsys, "census", "--figure1", "left",
                       "--generations", "6", "--values", "0,inf")
    assert code == EXIT_PASS
    payload = json.loads(out)
    for rep in payload["reports"]:
        assert rep["verdict"] is True
        assert rep["max_matched_distance"] == 0.0


def test_census_fails_generic_value(capsys):
    code, out, _ = run(capsys, "census", "--figure1", "left",
                       "--generations", "6", "--values", "0.3+0.2i")
    assert code == EXIT_FAIL
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["reports"][0]["n_violations"] > 0


def test_census_at_the_scale_of_the_left_family_fails(capsys):
    # f - 1 drops a degree there; its 49 a-points in the disc are certified
    code, out, err = run(capsys, "census", "--figure1", "left",
                         "--generations", "12", "--values", "1")
    assert code == EXIT_FAIL and err == ""
    rep, = json.loads(out)["reports"]
    assert rep["verdict"] is False and rep["n_points"] == 49


@pytest.mark.parametrize("value", ["1e400+1i", "nan"])
def test_census_non_finite_value_is_an_error(capsys, value):
    code, out, err = run(capsys, "census", "--figure1", "left",
                         "--generations", "12", "--values", value)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_census_values_may_carry_blanks_and_a_bad_one_is_named(capsys):
    reports = []
    for values in ("0,inf", "0, inf"):
        code, out, _ = run(capsys, "census", "--figure1", "left", "--generations", "6",
                           "--values", values)
        assert code == EXIT_PASS
        reports.append(json.loads(out)["reports"])
    assert reports[1][1].pop("value") == " inf" and reports[0][1].pop("value") == "inf"
    assert reports[0] == reports[1]  # " inf" is the poles, as "inf" is
    code, out, err = run(capsys, "census", "--figure1", "left", "--generations", "6",
                         "--values", "0,xyz")
    assert code == EXIT_ERROR and out == ""
    assert "'xyz'" in json.loads(err)["detail"]


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_census_bad_tolerance_is_an_error(capsys, tol):
    # an infinite tol would match every image and pass the generic value 0.3
    code, out, err = run(capsys, "census", "--figure1", "left", "--generations", "6",
                         "--values", "0,inf,0.3", f"--tol={tol}")
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_census_radius_zero_is_an_error_not_the_default(capsys):
    code, out, err = run(capsys, "census", "--figure1", "left", "--generations", "6",
                         "--radius", "0")
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ValueError"
    code, out, _ = run(capsys, "census", "--figure1", "left", "--generations", "6",
                       "--radius", "3")
    assert code == EXIT_PASS and json.loads(out)["config"]["radius"] == 3.0


@pytest.mark.parametrize("argv", [("char", "--fn=--", "--radii", "1"),
                                  ("census", "--figure1", "left", "--values=--")])
def test_option_given_a_bare_double_dash_is_an_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["detail"].endswith("needs a value")


census_tokens = st.one_of(
    st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
    .map(lambda c: f"{c.real:.6g}{c.imag:+.6g}i"),
    st.sampled_from(["1e400", "-1e400i", "1e400+1i", "1e308", "1e-320", "1e300",
                     "nan", "NaN", "nan+1i", "inf", "oo", "INF", "-inf", "1", "0", "--"]),
    st.text(alphabet="0123456789.+-eijnaf() ,", max_size=8),
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(token=census_tokens)
def test_census_values_end_in_an_exit_code_never_a_traceback(capsys, token):
    code, out, err = run(capsys, "census", "--figure1", "left",
                         "--generations", "6", f"--values={token}")
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_ERROR)
    if code == EXIT_ERROR:
        assert out == ""
        assert set(json.loads(err)) == {"error", "detail"}
    else:
        assert json.loads(out)["config"]["values"] == token.split(",")


@pytest.mark.parametrize("tols", [("--atol", "nan"), ("--atol", "inf"),
                                  ("--atol", "0", "--rtol", "0"), ("--atol=-1",)])
def test_char_bad_tolerances_are_an_error(capsys, tols):
    code, out, err = run(capsys, "char", "--fn", "exp_z", "--radii", "2", *tols)
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("atol", ["1e308", "1.7976931348623157e308"])
def test_char_huge_finite_atol_is_not_a_tolerance_error(capsys, atol):
    # the circle means scale atol by 2 pi; a finite value must stay finite
    code, out, err = run(capsys, "char", "--fn", "exp_z", "--radii", "2", "--atol", atol)
    assert code == EXIT_PASS and err == ""
    header, row = out.splitlines()[1:]
    assert header == "r,m,N,T,quad_err,nudged"
    assert float(row.split(",")[1]) == pytest.approx(2.0 / math.pi, rel=1e-6)


@pytest.mark.parametrize("seed", ["1e400", "nan+1i"])
def test_orbit_non_finite_seed_is_an_error(capsys, seed):
    code, out, err = run(capsys, "orbit", "--figure1", "left", f"--seed={seed}",
                         "--k", "2")
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err)["error"] == "ValueError"


def test_orbit_seed_whose_angle_underflows(capsys):
    # atan2(5e-324, 2) underflows, which cmath.phase turns into OverflowError
    code, out, err = run(capsys, "orbit", "--figure1", "left", "--seed", "2+5e-324i",
                         "--k", "2")
    assert code == EXIT_PASS and err == ""
    rows = [ln.split(",") for ln in out.splitlines()[2:]]
    assert len(rows) == 3 and rows[0][3:5] == ["2.0", "5e-324"]
    assert all(math.isfinite(float(v)) for row in rows for v in row[3:6])


number_tokens = st.one_of(
    st.floats().map(repr),  # finite, huge, tiny, negative, zero, nan and inf
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "-inf", "0", "-0", "1e-320",
                     "1e308", "-1", "--", "", "1e", "abc", "1+1i", "nan+1i"]),
    st.text(alphabet="0123456789.+-eijnaf ", max_size=8),
)


def run_to_exit(capsys, *argv):
    """Exit code and output of a CLI run, argparse's usage exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_clean_exit(code, out, err, header):
    # a usage error is an error too: argparse's exit 2 would read as a failed check
    assert code in (EXIT_PASS, EXIT_ERROR)
    if code == EXIT_PASS:
        lines = out.splitlines()
        assert lines[0].startswith("# config ") and lines[1] == header
    else:
        assert out == "" and set(json.loads(err)) == {"error", "detail"}


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(atol=number_tokens, rtol=number_tokens,
       radii=st.lists(number_tokens, min_size=1, max_size=3).map(",".join))
def test_char_tokens_end_in_an_exit_code_never_a_traceback(capsys, atol, rtol, radii):
    assume(radii)  # an empty --radii falls back to the 50-radius default grid
    code, out, err = run_to_exit(capsys, "char", "--fn", "exp_z", f"--atol={atol}",
                                 f"--rtol={rtol}", f"--radii={radii}")
    assert_clean_exit(code, out, err, "r,m,N,T,quad_err,nudged")


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=number_tokens)
def test_orbit_seeds_end_in_an_exit_code_never_a_traceback(capsys, seed):
    code, out, err = run_to_exit(capsys, "orbit", "--figure1", "left",
                                 f"--seed={seed}", "--k", "2")
    assert_clean_exit(code, out, err, "seed_re,seed_im,k,z_re,z_im,modulus,cut_crossed")


def test_counterexample_verdict(capsys):
    code, out, _ = run(capsys, "counterexample", "--k", "2", "--probes", "20",
                       "--preimages", "4")
    assert code == EXIT_PASS
    payload = json.loads(out)
    assert payload["summary"]["max_identity_relative_error"] <= 1e-12


@pytest.mark.parametrize("flag", ["--probes", "--preimages"])
@pytest.mark.parametrize("n", ["0", "-1"])
def test_counterexample_needs_one_probe_and_one_preimage(capsys, flag, n):
    code, out, err = run(capsys, "counterexample", "--k", "2", flag, n)
    assert (code, out) == (EXIT_ERROR, "")
    assert json.loads(err) == {"error": "ValueError",
                               "detail": f"counterexample needs {flag} of at least 1, got {flag} {n}"}


# ---------------------------------------------------------------------------
# config file, json-out, environment
# ---------------------------------------------------------------------------


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "exp_z", "radii": "1,2"}))
    code, out, _ = run(capsys, "--config", str(cfg), "char")
    assert code == EXIT_PASS
    assert '"fn": "exp_z"' in out.splitlines()[0][len("# config "):]


def test_explicit_flag_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "exp_z", "radii": "1,2"}))
    code, out, _ = run(capsys, "char", "--config", str(cfg), "--fn", "rat_pole0")
    assert code == EXIT_PASS
    assert json.loads(out.splitlines()[0][len("# config "):])["fn"] == "rat_pole0"


def test_config_file_given_with_an_equals_sign_is_read(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "rat_pole0", "radii": "1,2"}))
    code, out, _ = run(capsys, f"--config={cfg}", "char")
    assert code == EXIT_PASS
    assert json.loads(out.splitlines()[0][len("# config "):])["fn"] == "rat_pole0"


def test_explicit_flag_with_an_equals_sign_beats_config_file(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "rat_pole0", "rmin": 1.0, "rmax": 4.0, "count": 3}))
    code, out, _ = run(capsys, "char", "--config", str(cfg), "--fn=exp_z", "--rmin=2.5")
    assert code == EXIT_PASS
    config = json.loads(out.splitlines()[0][len("# config "):])
    assert config["fn"] == "exp_z" and config["radii"][0] == 2.5


def test_an_abbreviated_config_flag_is_rejected_not_ignored(capsys, tmp_path):
    # with prefix matching, --conf was taken as --config, and the file,
    # which _apply_config_file looks for by its full name only, was ignored
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"fn": "rat_pole0"}))
    code, out, err = run_to_exit(capsys, "--conf", str(cfg), "char", "--fn", "exp_z",
                                 "--radii", "2")
    # --conf is no option, so the file's path is read as the command
    assert code == EXIT_ERROR and out == ""
    assert f"invalid choice: '{cfg}'" in json.loads(err)["detail"]


def test_an_abbreviated_flag_does_not_lose_to_the_config_file(capsys, tmp_path):
    # with prefix matching, --rmi was taken as --rmin, and the file's rmin,
    # appended after it, won
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"rmin": 1.0, "rmax": 4.0, "count": 3}))
    code, out, err = run_to_exit(capsys, "char", "--config", str(cfg), "--fn", "exp_z",
                                 "--rmi", "2.5")
    assert code == EXIT_ERROR and out == "" and "--rmi" in json.loads(err)["detail"]
    code, out, _ = run_to_exit(capsys, "char", "--config", str(cfg), "--fn", "exp_z",
                               "--rmin", "2.5")
    assert code == EXIT_PASS
    assert json.loads(out.splitlines()[0][len("# config "):])["radii"][0] == 2.5


def test_json_out_duplicates_stdout(capsys, tmp_path):
    dest = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "counterexample", "--k", "1", "--probes", "5",
                       "--preimages", "2", "--json-out", str(dest))
    assert code == EXIT_PASS
    assert json.loads(dest.read_text()) == json.loads(out)


def test_json_out_mirrors_csv_tables(capsys, tmp_path):
    # table commands keep CSV on stdout but honor --json-out with the same
    # config and rows
    dest = tmp_path / "char.json"
    code, out, _ = run(capsys, "char", "--fn", "exp_z", "--rmin", "2",
                       "--rmax", "8", "--count", "4", "--json-out", str(dest))
    assert code == EXIT_PASS
    payload = json.loads(dest.read_text())
    assert payload["header"][:4] == ["r", "m", "N", "T"]
    assert len(payload["rows"]) == 4
    csv_rows = [line.split(",") for line in out.splitlines()
                if line and not line.startswith("#")][1:]
    for json_row, csv_row in zip(payload["rows"], csv_rows):
        assert json_row[0] == float(csv_row[0])
        assert json_row[3] == float(csv_row[3])


def test_missing_config_file_is_an_error(capsys):
    code, _, err = run(capsys, "char", "--config", "/no/such/file.json",
                       "--fn", "exp_z")
    assert code == EXIT_ERROR
    assert "file" in err.lower() or "directory" in err.lower()


def test_config_file_that_is_not_an_object_is_an_error(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text("[1, 2]")
    code, out, err = run(capsys, "char", "--fn", "exp_z", "--radii", "2", "--config", str(cfg))
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err) == {"error": "ToolkitError",
                               "detail": "--config needs a JSON object of flag values"}


@pytest.mark.parametrize("key, value", [("out", None), ("json_out", True), ("out", ["a.csv"])])
def test_config_value_that_is_not_a_string_or_number_is_an_error(capsys, tmp_path, monkeypatch,
                                                                 key, value):
    """null, true and a list were passed on as the text "None", "True" and
    "['a.csv']": a path flag wrote a file of that name."""
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, "char", "--fn", "exp_z", "--radii", "2", "--config", str(cfg))
    assert code == EXIT_ERROR and out == ""
    assert json.loads(err) == {"error": "ToolkitError", "detail": (
        f"--config value of {key!r} must be a string or a number, not {json.dumps(value)}")}
    assert [f.name for f in tmp_path.iterdir()] == ["run.json"]


def test_config_without_path_is_an_error(capsys):
    code, _, err = run(capsys, "char", "--fn", "exp_z", "--config")
    assert code == EXIT_ERROR
    payload = json.loads(err)
    assert payload == {"error": "ToolkitError",
                       "detail": "--config needs a JSON file path"}


def test_thread_env_does_not_change_bytes():
    cmd = [sys.executable, "-m", "nevlab.cli", "char", "--fn", "exp_z2",
           "--radii", "1,2,4,8"]
    env1 = dict(os.environ, NEVLAB_THREADS="1")
    env4 = dict(os.environ, NEVLAB_THREADS="4")
    r1 = subprocess.run(cmd, capture_output=True, text=True, env=env1)
    r4 = subprocess.run(cmd, capture_output=True, text=True, env=env4)
    assert r1.returncode == r4.returncode == 0
    assert r1.stdout == r4.stdout


def test_cli_import_does_not_load_scipy():
    code = "import sys, nevlab.cli; print('scipy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_cli_run_leaves_dataclasses_and_hashlib_unimported():
    # the records build their methods without dataclasses, and nothing in
    # nevlab imports hashlib; every layer module stays imported up front,
    # where the benchmark's clock and tracer look for them after import
    code = ("import contextlib, io, json, sys\n"
            "import nevlab.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['char', '--fn', 'exp_z', '--radii', '2'])\n"
            "print(json.dumps([code, sorted(sys.modules)]))")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    code, modules = json.loads(r.stdout)
    assert code == EXIT_PASS
    assert "dataclasses" not in modules
    assert "hashlib" not in modules
    for name in ("core", "roots", "divisor", "circles", "kinks", "apoints", "fnmodel",
                 "quadrature", "nevanlinna", "boundslab", "algmap", "constructor"):
        assert "nevlab." + name in modules


def test_console_entry_point_exists():
    r = subprocess.run([sys.executable, "-m", "nevlab.cli", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
    for name in ("char", "verify", "orbit", "construct", "census",
                 "counterexample", "hyperorder"):
        assert name in r.stdout
