"""nevlab benchmark: entry point, one run of one workload.

    python3 bench/run.py --workload {sweep,smt,census} --seed N --seconds S --trace {0,1}

Inputs come from ``--seed`` only.  Each repetition runs in a fresh
interpreter (bench/worker.py) as one closed-loop client that issues the
workload's ops back to back, with BLAS pinned to one thread and
``NEVLAB_THREADS`` unset.  Repetitions start while they fit in
``--seconds``, each preceded by an import-only interpreter that adds a
set-up sample.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, as medians
over repetitions of times normalised to a reference host speed by the
calibration probe in bench/clock.py; ``--trace 1`` alternates untraced and
traced repetitions and reports its per-layer metrics.  The last stdout line
is the JSON result, the lines before it list every metric with its unit,
and the full record (inputs, environment, every repetition with its raw
times) goes to .bench_out/.  Exits 2 when there is no nevlab source tree
next to the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # every run must end within three minutes
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
# Exact per-seed counts, recorded so a later claim can be re-run on an
# unseen seed with comparable work.
EXACT_COUNTS = ("fnmodel.poly_roots_calls", "quadrature.evaluations",
                "fnmodel.divisor_cache_hits", "fnmodel.divisor_cache_misses")


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NEVLAB_THREADS"}
    env.update(BLAS_PIN, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(spec: dict, deadline: float, importtime: bool = False) -> tuple[dict, str]:
    """Run one worker to completion; returns its result and its stderr."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(BENCH / "worker.py")]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    try:
        proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True,
                              text=True, cwd=ROOT, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("a worker ran past the run deadline") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_times(stderr: str) -> dict:
    """Seconds importing nevlab, scipy and numpy, from ``-X importtime``.

    Each package's figure is the summed cumulative time of its outermost
    modules, those not imported from inside the same package.
    """
    rows = []
    for line in stderr.splitlines():
        if line.startswith("import time:") and "imported package" not in line:
            _, cum_us, name = line[len("import time:"):].split("|")
            depth = (len(name) - len(name.lstrip()) - 1) // 2
            rows.append((depth, name.strip(), int(cum_us)))
    totals = {"nevlab": 0, "scipy": 0, "numpy": 0}
    ancestors: list[tuple[int, str]] = []
    for depth, name, cum in reversed(rows):  # importtime prints children first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        pkg = name.split(".")[0]
        if pkg in totals and all(a.split(".")[0] != pkg for _, a in ancestors):
            totals[pkg] += cum
        ancestors.append((depth, name))
    return {f"import.{pkg}_s": us / 1e6 for pkg, us in totals.items()}


def environment() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if (ROOT / ".git").exists():  # a bare checkout records only the source hash
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "blas_threads": BLAS_PIN}


def measure(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    ops = wl.generate(random.Random(args.seed))
    deadline = time.monotonic() + DEADLINE_S
    base = {"workload": args.workload, "cli": wl.cli, "trace": False}
    spawn({**base, "mode": "setup"}, deadline)  # untimed: bytecode and file cache
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    setups, reps = [], []
    start = time.monotonic()
    cycle = 0.0
    # An import-only interpreter precedes every repetition, so that set-up
    # is sampled across the whole run.  A repetition starts only if, judged
    # by the last one's length, it would end at most half a repetition
    # after --seconds.
    while (not reps or (args.trace and len(reps) < 2)
           or time.monotonic() - start + cycle / 2 <= args.seconds):
        t0 = time.monotonic()
        setups.append(spawn({**base, "mode": "setup"}, deadline,
                            importtime=bool(args.trace)))
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep, _ = spawn({**base, "mode": "run", "ops": ops, "trace": traced,
                        "spans_path": str(spans_path) if traced else None}, deadline)
        rep["traced"] = traced
        reps.append(rep)
        cycle = time.monotonic() - t0

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    med = statistics.median
    if args.trace:
        layers = traced[0]["layers"]
        metrics = {k: med([r["layers"][k] for r in traced]) for k in layers}
        imports = [import_times(err) for _, err in setups]
        metrics.update({k: med([t[k] for t in imports]) for k in imports[0]})
        metrics["trace.overhead_s"] = (med([r["wall_s"] for r in traced])
                                       - med([r["prog_wall_s"] for r in untraced]))
    else:
        metrics = {
            "setup_s": med([s["norm_import_s"] for s, _ in setups]
                           + [r["norm_import_s"] for r in untraced]),
            "wall_s": med([r["norm_wall_s"] for r in untraced]),
            "cpu_s": med([r["norm_cpu_s"] for r in untraced]),
            "peak_rss_mb": med([r["peak_rss_mb"] for r in reps]),
        }
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    errs = [r["ref_err_max"] for r in reps if r["ref_err_max"] is not None]
    metrics["check.fail_frac"] = failed / attempted
    metrics["check.ref_err_max"] = max(errs) if errs else 0.0
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "ops": ops,
              "setups": [s for s, _ in setups], "reps": reps,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    return record, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nevlab" / "__init__.py").is_file():
        print(f"no nevlab source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    try:
        record, metrics = measure(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    reported = {k: v for k, v in metrics.items() if k in wanted}
    if set(reported) != wanted:
        print(f"metrics missing from the run: {sorted(wanted - set(reported))}",
              file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(OUT / "counts.jsonl", "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "source_sha256": record["environment"]["source_sha256"],
                                 **{k: metrics[k] for k in EXACT_COUNTS}}) + "\n")

    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"# {tag}: {len(record['reps'])} repetitions, "
          f"{record['failed']}/{record['attempted']} ops failed")
    for name, value in metrics.items():
        print(f"# {name:32s} {value:.6g} {units[name]}")
    for rep in record["reps"]:
        for line in rep["failures"]:
            print(f"# FAILED {line}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in reported.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
