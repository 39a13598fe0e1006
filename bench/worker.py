"""One fresh interpreter of the benchmark, started by run.py.

Reads a JSON spec on stdin, times ``import nevlab`` (plus ``nevlab.cli`` for
the CLI workloads) and scales it by the host's speed measured right after,
and in ``run`` mode issues the workload's ops back to back as one
closed-loop client, then checks them untimed.  An untraced timed phase runs
under the speed-normalising clock of clock.py; ``trace`` wraps it in spans
instead; ``profile``, set together with ``trace`` by crosscheck.py, also
runs it under cProfile.  Prints one JSON result line.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from collections import Counter


def run_delay() -> float:
    """Seconds this process has waited, runnable, for a CPU."""
    with open("/proc/self/schedstat") as fh:
        return int(fh.read().split()[1]) * 1e-9


def main() -> None:
    spec = json.load(sys.stdin)
    d0 = run_delay()
    t0 = time.perf_counter()
    import nevlab
    if spec["cli"]:
        import nevlab.cli  # noqa: F401
    result = {"import_s": time.perf_counter() - t0, "import_waited_s": run_delay() - d0}

    import clock as speedclock
    # the import's time on the CPU, scaled by the host's speed just after it
    result["norm_import_s"] = ((result["import_s"] - result["import_waited_s"])
                               * speedclock.PROBE_REF_S / speedclock.speed())
    if spec["mode"] == "setup":
        print(json.dumps(result))
        return

    import tracing
    import workloads

    wl = workloads.WORKLOADS[spec["workload"]]
    ops = spec["ops"]
    state = wl.prepare(nevlab)
    tracer = clock = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        cache_info = sys.modules["nevlab.fnmodel"]._divisor_cached.cache_info
        info0 = cache_info()
        tracer.active = True
    else:
        clock = speedclock.Clock(run_delay)
        speedclock.install(clock)
    profile = None
    if spec.get("profile"):
        import cProfile
        profile = cProfile.Profile()
        profile.enable()

    outcomes = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    if clock:
        clock.start()
    for op in ops:
        if clock:
            clock.mark()
        try:
            outcomes.append((True, wl.run(nevlab, state, op)))
        except Exception as exc:  # an op that raises counts as failed
            outcomes.append((False, f"{type(exc).__name__}: {exc}"))
    if clock:
        clock.stop()
    result["wall_s"] = time.perf_counter() - wall0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if profile:
        profile.disable()
    if clock:
        result.update(norm_wall_s=clock.wall, norm_cpu_s=clock.cpu,
                      prog_wall_s=clock.raw_wall, waited_s=clock.waited,
                      probes=clock.probes,
                      probe_mean_s=clock.probe_s / clock.probes)
    if tracer:
        tracer.active = False
        info1 = cache_info()
        result["layers"] = tracing.layer_metrics(
            tracer, info1.hits - info0.hits, info1.misses - info0.misses)
        result["span_counts"] = dict(Counter(span[0] for span in tracer.spans))
        if spec.get("spans_path"):
            tracer.dump(spec["spans_path"])
    if profile:
        result["profile"] = _profile_counts(profile, tracer)

    ran = [i for i, (ok, _) in enumerate(outcomes) if ok]
    verdicts = dict(zip(ran, wl.check(nevlab, state, [ops[i] for i in ran],
                                      [outcomes[i][1] for i in ran])))
    failures, errs = [], []
    for i, (ok, value) in enumerate(outcomes):
        if not ok:
            failures.append(f"op {i} raised {value}")
            continue
        passed, err, why = verdicts[i]
        if err is not None:
            errs.append(err)
        if not passed:
            failures.append(f"op {i}: {why}")
    result.update(attempted=len(ops), failed=len(failures), failures=failures[:10],
                  ref_err_max=max(errs) if errs else None)
    print(json.dumps(result))


def _profile_counts(profile, tracer) -> dict:
    """cProfile's call counts and times for every function the tracer wraps."""
    import pstats

    stats = pstats.Stats(profile).stats
    total = sum(tt for _, _, tt, _, _ in stats.values())
    out = {"total_s": total, "functions": {}}
    for name, fn in tracer.originals.items():
        code = fn.__code__
        cc, nc, tt, ct, _ = stats.get(
            (code.co_filename, code.co_firstlineno, code.co_name), (0, 0, 0.0, 0.0, None))
        out["functions"][name] = {"primitive": cc, "calls": nc, "tottime": tt,
                                  "cumtime": ct}
    return out


if __name__ == "__main__":
    main()
