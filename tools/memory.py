"""Memory that nevlab costs a process: compile peaks and the census's page faults.

First one line per module of ``src/nevlab``: its line count and the
tracemalloc peak of compiling its source, which every interpreter pays
where no bytecode is written (``PYTHONDONTWRITEBYTECODE=1``); the largest
of them sets a short run's peak RSS.  Then it copies ``src`` to a
temporary directory, compiles the copy to bytecode (``compileall``), and
runs the census ops of ``bench/workloads.py`` for seed 7 (left/30 with
``0,inf`` and two generic values, right/60 with ``0,inf``) once, through
``nevlab.cli.main``, in one fresh interpreter that imports nevlab from
that bytecode, with BLAS pinned to one thread as the bench pins it.  It
prints the minor page faults and the system time of the ops (import
excluded), per op and in all, from ``getrusage``.  Nothing under
``bench/`` is written.  It takes no options:

    python3 tools/memory.py
"""

from __future__ import annotations

import compileall
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nevlab"
SEED = 7
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# run in the child: the ops of argv[1] (JSON), each measured by getrusage
CHILD = """
import json, resource, sys
import nevlab, nevlab.cli
from workloads import WORKLOADS
census = WORKLOADS["census"]
if not nevlab.__file__.startswith(sys.argv[2]):
    raise SystemExit(f"nevlab imports from {nevlab.__file__}, not from the copy")
rows = []
for op in json.loads(sys.argv[1]):
    before = resource.getrusage(resource.RUSAGE_SELF)
    code = census.run(nevlab, None, op)[0]
    after = resource.getrusage(resource.RUSAGE_SELF)
    rows.append([op["side"], op["generations"], ",".join(op["values"]), code,
                 after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime])
print(json.dumps(rows))
"""


def compile_peaks() -> list[tuple[str, int, int]]:
    """(file name, lines, compile peak in bytes) of every module of the package."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out.append((path.name, source.count("\n"), peak))
    return out


def census_faults() -> list[list]:
    """Per census op of the seed: side, generations, values, exit code,
    minor page faults and system seconds, in a child that loads bytecode."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    ops = WORKLOADS["census"].generate(random.Random(SEED))
    with tempfile.TemporaryDirectory() as tmp:
        src = pathlib.Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        if not compileall.compile_dir(src, quiet=1):
            raise RuntimeError("the copy of src did not compile")
        env = {k: v for k, v in os.environ.items() if k != "NEVLAB_THREADS"}
        env.update(BLAS_PIN, PYTHONHASHSEED="0",
                   PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "bench")]))
        proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(ops), str(src)],
                              capture_output=True, text=True, env=env, cwd=tmp)
    if proc.returncode != 0:
        raise RuntimeError(f"the census child exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    print(f"{'module':16s} {'lines':>6s} {'compile peak MB':>16s}")
    for name, lines, peak in compile_peaks():
        print(f"{name:16s} {lines:6d} {peak / 1e6:16.2f}")
    rows = census_faults()
    print(f"\ncensus ops of seed {SEED}, nevlab loaded from bytecode:")
    for side, generations, values, code, faults, stime in rows:
        print(f"  {side}/{generations} --values {values}: exit {code}, "
              f"{faults} minor faults, {stime * 1e3:.1f} ms system")
    print(f"  all ops: {sum(r[4] for r in rows)} minor faults, "
          f"{sum(r[5] for r in rows) * 1e3:.1f} ms system")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
