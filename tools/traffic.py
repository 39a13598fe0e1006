"""Which statements of ``src/nevlab`` the project's own traffic reaches.

Runs three kinds of traffic in one interpreter, under ``sys.settrace``:

* tests: the tier-1 suite, ``tests/``, through ``pytest.main``, with
  hypothesis seeded (``--hypothesis-seed=0``) so that two runs draw the
  same examples;
* bench: the ops of every workload of ``bench/workloads.py`` for seeds 3
  and 7, as ``bench/run.py`` generates them, run once each, untimed and
  unchecked (no file under ``bench/`` is written);
* digest: the command list of ``tools/cli_digest.py``, through
  ``nevlab.cli.main`` in process (an ``--out /dev/stdout`` goes to
  ``os.devnull``).

Then it prints every function of ``src/nevlab`` with the first lines of
its statements that nothing reached, and after them those that only the
tests reached; the import of the package, traced too, counts as traffic
other than the tests.  A statement counts as reached when a line event fired on
one of its own lines (a compound statement's header, not its body); lines
that compile to no instruction are not statements here.  The caches of
the package are cleared before each kind of traffic, so a call that one
kind answered from a cache does not hide the work from the next.  Code
run in a child process (the CLI subprocess tests, the digest's demos) is
not seen.  It takes no options:

    python3 tools/traffic.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nevlab"
SEEDS = (3, 7)


def _executable_lines(path: pathlib.Path) -> set[int]:
    """Lines that hold an instruction in some code object of the file."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _blocks(node: ast.stmt) -> list[list[ast.stmt]]:
    """The statement lists nested in a compound statement."""
    blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
    return blocks + [sub.body for sub in getattr(node, "handlers", []) + getattr(node, "cases", [])]


def _own_lines(node: ast.stmt) -> range:
    """A statement's lines without the statements nested in it: a compound
    statement's header, decorators included."""
    first = min([d.lineno for d in getattr(node, "decorator_list", [])] + [node.lineno])
    nested = [block[0].lineno for block in _blocks(node) if block]
    return range(first, max(min(nested, default=node.end_lineno + 1), node.lineno + 1))


def _statements(body, executable):
    """(first line, own executable lines) of the statements of a function
    body in source order, the bodies of nested functions and classes left out."""
    for node in body:
        own = [line for line in _own_lines(node) if line in executable]
        if own:
            yield node.lineno, own
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            for block in _blocks(node):
                yield from _statements(block, executable)


def _functions(path: pathlib.Path):
    """(qualified name, def line, statements) of every function in the file."""
    executable = _executable_lines(path)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from walk(node.body, prefix + node.name + ".")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + node.name, node.lineno, list(_statements(node.body, executable))
                yield from walk(node.body, prefix + node.name + ".")
            else:
                for block in _blocks(node):
                    yield from walk(block, prefix)

    return walk(ast.parse(path.read_text()).body, "")


class _Tracer:
    """Line events of the package's frames, per kind of traffic."""

    def __init__(self):
        self.prefix = str(PACKAGE) + "/"
        self.hits: dict[str, set] = {}
        self.now: set = set()

    def _local(self, frame, event, arg):
        if event == "line":
            self.now.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        return self._local if frame.f_code.co_filename.startswith(self.prefix) else None

    @contextlib.contextmanager
    def kind(self, name: str):
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("nevlab"):
                for value in vars(module).values():  # cache objects, not their classes
                    if not isinstance(value, type) and callable(getattr(value, "cache_clear", None)):
                        value.cache_clear()
        self.now = self.hits.setdefault(name, set())
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(None)


def _tests(tracer: _Tracer) -> str:
    import pytest

    with tracer.kind("tests"), contextlib.redirect_stdout(io.StringIO()) as out:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "--hypothesis-seed=0", str(ROOT / "tests")])
    lines = out.getvalue().strip().splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    summary = lines[-1].rsplit(" in ", 1)[0] if lines else "no output"  # not its wall time
    return "\n".join([f"tests: exit {int(code)}; {summary}"] + failed)


def _bench(tracer: _Tracer) -> str:
    import nevlab

    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    failed = ran = 0
    with tracer.kind("bench"):
        for _, workload in sorted(WORKLOADS.items()):
            for seed in SEEDS:
                ops = workload.generate(random.Random(seed))
                state = workload.prepare(nevlab)
                for op in ops:
                    ran += 1
                    try:
                        workload.run(nevlab, state, op)
                    except Exception:  # the bench counts an op that raises as failed
                        failed += 1
    return f"bench: {ran} ops of seeds {', '.join(map(str, SEEDS))}, {failed} raised"


def _digest(tracer: _Tracer) -> str:
    import nevlab.cli

    sys.path.insert(0, str(ROOT / "tools"))
    from cli_digest import COMMANDS

    codes = []
    with tracer.kind("digest"):
        for argv in COMMANDS:
            sink = io.StringIO()
            # a file opened on /dev/stdout would write past the sink, into this report
            argv = [os.devnull if arg == "/dev/stdout" else arg for arg in argv]
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    codes.append(nevlab.cli.main(argv))
                except SystemExit as exc:  # argparse's usage exits
                    codes.append(exc.code)
    return f"digest: {len(codes)} commands, exit codes {sorted(set(codes))}"


def _ranges(stmts, kept) -> str:
    """First lines of the kept statements, runs of neighbours as a-b."""
    runs, last = [], None
    for i, ((line, _), keep) in enumerate(zip(stmts, kept)):
        if keep:
            if last == i - 1:
                runs[-1][1] = line
            else:
                runs.append([line, line])
            last = i
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    if sys.argv[1:]:
        print(__doc__, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    # the suite's subprocess tests import nevlab from the same tree
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    tracer = _Tracer()
    with tracer.kind("import"):  # every run imports: the decorators run here
        import nevlab.cli
    if pathlib.Path(nevlab.__file__).parent != PACKAGE:
        print(f"nevlab imports from {nevlab.__file__}, not from {PACKAGE}", file=sys.stderr)
        return 1
    for run in (_tests, _bench, _digest):
        print(run(tracer), flush=True)

    def kinds(f, own):
        return {kind for kind, lines in tracer.hits.items() if any((f, ln) in lines for ln in own)}

    for title, wanted in (("reached by nothing", set()), ("reached only by tests", {"tests"})):
        count, out = 0, []
        for path in sorted(PACKAGE.glob("*.py")):
            for name, line, stmts in _functions(path):
                kept = [kinds(str(path), own) == wanted for _, own in stmts]
                if any(kept):
                    count += sum(kept)
                    whole = " (all)" if all(kept) else ""
                    out.append(f"{path.name}:{line} {name}{whole}: {_ranges(stmts, kept)}")
        print(f"\n# statements {title}: {count}")
        print("\n".join(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
