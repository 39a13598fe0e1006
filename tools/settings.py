"""Counts of the settings of ``src/nevlab``, read from its syntax trees.

Prints four counts, one ``name value`` line each:

* ``parameters``: the named parameters of every function and method,
  ``self`` and ``cls`` excluded (no lambda, ``*args`` or ``**kwargs``);
* ``defaulted``: those of them that have a default;
* ``record_fields``: the annotated fields of the ``@record`` classes;
* ``module_constants``: the upper-case names (a leading underscore allowed)
  assigned at the top level of a module;

then one line per defaulted parameter, ``file:line function name=default``.
Run a copy of it in two checkouts and diff the outputs to see which
settings a change adds or removes.  It takes no options:

    python3 tools/settings.py
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nevlab"
CONSTANT = re.compile(r"_*[A-Z][A-Z0-9_]*")


def _is_record(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "record"
               or isinstance(d, ast.Attribute) and d.attr == "record"
               for d in node.decorator_list)


def _parameters(args: ast.arguments):
    """(name, default or None) for each named parameter but ``self`` and ``cls``."""
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    pairs = list(zip(positional, defaults)) + list(zip(args.kwonlyargs, args.kw_defaults))
    return [(a.arg, d) for a, d in pairs if a.arg not in ("self", "cls")]


def _walk(node: ast.AST, scope: str, found: dict) -> None:
    """Add the parameters and record fields under ``node`` to ``found``."""
    for child in ast.iter_child_nodes(node):
        name = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{scope}.{child.name}".lstrip(".")
            for arg, default in _parameters(child.args):
                found["parameters"].append((child.lineno, name, arg, default))
        elif isinstance(child, ast.ClassDef):
            name = f"{scope}.{child.name}".lstrip(".")
            if _is_record(child):
                found["record_fields"] += sum(isinstance(s, ast.AnnAssign) for s in child.body)
        _walk(child, name, found)


def _constants(tree: ast.Module) -> int:
    names = []
    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else (
            [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
        for target in targets:
            elts = target.elts if isinstance(target, ast.Tuple) else [target]
            names += [e.id for e in elts if isinstance(e, ast.Name)]
    return sum(bool(CONSTANT.fullmatch(n)) for n in names)


def main() -> None:
    params, fields, constants, lines = 0, 0, 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        found = {"parameters": [], "record_fields": 0}
        _walk(tree, "", found)
        params += len(found["parameters"])
        fields += found["record_fields"]
        constants += _constants(tree)
        lines += [f"{path.name}:{line} {func} {arg}={ast.unparse(default)}"
                  for line, func, arg, default in found["parameters"] if default is not None]
    print(f"parameters {params}")
    print(f"defaulted {len(lines)}")
    print(f"record_fields {fields}")
    print(f"module_constants {constants}")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
