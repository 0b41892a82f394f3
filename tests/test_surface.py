"""The library's public surface: what README promises, and no dead code.

The dead-code guard parses every module under src/residuemat with ast.  A
top-level name counts as used when some other top-level statement of the
package reads it as an ast Name or Attribute; imports, strings and
docstrings do not count.  A private name must be used, and a public one
must be used or listed in __all__.
"""

import ast
import shlex
from pathlib import Path

from residuemat import RootIndex, format_poly
from residuemat.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "residuemat"


def _defined(stmt) -> list:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _read(stmt) -> set:
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unused_names() -> list:
    """(module, name) for every top-level name no other statement reads."""
    stmts = []
    all_names = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            stmts.append((path.stem, stmt))
            if _defined(stmt) == ["__all__"]:
                all_names = set(ast.literal_eval(stmt.value))
    reads = [_read(stmt) for _, stmt in stmts]
    unused = []
    for i, (module, stmt) in enumerate(stmts):
        for name in _defined(stmt):
            if name.startswith("__") or name in all_names:
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                unused.append((module, name))
    return unused


def test_every_top_level_name_is_used_or_exported():
    assert _unused_names() == []


def test_star_import_resolves_every_exported_name():
    ns = {}
    exec("from residuemat import *", ns)
    import residuemat

    assert all(name in ns for name in residuemat.__all__)


def test_readme_quick_start_runs_as_documented():
    text = (ROOT / "README.md").read_text()
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    ns = {}
    values = []
    for stmt in ast.parse(code).body:
        if isinstance(stmt, ast.Expr):
            expr = compile(ast.Expression(stmt.value), "README.md", "eval")
            values.append(eval(expr, ns))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), ns)
    symbol_value, classification, polys = values
    assert symbol_value == RootIndex(k=3, d=4)
    assert classification.realizable
    assert [format_poly(P) for P in polys] == ["t", "t^3 + 2*t^2 + 3"]


def test_readme_cli_block_prints_what_it_shows(capsys):
    # each command that README follows with its output; the commented ones
    # (classify, realize) name a file instead
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    ran = []
    for group in block.strip().split("\n\n"):
        command, *output = group.splitlines()
        if "#" in command:
            continue
        argv = shlex.split(command)
        assert argv[0] == "residuemat"
        assert main(argv[1:]) == 0
        assert capsys.readouterr().out == "\n".join(output) + "\n"
        ran.append(argv[1])
    assert ran == ["symbol", "matrix", "verify", "equiv"]
