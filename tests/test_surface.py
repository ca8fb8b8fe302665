"""The package surface holds only what the program runs.

Every top-level function or class and every non-dunder method under
``src/wreathbench/`` must be used: its name appears in a module of ``src/``
outside its own definition, or anywhere in ``bench/``, as an identifier or
as a whole string literal (the benchmark's span table wraps functions by
name).  An import in ``__init__.py`` is not a use, so a name that only the
package's export list reaches counts as unused.  Every name that a module
other than ``__init__.py`` imports is used in that module.  The program also
holds no ``assert``: a check that ``python -O`` drops is not a check.
"""

import ast
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "wreathbench").glob("*.py"))
MODULES = [path for path in SRC if path.name != "__init__.py"]
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _words(path):
    """(line, word) for every identifier token and whole string literal."""
    out = []
    with open(path, "rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.NAME:
                out.append((tok.start[0], tok.string))
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):
                    continue
                if isinstance(value, str):
                    out.append((tok.start[0], value))
    return out


def _definitions(tree):
    """(name, first line, last line) of each top-level function or class and
    each method that is not a dunder."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member


def unused_definitions():
    words = {path: _words(path) for path in MODULES}
    bench = {w for path in BENCH for _, w in _words(path)}
    unused = []
    for path in SRC:
        for node in _definitions(ast.parse(path.read_text(encoding="utf-8"))):
            used = node.name in bench or any(
                w == node.name and (p != path or not node.lineno <= line <= node.end_lineno)
                for p, found in words.items()
                for line, w in found
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def unused_imports():
    """Names a module imports but never reads.  Uses are read from the syntax
    tree, where a name inside an f-string is an ``ast.Name`` as well."""
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    return unused


def asserts():
    return [
        f"{path.name}:{node.lineno}"
        for path in SRC
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]


def test_every_definition_is_used():
    assert unused_definitions() == []


def test_every_import_is_used():
    assert unused_imports() == []


def test_no_assert_statements():
    assert asserts() == []
