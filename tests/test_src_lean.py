"""src/afsub ships only product code: every definition in it is used by the
package, its scripts or the benchmark harness, not by the tests alone.
Test-only helpers and oracles live in tests/oracles.py."""

import ast
import importlib
import inspect
import re
import shutil
from collections import defaultdict
from pathlib import Path

import pytest

import afsub
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "afsub"


def _definitions(path: Path):
    """(qualified name, name, is_method, first line, last line) of each
    top-level function or class and each public method in path."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield f"{path.stem}.{node.name}", node.name, False, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not item.name.startswith("_"):
                    qualname = f"{path.stem}.{node.name}.{item.name}"
                    yield qualname, item.name, True, item.lineno, item.end_lineno


def _references(path: Path, modules: set[str]):
    """(name, line, kind) for each use of a name in a Python file.  kind is
    "name" for a bare or imported name, "module" for an attribute read off
    a module of the package, "attr" for any other attribute, and "string"
    for a string constant, as getattr and the benchmark tracer's patches
    name their targets."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            kind = "module" if isinstance(node.value, ast.Name) and node.value.id in modules else "attr"
            yield node.attr, node.lineno, kind
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, "name"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, "string"


def _overrides(qualname: str) -> bool:
    """Whether a method overrides a base class's, which calls it."""
    module, cls, method = qualname.split(".")
    bases = getattr(importlib.import_module(f"afsub.{module}"), cls).__mro__[1:]
    return any(method in vars(base) for base in bases)


# Module-level functions that Python itself calls (PEP 562).
MODULE_HOOKS = ("__getattr__", "__dir__")


def unused_definitions(src: Path = SRC) -> list[str]:
    """Every definition in src that nothing outside it uses, counting uses
    in src, scripts/, perfbench/*.py, pyproject.toml and afsub.__all__.  A
    use inside a definition found unused does not count, so a helper that
    only unused code calls is found too.  A module's __getattr__ and
    __dir__ count as used: Python calls them (PEP 562)."""
    modules = {p.stem for p in src.glob("*.py")}
    refs = defaultdict(list)
    for path in (*src.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")):
        for name, line, kind in _references(path, modules):
            refs[name].append((path, line, kind))
    pyproject = (ROOT / "pyproject.toml").read_text()
    defs = [(path, *d) for path in sorted(src.glob("*.py")) for d in _definitions(path)]
    dead: dict[str, tuple[Path, int, int]] = {}

    def used(path, qualname, name, is_method, first, last) -> bool:
        if name in afsub.__all__ or re.search(rf"\b{re.escape(name)}\b", pyproject):
            return True
        if is_method and _overrides(qualname):
            return True
        if not is_method and name in MODULE_HOOKS:
            return True
        kinds = ("attr", "module", "string") if is_method else ("name", "module", "string")
        return any(
            kind in kinds
            and not (ref_path == path and first <= line <= last)
            and not any(ref_path == p and a <= line <= b for p, a, b in dead.values())
            for ref_path, line, kind in refs[name]
        )

    while True:
        found = {
            qualname: (path, first, last)
            for path, qualname, name, is_method, first, last in defs
            if qualname not in dead and not used(path, qualname, name, is_method, first, last)
        }
        if not found:
            return sorted(dead)
        dead.update(found)


def test_every_src_definition_is_used_outside_tests():
    assert unused_definitions() == []


# Test-only definitions, kept in tests/oracles.py or inlined in the tests
# that use them, as (module, class, name): put back in src/afsub, each must
# be flagged.
MOVED = [
    ("words", None, "longest_anagram_free"),
    ("words", None, "is_anagram"),
    ("words", None, "restrict"),
    ("words", "Word", "from_string"),
    ("bounds", None, "validate_monochromatic_witness"),
    ("bounds", None, "multiset_count"),
    ("graph_model", "RootedTree", "root_path"),
    ("graph_model", "RootedTree", "leaves"),
    ("graph_model", "SubdividedGraph", "is_original"),
    ("graph_constructions", None, "density_sequence_margin"),
]


@pytest.mark.parametrize("module,cls,name", MOVED, ids=[".".join(filter(None, m)) for m in MOVED])
def test_a_moved_definition_put_back_is_found(tmp_path, module, cls, name):
    src = tmp_path / "afsub"
    shutil.copytree(SRC, src)
    path = src / f"{module}.py"
    lines = path.read_text().splitlines(keepends=True)
    if cls is None:
        lines.append(f"\n\ndef {name}(*args):\n    return None\n")
    else:
        node = next(n for n in ast.parse("".join(lines)).body if getattr(n, "name", None) == cls)
        lines.insert(node.end_lineno, f"\n    def {name}(self, *args):\n        return None\n")
    path.write_text("".join(lines))
    assert unused_definitions(src) == [".".join(filter(None, (module, cls, name)))]


def test_a_helper_of_unused_code_is_found(tmp_path):
    src = tmp_path / "afsub"
    shutil.copytree(SRC, src)
    with open(src / "words.py", "a") as fh:
        for oracle in (oracles.is_anagram, oracles.longest_anagram_free):
            fh.write("\n\n" + inspect.getsource(oracle))
    assert unused_definitions(src) == ["words.is_anagram", "words.longest_anagram_free"]
