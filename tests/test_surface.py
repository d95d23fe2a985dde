"""The public surface of the package is what something outside its unit tests
reaches.  A public function, class or method must be reached from the console
script, the benchmark (`perfbench/*.py`, by name, attribute or tracer string),
the acceptance tests, a backticked name in the README, or the body of another
reached definition in `src/pathcoalg`.  A public name that only its own unit
tests call is code nothing needs.

Names are matched by identifier, not resolved: a top-level function or class
is reached by a bare name, an import or an attribute, a method only by an
attribute.  Module imports inside the package reach nothing by themselves."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pathcoalg"


def _refs(tree):
    """The identifiers a syntax tree reads: (bare names and imports, attributes)."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names, attrs


def _words(text):
    return set(re.findall(r"[A-Za-z_]\w*", text))


def _outside_refs():
    """Every identifier the console script, the benchmark, the acceptance
    tests and the README's backticked names use."""
    found = set(re.findall(r'"pathcoalg\.\w+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text())
        found |= set().union(*_refs(tree))
        if path.parent.name == "perfbench":
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found |= _words(node.value)
    for quoted in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        found |= _words(quoted)
    return found


def _package():
    """Every function, class and method in the package as (label, name,
    is_method, node), and the module- and class-level statements that run on
    import, imports left out."""
    defs, loose = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                loose.append(node)
                continue
            label = f"{path.stem}.{node.name}"
            defs.append((label, node.name, False, node))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    defs.append((f"{label}.{sub.name}", sub.name, True, sub))
                else:
                    loose.append(sub)
    return defs, loose


def unreached_public_names():
    """Labels (`module.name`, `module.Class.method`) of the public
    definitions nothing reaches, sorted."""
    defs, loose = _package()
    outside = _outside_refs()
    names, attrs = set(), set()
    for node in loose:
        n, a = _refs(node)
        names |= n
        attrs |= a
    reached = set()
    grown = True
    while grown:
        grown = False
        for label, name, is_method, node in defs:
            if label in reached:
                continue
            # a dunder method runs whenever its class is used
            implicit = is_method and name.startswith("__") and label.rpartition(".")[0] in reached
            if implicit or name in outside or name in attrs or (not is_method and name in names):
                reached.add(label)
                n, a = _refs(node)
                names |= n
                attrs |= a
                grown = True
    return sorted(label for label, name, _, _ in defs
                  if label not in reached and not name.startswith("_"))


def test_every_public_name_is_reached():
    unreached = unreached_public_names()
    assert not unreached, f"public names that nothing outside their unit tests reaches: {unreached}"
