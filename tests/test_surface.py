"""The public surface of the package is what something outside its unit tests
reaches.  A public function, class or method must be reached from the console
script, the benchmark (`perfbench/*.py`, by import, attribute or tracer entry
point), the acceptance tests, a backticked name in the README, or the body of
another reached definition in `src/pathcoalg`.  A public name that only its own
unit tests call is code nothing needs.

A top-level function or class is reached only through its own module: an
import from it, `module.name`, or a bare name inside the module.  Of the
benchmark's strings only the words of the tracer's entry-point lists name
code.  Methods are matched by name, not resolved: a method is reached by an
attribute of that name anywhere, so one that shares its name with a reached
method is only found by inspection.  Module imports inside the package reach
nothing by themselves."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pathcoalg"
MODULES = {path.stem for path in SRC.glob("*.py")}
TRACER_LISTS = ("ENTRY_POINTS", "SCALAR_FUNCTIONS", "SCALAR_OPS")


def _refs(tree, home=None, scope=None):
    """What a syntax tree reads: the (module, name) pairs of top-level names,
    from imports, `module.name` and, inside package module `home`, bare
    names, resolved through the module's imports `scope`; and the attribute
    names, which reach methods."""
    names, attrs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and home:
            names.add(scope.get(node.id, (home, node.id)))
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                names.add((node.value.id, node.attr))
        elif isinstance(node, ast.ImportFrom):
            names |= set(_imports(node).values())
    return names, attrs


def _imports(node):
    """The names a `from ... import` binds, each mapped to (module, name)."""
    module = (node.module or "").rpartition(".")[2]
    return {alias.asname or alias.name: (module, alias.name) for alias in node.names}


def _words(text):
    return set(re.findall(r"[A-Za-z_]\w*", text))


def _outside_refs():
    """What the console script, the benchmark and the acceptance tests read,
    as `_refs` gives it, and the words that name code wherever they stand: the
    README's backticked names and the tracer's entry-point lists."""
    scripts = re.findall(r'"pathcoalg\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    names = set(scripts)
    attrs, words = set(), set()
    for path in [*sorted((ROOT / "perfbench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text())
        n, a = _refs(tree)
        names |= n
        attrs |= a
        if path.name == "tracing.py":
            for node in tree.body:
                target = getattr(node, "targets", [None])[0]
                if getattr(target, "id", None) in TRACER_LISTS:
                    for const in ast.walk(node.value):
                        if isinstance(const, ast.Constant) and isinstance(const.value, str):
                            words |= _words(const.value)
    for quoted in re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text()):
        words |= _words(quoted)
    return names, attrs, words


def _package():
    """Every function, class and method in the package as (label, module,
    name, is_method, node); the module- and class-level statements that run
    on import, imports left out, as (module, node); and each module's scope,
    the names its top-level imports bind."""
    defs, loose, scopes = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        scope = scopes[module] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom):
                scope.update(_imports(node))
                continue
            if isinstance(node, ast.Import):
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                loose.append((module, node))
                continue
            label = f"{module}.{node.name}"
            defs.append((label, module, node.name, False, node))
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    defs.append((f"{label}.{sub.name}", module, sub.name, True, sub))
                else:
                    loose.append((module, sub))
    return defs, loose, scopes


def unreached_public_names():
    """Labels (`module.name`, `module.Class.method`) of the public
    definitions nothing reaches, sorted."""
    defs, loose, scopes = _package()
    names, attrs, words = _outside_refs()
    for module, node in loose:
        n, a = _refs(node, module, scopes[module])
        names |= n
        attrs |= a
    reached = set()
    grown = True
    while grown:
        grown = False
        for label, module, name, is_method, node in defs:
            if label in reached:
                continue
            # a dunder method runs whenever its class is used
            implicit = is_method and name.startswith("__") and label.rpartition(".")[0] in reached
            named = name in attrs if is_method else (module, name) in names
            if implicit or named or name in words:
                reached.add(label)
                n, a = _refs(node, module, scopes[module])
                names |= n
                attrs |= a
                grown = True
    return sorted(label for label, _, name, _, _ in defs
                  if label not in reached and not name.startswith("_"))


def test_every_public_name_is_reached():
    unreached = unreached_public_names()
    assert not unreached, f"public names that nothing outside their unit tests reaches: {unreached}"
