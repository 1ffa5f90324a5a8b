"""Every function in src/thermoqm is reached from the CLI, or says why it is kept.

A scan of the package's syntax trees by name.  The roots are what cli.py runs
(the handlers `@op` registers, `main` and its module-level code), the module-
level code of every other module, every name perfbench/ uses (in its code or
in strings, as its layer trace names what it wraps), and the names that a
module docstring lists in its one "Kept without an op:" sentence, each with a
reason in parentheses.  A top-level function or method is reached when a root
or a reached definition uses its name; a class that is used brings its class
body, bases and special methods.  Names, not bindings, are followed, so the
scan can only over-count what is reached.
"""

import ast
import pathlib
import re

import thermoqm

PKG = pathlib.Path(thermoqm.__file__).parent
BENCH = PKG.parent.parent / "perfbench"
KEPT = re.compile(r"Kept without an op:(.*?)\.(?:\s|$)", re.S)
# a reason names the owning ROADMAP item, a demo, an acceptance criterion or the benchmark trace
REASON = re.compile(r"\bitem (?:5|6|8|13)\b|\bdemo 0\d\b|\bcriterion \d+\b|\bbenchmark trace\b")


def _names(nodes, strings=False):
    """Identifiers used in the nodes: names and attributes, and with strings=True
    the identifiers inside string constants too."""
    out = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return out


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PKG.glob("*.py"))
            if path.stem != "__init__"}


def _kept(tree):
    """{name: reason} from the module docstring's "Kept without an op:" sentence."""
    found = KEPT.findall(ast.get_docstring(tree) or "")
    assert len(found) <= 1, "one 'Kept without an op:' sentence a module"
    kept = {}
    for names, reason in re.findall(r"([^()]*)\(([^()]*)\)", found[0] if found else ""):
        for name in re.findall(r"`([\w.]+)`", names):
            kept[name] = " ".join(reason.split())
    return kept


def _definitions(modules):
    """[(module, qualified name, name, node)] of every top-level function, class and method."""
    out = []
    for mod, tree in modules.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                out.append((mod, top.name, top.name, top))
            if isinstance(top, ast.ClassDef):
                out += [(mod, f"{top.name}.{sub.name}", sub.name, sub) for sub in top.body
                        if isinstance(sub, ast.FunctionDef)]
    return out


def _uses(node):
    """What using a definition runs: a function its body and decorators; a class
    its class body outside methods, its bases and decorators, and its special methods."""
    if isinstance(node, ast.FunctionDef):
        return _names([node])
    parts = [s for s in node.body if not isinstance(s, ast.FunctionDef)]
    parts += [s for s in node.body if isinstance(s, ast.FunctionDef) and s.name.startswith("__")]
    return _names(parts + node.bases + node.decorator_list)


def _roots(modules):
    roots = set()
    for mod, tree in modules.items():
        skip = (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef, ast.Expr)  # Expr: docstring
        roots |= _names([t for t in tree.body if not isinstance(t, skip)])
        roots |= {name.split(".")[-1] for name in _kept(tree)}
    roots |= {top.name for top in modules["cli"].body
              if isinstance(top, ast.FunctionDef) and (top.decorator_list or top.name == "main")}
    for path in sorted(BENCH.glob("*.py")):
        roots |= _names([ast.parse(path.read_text())], strings=True)
    return roots


def _reached(modules):
    defs = {}
    for mod, qual, name, node in _definitions(modules):
        defs.setdefault(name, []).append(node)
    reached, todo = set(), list(_roots(modules))
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo += _uses(node)
    return reached


def test_every_function_is_reached_from_an_op_or_kept_with_a_reason():
    modules = _modules()
    reached = _reached(modules)
    unreached = [f"{mod}.{qual}" for mod, qual, name, node in _definitions(modules)
                 if isinstance(node, ast.FunctionDef) and not name.startswith("__")
                 and name not in reached]
    assert unreached == []


def test_kept_names_exist_and_give_a_reason():
    for mod, tree in _modules().items():
        defined = {qual for m, qual, _, _ in _definitions({mod: tree})}
        for name, reason in _kept(tree).items():
            assert name in defined, f"{mod}: {name} is kept but not defined"
            assert REASON.search(reason), f"{mod}: {name} is kept for {reason!r}"


def test_no_module_imports_another_modules_underscore_name():
    imports = [(path.stem, alias.name) for path in sorted(PKG.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom) and (node.level or "thermoqm" in (node.module or ""))
               for alias in node.names]
    assert [(mod, name) for mod, name in imports if name.startswith("_")] == []
