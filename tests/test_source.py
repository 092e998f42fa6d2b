"""Checks on the package source itself."""

import ast
import dataclasses
import importlib
import re
import sys
from pathlib import Path

import gfmredux

SRC = Path(gfmredux.__file__).parent
TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
README = Path(__file__).resolve().parent.parent / "README.md"


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads."""
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read]


def dead_private_names(trees: dict[str, ast.Module]) -> list[str]:
    """Module-level private names (`_x`) that nothing in the package reads.

    A read inside the definition's own statement (recursion) does not count.
    """
    defined: dict[tuple[str, str], tuple[int, int]] = {}
    readers: dict[str, set] = {}
    for mod, tree in trees.items():
        for index, stmt in enumerate(tree.body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[mod, name] = index, stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    readers.setdefault(node.id, set()).add((mod, index))
                elif isinstance(node, ast.Attribute):
                    readers.setdefault(node.attr, set()).add((mod, index))
                elif isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        readers.setdefault(alias.name, set()).add((mod, index))
    dead = []
    for (mod, name), (index, line) in defined.items():
        if not readers.get(name, set()) - {(mod, index)}:
            dead.append(f"{mod}.{name} (line {line})")
    return dead


def test_dead_private_names_scan_finds_them():
    trees = {
        "a": ast.parse("_LIMIT = 3\n_used = 1\n\ndef _loop(n):\n"
                       "    return _loop(n - 1)\n"),
        "b": ast.parse("from a import _used\n\ndef _chain_reach():\n"
                       "    pass\n"),
    }
    assert dead_private_names(trees) == [
        "a._LIMIT (line 1)", "a._loop (line 4)", "b._chain_reach (line 3)",
    ]


def test_no_dead_private_names_in_package():
    assert dead_private_names(_package_trees()) == []


def test_unused_imports_scan_finds_them():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom re import A, B as C\nprint(B, C)\n")
    assert unused_imports(tree) == ["os (line 2)", "A (line 3)"]


def test_no_unused_imports_in_package():
    found = {
        path.name: unused
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"  # its imports are the re-exports
        if (unused := unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def unbounded_caches(tree: ast.Module) -> list[str]:
    """Module-level functions cached without a bound: decorated with
    `lru_cache(maxsize=None)`, `lru_cache(None)` or `cache`, plain or as
    `functools.` attributes."""
    def unbounded(dec):
        if not isinstance(dec, ast.Call):
            return _name(dec) == "cache"
        if _name(dec.func) == "cache":
            return True
        size = [kw.value for kw in dec.keywords if kw.arg == "maxsize"] + dec.args[:1]
        return (_name(dec.func) == "lru_cache" and bool(size)
                and isinstance(size[0], ast.Constant) and size[0].value is None)

    return [f"{stmt.name} (line {stmt.lineno})" for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(unbounded(dec) for dec in stmt.decorator_list)]


def test_unbounded_cache_scan_finds_them():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=None)\ndef a(x):\n    return x\n\n"
        "@functools.lru_cache(None)\ndef b(x):\n    return x\n\n"
        "@cache\ndef c(x):\n    return x\n\n"
        "@functools.cache\ndef d(x):\n    return x\n\n"
        "@lru_cache(maxsize=64)\ndef e(x):\n    return x\n\n"
        "@lru_cache\ndef f(x):\n    return x\n\n"
        "@functools.lru_cache(4096)\ndef g(x):\n    return x\n\n"
        "@lru_cache()\ndef h(x):\n    return x\n"
    )
    assert unbounded_caches(tree) == [
        "a (line 5)", "b (line 9)", "c (line 13)", "d (line 17)",
    ]


def test_package_caches_are_bounded():
    """A long-lived process (a server, the benchmark) must not keep every
    argument a cached function has ever seen."""
    found = {
        path.name: unbounded
        for path in sorted(SRC.glob("*.py"))
        if (unbounded := unbounded_caches(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def cached_functions(tree: ast.Module) -> list[str]:
    """Functions at any depth (methods and nested functions included)
    decorated with `lru_cache` or `cache`, plain, called or as `functools.`
    attributes."""
    def cached(dec):
        return _name(dec.func if isinstance(dec, ast.Call) else dec) in ("lru_cache", "cache")

    return [node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(cached(dec) for dec in node.decorator_list)]


def test_cached_function_scan_finds_them():
    tree = ast.parse(
        "import functools\nfrom functools import cache, lru_cache\n\n"
        "@lru_cache(maxsize=64)\ndef a(x):\n    return x\n\n"
        "@functools.cache\ndef b(x):\n    return x\n\n"
        "def c(x):\n    return x\n\n"
        "class K:\n    @lru_cache\n    def d(self):\n        return 1\n\n"
        "def e():\n    @cache\n    def f(x):\n        return x\n    return f\n"
    )
    assert sorted(cached_functions(tree)) == ["a", "b", "d", "f"]


def test_benchmark_empties_every_cache():
    """perfbench/run.py empties, before each operation, the caches it finds
    as `cache_clear` attributes of the package's modules.  Every cached
    function in the source must be one of those, so no memo survives from
    one operation into the next."""
    declared, found = set(), set()
    for path in sorted(SRC.glob("*.py")):
        mod = gfmredux if path.stem == "__init__" else importlib.import_module(
            f"gfmredux.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"))
        declared |= {f"{path.stem}.{n}" for n in cached_functions(tree)}
        found |= {f"{path.stem}.{n}" for n, v in vars(mod).items()
                  if callable(getattr(v, "cache_clear", None))
                  and getattr(v, "__module__", None) == mod.__name__}
    assert {"ltl.fold", "ltl._af"} <= declared
    assert declared == found


def non_stdlib_imports(tree: ast.Module) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_non_stdlib_import_scan_finds_them():
    tree = ast.parse("from __future__ import annotations\nimport os, numpy as np\n"
                     "from . import ltl\nfrom .exact import solve_linear\n\n"
                     "def f():\n    from numpy.linalg import solve\n"
                     "    import xml.dom\n")
    assert non_stdlib_imports(tree) == ["numpy (line 2)", "numpy.linalg (line 7)"]


def test_package_imports_only_the_standard_library():
    """The library is pure Python with no runtime dependencies."""
    found = {
        path.name: bad
        for path in sorted(SRC.glob("*.py"))
        if (bad := non_stdlib_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}


def test_benchmark_traces_only_functions_that_exist():
    """perfbench/run.py --trace 1 wraps each `module.function` of TRACED in
    perfbench/tracing.py; each must be defined in that gfmredux module."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    traced = next(
        ast.literal_eval(stmt.value)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and [getattr(t, "id", None) for t in stmt.targets] == ["TRACED"]
    )
    missing = []
    for name in traced:
        mod_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"gfmredux.{mod_name}"), fn_name, None)
        if not callable(fn) or fn.__module__ != f"gfmredux.{mod_name}":
            missing.append(name)
    assert len(traced) > 20 and missing == []


# The only functions that may build a value without its __post_init__ checks:
# products of a checked MDP and automaton, copies of a checked automaton
# that change only its meta or its acceptance reading, and the uniform
# weighting of a checked complete automaton.  Input read from outside
# (mdp_from_json, pa_from_json, from_hoa) and public constructors must
# always be checked.
UNCHECKED_CALLERS = {
    "mdp._product", "redux.dba_to_dca", "redux.nca_to_pa", "gfg_min.minimize",
}


def callers(trees: dict[str, ast.Module], target: str) -> set[str]:
    """Where the package calls the `automata` function `target`, under any
    name it is imported as: "module.function" (or "module.Class.method") of
    the definition holding the call, "module.<module>" for module-level
    code."""
    found = set()
    for mod, tree in trees.items():
        names = {target} | {
            alias.asname
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name == target and alias.asname
        }
        owners = []
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owners.append((f"{mod}.{stmt.name}", stmt))
            elif isinstance(stmt, ast.ClassDef):
                owners += [(f"{mod}.{stmt.name}.{getattr(s, 'name', '<class>')}", s)
                           for s in stmt.body]
            else:
                owners.append((f"{mod}.<module>", stmt))
        for owner, stmt in owners:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call) and (
                    isinstance(node.func, ast.Name) and node.func.id in names
                    or isinstance(node.func, ast.Attribute)
                    and node.func.attr == target
                ):
                    found.add(owner)
    return found


def test_unchecked_scan_finds_planted_calls():
    trees = {
        "mdp": ast.parse(
            "from .automata import _unchecked as build\n\n"
            "def mdp_from_json(data):\n    return build(Mdp, **data)\n\n"
            "def _product(m):\n    return _unchecked(Mdp, m)\n"
        ),
        "hoa": ast.parse(
            "from . import automata\n\nclass Reader:\n"
            "    def from_hoa(self, text):\n"
            "        return automata._unchecked(Automaton, kind=text)\n\n"
            "DEFAULT = _unchecked(Automaton)\n"
        ),
    }
    assert callers(trees, "_unchecked") == {
        "mdp.mdp_from_json", "mdp._product", "hoa.Reader.from_hoa", "hoa.<module>",
    }


def test_unchecked_construction_only_from_checked_inputs():
    assert callers(_package_trees(), "_unchecked") == UNCHECKED_CALLERS


def test_edge_list_scan_finds_planted_calls():
    trees = {
        "__init__": ast.parse("from .automata import build_automaton\n"
                              "__all__ = ['build_automaton']\n"),
        "gf_direct": ast.parse(
            "from .automata import build_automaton as make\n\n"
            "def nfa_to_gfm_gf(nfa):\n    return make(nfa.alphabet, 1, 0, 'buchi', [])\n"
        ),
        "hoa": ast.parse(
            "from . import automata\n\n"
            "def from_hoa(text):\n"
            "    return automata.build_automaton(al, 1, 0, 'buchi', edges)\n"
        ),
    }
    assert callers(trees, "build_automaton") == {"gf_direct.nfa_to_gfm_gf", "hoa.from_hoa"}


def test_no_module_builds_from_edge_lists():
    """Constructions build their `transitions` rows directly, one cell per
    letter class of their input; `build_automaton` (a set per cell, then a
    sort) is only the public helper for callers that hold an edge list."""
    assert callers(_package_trees(), "build_automaton") == set()


def _members(obj, part: str) -> list:
    """What `part` names on obj: its attribute, or a bare marker for a
    dataclass field that has no class-level default."""
    if hasattr(obj, part):
        return [getattr(obj, part)]
    if dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
        return [object()]
    return []


def unresolved_library_names(readme: str) -> list[str]:
    """Backticked identifiers in the README's Library section, outside its
    code blocks, that name nothing in the package.  The first part of a
    (dotted) name must be an attribute of `gfmredux` or of one of its
    modules, and each further part an attribute or a dataclass field of
    what the part before names."""
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    owners = [gfmredux] + [
        importlib.import_module(f"gfmredux.{path.stem}")
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    missing = []
    for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", section):
        first, *rest = name.split(".")
        found = [getattr(m, first) for m in owners if hasattr(m, first)]
        for part in rest:
            found = [member for obj in found for member in _members(obj, part)]
        if not found:
            missing.append(name)
    return missing


def test_library_name_scan_finds_planted_names():
    readme = (
        "# pkg\n\n## Library\n\n```python\nx = `planted_in_code`\n```\n\n"
        "`minimize`, `exact.chain_accept`, `ValueVector.policy`, `mdp`, "
        "`quotient_optimize`, `exact.no_such`, `ValueVector.no_field` and "
        "`Mdp.labels.no_such` (`gfmredux redux` is no name).\n\n"
        "## Bundled fixtures\n\n`planted_after`\n"
    )
    assert unresolved_library_names(readme) == [
        "quotient_optimize", "exact.no_such", "ValueVector.no_field",
        "Mdp.labels.no_such",
    ]


def test_readme_library_names_resolve():
    assert unresolved_library_names(README.read_text(encoding="utf-8")) == []


def unnamed_routes(readme: str, routes) -> list[str]:
    """Names of `routes` that the README's Routes paragraph (the one that
    begins "Routes:") does not give in backticks."""
    paragraph = next((p for p in readme.split("\n\n") if p.startswith("Routes:")), "")
    named = set(re.findall(r"`([^`]+)`", paragraph))
    return [route for route in routes if route not in named]


def test_route_scan_finds_planted_routes():
    readme = (
        "# pkg\n\nRoutes: `gf-direct` takes the product with the GFM\n"
        "automaton; `dba-oracle` and gfg-min are others.\n\n"
        "`redux-pa` is named after the paragraph.\n"
    )
    routes = ("gf-direct", "dba-oracle", "redux-pa", "gfg-min")
    assert unnamed_routes(readme, routes) == ["redux-pa", "gfg-min"]
    assert unnamed_routes("# pkg\n", routes) == list(routes)


def test_readme_names_every_route():
    assert unnamed_routes(README.read_text(encoding="utf-8"), gfmredux.ROUTES) == []
