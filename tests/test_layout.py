"""Static checks on the package source: no unused imports, no float
accumulator, no definition and no parameter default that only tests reach,
and the module layering that keeps the arithmetic kernels at the bottom."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "dp4sieve"
MODULES = sorted(SRC.glob("*.py"))
ORACLES = pathlib.Path(__file__).parent / "oracles.py"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _package_imports(tree) -> set:
    """Sibling modules imported, relatively or as dp4sieve.<module>."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dp4sieve."):
            out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(a.name.split(".")[1] for a in node.names
                       if a.name.startswith("dp4sieve."))
    return out


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_no_float_accumulator():
    # exact counts stay integers: no weighted bincount (it returns float64)
    # and no float64 arrays anywhere in the package
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "bincount"
                    and (len(node.args) > 1 or any(kw.arg == "weights" for kw in node.keywords))):
                found.append(f"{path.name}:{node.lineno} weighted bincount")
            if isinstance(node, ast.Attribute) and node.attr == "float64":
                found.append(f"{path.name}:{node.lineno} float64")
    assert not found, ", ".join(found)


def _fresh_interpreter(code: str) -> str:
    """The last line that code, run in a new interpreter on src, prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC.parent), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()[-1]


def _cli_then_report(argv, modules) -> str:
    """Code that runs the CLI on argv, its stdout discarded, then prints
    which of `modules` the run loaded."""
    return ("import contextlib, io, sys\n"
            "from dp4sieve.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({list(argv)!r}) == 0\n"
            f"print(sorted(set({list(modules)!r}) & set(sys.modules)))")


def test_importing_the_cli_loads_no_hashlib():
    # hashlib loads OpenSSL's libcrypto, about 3.6 MB of peak RSS that only
    # a count cache needs: CountCache imports it where it checksums a line
    assert _fresh_interpreter("import sys, dp4sieve.cli; print('hashlib' in sys.modules)") \
        == "False"


def test_building_a_surface_loads_neither_numpy_nor_the_engine():
    # what every run pays before its first count: harness imports secenum
    # on the first count, and the series kernel imports numpy on its first
    # series
    assert _fresh_interpreter(
        "import sys, dp4sieve.cli\n"
        "from dp4sieve.harness import RunConfig\n"
        "RunConfig(p=3, n=1).surface()\n"
        "RunConfig(p=2, n=2).surface()\n"
        "print(sorted({'numpy', 'dp4sieve.secenum'} & set(sys.modules)))") == "[]"


@pytest.mark.parametrize("command", ["cone", "markings", "tamagawa", "limit-check"])
def test_commands_that_count_nothing_load_no_numpy(command):
    assert _fresh_interpreter(_cli_then_report([command], ["numpy"])) == "[]"


def test_a_warm_cache_count_loads_no_numpy(tmp_path):
    cache = str(tmp_path / "cache")
    loaded = {run: _fresh_interpreter(_cli_then_report(
        ["--field-p", "3", "--cache-dir", cache, "--out-dir", str(tmp_path / run), "count"],
        ["numpy", "dp4sieve.secenum"])) for run in ("cold", "warm")}
    assert loaded == {"cold": "['dp4sieve.secenum', 'numpy']", "warm": "[]"}
    csv = "count_q3_d4.csv"
    assert (tmp_path / "warm" / csv).read_bytes() == (tmp_path / "cold" / csv).read_bytes()


def test_field_sits_below_everything_but_errors():
    assert _package_imports(_tree(SRC / "field.py")) <= {"errors"}


def test_nslattice_sits_on_errors_and_linalg():
    assert _package_imports(_tree(SRC / "nslattice.py")) <= {"errors", "linalg"}


def test_heightzeta_does_not_import_sieve():
    assert "sieve" not in _package_imports(_tree(SRC / "heightzeta.py"))


def test_sieve_imports_nothing_from_secenum():
    assert "secenum" not in _package_imports(_tree(SRC / "sieve.py"))


def test_sieve_has_no_series_kernel_of_its_own():
    # truncated series arithmetic lives in heightzeta.TruncatedMultiSeries:
    # besides exactnum's interval numbers no other class multiplies, and no
    # other module defines a series helper
    products, helpers = set(), []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(m, ast.FunctionDef) and m.name in ("__mul__", "__rmul__")
                    for m in node.body):
                products.add((path.stem, node.name))
            elif (isinstance(node, ast.FunctionDef) and "series" in node.name
                  and path.stem != "heightzeta"):
                helpers.append(f"{path.name}:{node.name}")
    assert products == {("exactnum", "Interval"), ("heightzeta", "TruncatedMultiSeries")}
    assert not helpers


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _attributes_read(node) -> set:
    return {n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _reference_graph():
    """Nodes are (module, name) for every top-level definition or assignment
    in src and (module, class, member) for every method or property.  Each
    node maps to the (module, name) pairs its source mentions, through the
    module's own names and the relative imports at its top or in the node's
    own body, and to the attribute names it reads.  A class node covers its
    body without its methods.  A name that the node binds itself (an
    argument or an assignment target) is local, not a mention; a name its
    body imports is a mention of the imported definition, not of a module
    name it shadows."""
    graph, members = {}, []
    for path in MODULES:
        mod, tree = path.stem, _tree(path)
        names = {alias.asname or alias.name: (node.module, alias.name)
                 for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names}
        local = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                local[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    local.update((n.id, node) for n in ast.walk(target) if isinstance(n, ast.Name))
        names.update((name, (mod, name)) for name in local)
        parts = {}
        for name, node in local.items():
            if isinstance(node, ast.ClassDef):
                methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
                parts.update(((mod, name, m.name), [m]) for m in methods)
                members.extend((mod, name, m.name) for m in methods)
                parts[(mod, name)] = node.decorator_list + node.bases + node.keywords + [
                    b for b in node.body if b not in methods]
            else:
                parts[(mod, name)] = [node]
        for key, trees in parts.items():
            walked = [n for tree in trees for n in ast.walk(tree)]
            scope = names | {alias.asname or alias.name: (n.module, alias.name)
                             for n in walked if isinstance(n, ast.ImportFrom) and n.level == 1
                             for alias in n.names}
            bound = {n.arg if isinstance(n, ast.arg) else n.id for n in walked
                     if isinstance(n, ast.arg)
                     or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            free = scope.keys() - bound
            graph[key] = ({scope[n.id] for n in walked if isinstance(n, ast.Name) and n.id in free},
                          set().union(*map(_attributes_read, trees)))
    return graph, members


def test_every_definition_is_reached_from_the_cli_or_the_ledger():
    # brute-force references live in tests/oracles.py, not in the package.
    # A definition is reached through a name, a method or property through
    # an attribute read of its name by reached code or by the ledger, once
    # its class is reached; dunders are exempt
    ledger = _tree(ROOT / "bench" / "ledger.py")
    roots = {("cli", "main")} | {
        (node.module.split(".")[1], alias.name)
        for node in ast.walk(ledger)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dp4sieve.")
        for alias in node.names}
    graph, members = _reference_graph()
    reached, read, todo = set(), _attributes_read(ledger), list(roots)
    while todo:
        while todo:
            key = todo.pop()
            if key not in reached:
                reached.add(key)
                mentions, attrs = graph.get(key, ((), ()))
                todo.extend(mentions)
                read |= attrs
        todo = [(mod, cls, name) for mod, cls, name in members
                if (mod, cls) in reached and (mod, cls, name) not in reached
                and (_is_dunder(name) or name in read)]
    unreached = [".".join(key) for key in graph
                 if key not in reached and not _is_dunder(key[-1])
                 and (len(key) == 2 or key[:2] in reached)]
    assert not unreached, \
        f"{len(unreached)} definitions only tests reach: {', '.join(sorted(unreached))}"


def _defaulted_parameters(func, bound: bool):
    """(name, position) of each parameter with a default; position is the
    index a call's positional arguments reach it at, None if keyword-only.
    A bound method's calls skip its first parameter."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if bound else 0:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _passes(call, name: str, position) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_parameter_default_is_overridden_somewhere():
    # a default that no call in src, the ledger or the tracer ever overrides
    # is a knob only tests turn.  Calls match definitions by name; a call of
    # a class counts for its __init__
    defaulted = []
    for path in MODULES:
        tree = _tree(path)
        methods = {id(m): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for m in cls.body if isinstance(m, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in node.decorator_list)
                bound = id(node) in methods and not static
                callee = methods[id(node)] if node.name == "__init__" else node.name
                defaulted += [(path.stem, node.name, callee, name, pos)
                              for name, pos in _defaulted_parameters(node, bound)]
    calls = {}
    for path in MODULES + [ROOT / "bench" / "ledger.py", ROOT / "bench" / "traced.py"]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    never = [f"{mod}.{func}({name})" for mod, func, callee, name, pos in defaulted
             if not any(_passes(call, name, pos) for call in calls.get(callee, ()))]
    assert not never, f"defaults no call overrides: {', '.join(never)}"
