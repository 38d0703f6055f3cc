"""Static checks on the package source: no unused imports, no float
accumulator, no definition that only tests reach, and the module layering
that keeps the arithmetic kernels at the bottom."""

import ast
import pathlib

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


def test_field_sits_below_everything_but_errors():
    assert _package_imports(_tree(SRC / "field.py")) <= {"errors"}


def test_nslattice_sits_on_errors_and_linalg():
    assert _package_imports(_tree(SRC / "nslattice.py")) <= {"errors", "linalg"}


def test_heightzeta_does_not_import_sieve():
    assert "sieve" not in _package_imports(_tree(SRC / "heightzeta.py"))


def test_sieve_imports_nothing_from_secenum():
    assert "secenum" not in _package_imports(_tree(SRC / "sieve.py"))


def test_sieve_has_no_series_kernel_of_its_own():
    # truncated series arithmetic lives in heightzeta.TruncatedMultiSeries
    defs = [node.name for node in ast.walk(_tree(SRC / "sieve.py"))
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_series")]
    assert not defs


def _reference_graph() -> dict:
    """(module, name) of every top-level definition or assignment in src ->
    the (module, name) pairs that its source mentions, through the module's
    own names and its relative imports.  A name that the definition binds
    itself (an argument or an assignment target) is local, not a mention."""
    graph = {}
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
        for name, node in local.items():
            bound = {n.arg if isinstance(n, ast.arg) else n.id for n in ast.walk(node)
                     if isinstance(n, ast.arg)
                     or isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            free = names.keys() - bound
            graph[(mod, name)] = {names[n.id] for n in ast.walk(node)
                                  if isinstance(n, ast.Name) and n.id in free}
    return graph


def test_every_definition_is_reached_from_the_cli_or_the_ledger():
    # brute-force references live in tests/oracles.py, not in the package
    roots = {("cli", "main")} | {
        (node.module.split(".")[1], alias.name)
        for node in ast.walk(_tree(ROOT / "bench" / "ledger.py"))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dp4sieve.")
        for alias in node.names}
    graph = _reference_graph()
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(graph.get(key, ()))
    unreached = sorted(f"{path.stem}.{node.name}" for path in MODULES for node in _tree(path).body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and (path.stem, node.name) not in reached)
    assert not unreached, f"{len(unreached)} definitions only tests reach: {', '.join(unreached)}"
