"""Source-level invariants of the package."""

import ast
import sys
from pathlib import Path

import eiscomp

PACKAGE = Path(eiscomp.__file__).parent


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements; invariant checks must raise explicitly
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_library_keeps_no_module_state():
    # a module-level name binds an int, float or str constant, so no call leaves
    # state behind for the next.  Two memo caches are decorators, not bindings,
    # and stay: bernoulli_table_mod's, whose cache_info the benchmark's tracer
    # reads, and is_admissible_prime's, which spares every construction a
    # trial division
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        todo = list(tree.body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            todo += ast.iter_child_nodes(node)
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                constant = isinstance(value, ast.Constant) and type(value.value) in (int, float, str)
                if isinstance(node, ast.AugAssign) or not constant:
                    found.append(f"{path.name}:{node.lineno} binds state")
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{path.name}:{node.lineno} global")
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            modules += [node.module] if isinstance(node, ast.ImportFrom) and node.module else []
            if any(m.split(".")[0] == "threading" for m in modules):
                found.append(f"{path.name}:{node.lineno} imports threading")
    assert found == []


def test_benchmark_tracer_still_wraps_every_traced_layer(monkeypatch):
    # the benchmark's --trace 1 mode wraps functions and methods by name; a rename
    # in the package must fail here, not only in a traced benchmark run
    monkeypatch.syspath_prepend(str(PACKAGE.parents[1] / "bench"))
    import spans
    from eiscomp.hecke import hecke_report

    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = list(tracer._undo)
        # every traced name replaced at least one binding of its original
        assert len({id(orig) for _, _, orig in patched}) == len(tracer.names)
        hecke_report(37, 32)
        stats = tracer.layer_stats()
        for name in ("linalg.matmul", "linalg.rref", "linalg.echelon_reduce", "hecke.hecke_matrix", "hecke.hecke_action"):
            assert stats[f"{name}.calls"] > 0, name
    finally:
        tracer.uninstall()
    for target, key, orig in patched:
        assert vars(target)[key] is orig


def _uses(tree: ast.AST, strings: bool) -> set[str]:
    """Names that `tree` reads outside the def or class that binds them.

    Imports alone do not count.  With `strings`, string constants count too:
    the benchmark's tracer patches functions by name.
    """
    found: set[str] = set()

    def visit(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owners)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller_outside_the_tests():
    # API that only tests call should go rather than grow back unnoticed
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exported = {a.name for node in init.body if isinstance(node, ast.ImportFrom) for a in node.names}
    sources = [(p, False) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [(p, True) for p in (PACKAGE.parents[1] / "bench").glob("*.py") if not p.name.startswith("test_")]
    used: set[str] = set()
    for path, strings in sources:
        used |= _uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), strings)
    assert sorted(exported - used) == []


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _runs(node: ast.AST) -> list[ast.AST]:
    """What runs once the definition is reached.

    A class runs its header and body, dunder methods included, since the
    language calls those; its other methods run only when reached by name.
    """
    if not isinstance(node, ast.ClassDef):
        return [node]
    body = [s for s in node.body if not isinstance(s, DEFS) or _is_dunder(s.name)]
    return node.decorator_list + node.bases + node.keywords + body


def test_every_definition_is_reached_from_the_cli_or_the_benchmark():
    # code that no command, import-time statement or benchmark reaches is dead;
    # dunder methods run implicitly
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, DEFS):
                defs.setdefault(node.name, []).append((path.stem, node))
        if path.name == "cli.py":
            roots |= _uses(tree, False)
        for stmt in tree.body:
            if not isinstance(stmt, DEFS + (ast.Import, ast.ImportFrom)):
                roots |= _uses(stmt, False)
    for path in (PACKAGE.parents[1] / "bench").glob("*.py"):
        if not path.name.startswith("test_"):
            roots |= _uses(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), True)
    reached: set[str] = set()

    def reach(names):
        todo = list(names)
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += [n for _, node in defs.get(name, []) for part in _runs(node) for n in _uses(part, False)]

    reach(roots)
    unreached = sorted(
        f"{module}.{name}"
        for name, sites in defs.items()
        for module, _ in sites
        if name not in reached and not _is_dunder(name)
    )
    assert unreached == []


def _methods(tree: ast.Module) -> set[str]:
    """Qualified names of the non-dunder methods that the module's classes define."""
    found: set[str] = set()

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif prefix and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not _is_dunder(node.name):
                found.add(prefix + node.name)

    visit(tree.body, "")
    return found


def test_every_method_runs_under_some_command(capsys, tmp_path):
    # the static test above matches methods by bare name, so a dead method passes
    # when any class has a live one of that name; here each must run, by owner
    from eiscomp.cli import main

    methods: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        methods |= _methods(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
    root = str(PACKAGE)
    ran: set[str] = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            ran.add(frame.f_code.co_qualname)

    ck = str(tmp_path / "scan.ck")
    pair = ["--p", "37", "--k", "32"]
    commands = [
        ["basis", *pair],
        ["hecke", *pair],
        ["companion", *pair, "--witness-csv", str(tmp_path / "w.csv")],
        ["structure", *pair],
        ["structure", *pair, "--format", "csv"],
        ["scan", "--min", "5", "--max", "60", "--checkpoint", ck],
        ["scan", "--min", "5", "--max", "60", "--checkpoint", ck],  # resumes: records are read back
        ["specialize", "--p", "7", "--d", "2"],
    ]
    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(commands)
    # a named sample guards against an empty walk
    assert {
        "MatFp.transpose",
        "EchelonSpace.insert",
        "CompanionReport.witness_series",
        "EisLocalPiece.cuspidal_subpiece",
        "ScanRecord.from_dict",
        "StructureReport.csv_row",
    } <= methods
    assert sorted(methods - ran) == []


# delta_q's digits leaves with delta_q itself, which only the tests and the
# benchmark's tracer reach
UNSET_OPTIONS_KEPT = {"delta_q.digits"}


def _optional_parameters(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(call name, parameter, position in a call or None) of every parameter with a default.

    A method is called without its first parameter, and `__init__` by its
    class's name.  A keyword-only parameter has no position.
    """
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args][1 if owner else 0 :]
                name = owner if owner and node.name == "__init__" else node.name
                defaulted = positional[len(positional) - len(args.defaults) :] if args.defaults else []
                found.extend((name, a, positional.index(a)) for a in defaulted)
                found.extend((name, a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
                visit(node.body, None)

    visit(tree.body, None)
    return found


def test_every_optional_parameter_has_a_caller():
    # an option that no library caller, command or benchmark sets is dead
    # weight; calls are matched by bare name, as above
    paths = sorted(PACKAGE.glob("*.py"))
    sources = paths + [p for p in (PACKAGE.parents[1] / "bench").glob("*.py") if not p.name.startswith("test_")]
    calls: dict[str, list[ast.Call]] = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call: ast.Call, param: str, position: int | None) -> bool:
        if any(kw.arg in (param, None) for kw in call.keywords):
            return True
        if any(isinstance(a, ast.Starred) for a in call.args):
            return position is not None
        return position is not None and len(call.args) > position

    unset = {
        f"{name}.{param}"
        for path in paths
        for name, param, position in _optional_parameters(ast.parse(path.read_text(encoding="utf-8")))
        if not any(sets(call, param, position) for call in calls.get(name, []))
    }
    assert unset == UNSET_OPTIONS_KEPT
