"""Source-level invariants of the package."""

import ast
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
        for name in ("linalg.matmul", "linalg.rref", "linalg.echelon_reduce", "hecke.hecke_matrix"):
            assert stats[f"{name}.calls"] > 0, name
    finally:
        tracer.uninstall()
    for target, key, orig in patched:
        assert vars(target)[key] is orig
