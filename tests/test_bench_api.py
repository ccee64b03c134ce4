"""The benchmark reaches realstab only through module attributes.

``bench/workloads.py`` imports realstab modules and calls
``<module>.<name>``; a function with no caller inside the package (for
example ``iop.iop_margin``) would otherwise be free to go, and every
benchmark run would then fail. This test reads the file's syntax tree and
resolves each name it imports from realstab and each dotted use of an
imported realstab module. ``bench/tracer.py`` wraps every layer module it
lists and, by name, the private steps it times; a traced run fails when
one of them is gone, so those names are resolved too.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
WORKLOADS = BENCH / "workloads.py"


def _dotted(node):
    """['a', 'b', 'c'] for the pure attribute chain a.b.c, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _uses():
    """(dotted name, line) for every realstab name bench/workloads.py uses."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module == "realstab" or node.module.startswith("realstab.")):
            for alias in node.names:
                if node.module == "realstab":
                    modules.add(alias.asname or alias.name)
                uses.append((f"{node.module}.{alias.name}", node.lineno))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain and chain[0] in modules:
                uses.append(("realstab." + ".".join(chain), node.lineno))
    return uses


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, name in enumerate(parts[1:], 2):
        try:
            obj = getattr(obj, name)
        except AttributeError:
            try:
                obj = importlib.import_module(".".join(parts[:k]))
            except ImportError:
                return False
    return True


def test_workloads_use_only_names_realstab_has():
    uses = _uses()
    assert any(name == "realstab.iop.iop_margin" for name, _ in uses)
    assert any(name == "realstab.sls.sls_of_margin" for name, _ in uses)
    missing = sorted({f"{name} (line {line})" for name, line in uses if not _resolves(name)})
    assert not missing, f"bench/workloads.py uses names realstab lacks: {missing}"


def test_resolver_rejects_a_missing_name():
    assert _resolves("realstab.matrix.TransferMatrix.zeros")
    assert not _resolves("realstab.matrix.TransferMatrix.no_such_method")
    assert not _resolves("realstab.no_such_module")


def test_tracer_hooks_name_what_realstab_has():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert set(tracer._PRIVATE_BOUNDARIES) <= set(tracer.LAYERS)
    missing = []
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"realstab.{layer}")
        for name in tracer._PRIVATE_BOUNDARIES.get(layer, ()):
            if not inspect.isfunction(vars(module).get(name)):
                missing.append(f"realstab.{layer}.{name}")
    assert not missing, f"bench/tracer.py hooks names realstab lacks: {missing}"
