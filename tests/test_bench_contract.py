"""The library names the benchmark under bench/ relies on.

The benchmark is frozen, so a change to src/ that renames a traced layer or
drops a parameter a workload passes would only fail the traced benchmark run.
These tests read bench/spans.py and bench/workloads.py (without changing
them) and check those bindings on every Python version the suite runs on.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    writes = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def test_every_traced_layer_resolves():
    layers = load_spans().LAYERS
    assert layers
    for name, modname, attr in layers:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"{name}: {modname}.{attr} is gone"
        assert callable(owner), name


def library_calls():
    """(call text, function, positional count, keyword names) for every
    lib.<module>.<name>(...) call in bench/workloads.py, where the class Lib
    binds self.<module> = diffmod or a diffmod submodule."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    lib = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Lib")
    modules = {}
    for node in ast.walk(lib):
        value = ast.unparse(node.value) if isinstance(node, ast.Assign) else ""
        if value == "diffmod" or value.startswith("diffmod."):
            modules.update((target.attr, value) for target in node.targets
                           if isinstance(target, ast.Attribute))
    calls = []
    for node in ast.walk(tree):
        func = node.func if isinstance(node, ast.Call) else None
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Attribute)
                and ast.unparse(func.value.value) == "lib" and func.value.attr in modules):
            fn = getattr(importlib.import_module(modules[func.value.attr]), func.attr, None)
            calls.append((ast.unparse(func), fn, len(node.args),
                          [k.arg for k in node.keywords]))
    return calls


def test_workload_calls_bind_to_the_library():
    calls = library_calls()
    # cancel_free(P, Q, 1, cert, seed=...) is the call that keeps seed= alive
    assert ("lib.cores.cancel_free", 4, ["seed"]) in [(t, n, k) for t, _, n, k in calls]
    for text, fn, positional, keywords in calls:
        assert fn is not None, f"{text} is gone"
        inspect.signature(fn).bind(*[None] * positional, **dict.fromkeys(keywords))
