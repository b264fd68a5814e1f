"""The library names the benchmark under bench/ relies on.

The benchmark is frozen, so a change to src/ that renames a traced layer or
drops a parameter a workload passes would only fail the traced benchmark run.
These tests read bench/spans.py and bench/workloads.py (without changing
them) and check those bindings on every Python version the suite runs on,
and apply the workloads' readers to real library results, so that a record
change which drops or renames a field the benchmark reads fails here too.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(stem):
    """bench/<stem>.py as a module, without changing bench/: no __pycache__
    is written, and its import of bench/exact.py lasts only for the load."""
    spec = importlib.util.spec_from_file_location(f"bench_{stem}", BENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    writes, path, loaded = sys.dont_write_bytecode, list(sys.path), set(sys.modules)
    sys.dont_write_bytecode = True  # leave no __pycache__ under bench/
    sys.path.insert(0, str(BENCH))
    sys.modules[spec.name] = module  # a dataclass looks up its module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
        sys.path[:] = path
        for name in {spec.name, *(f.stem for f in BENCH.glob("*.py"))} - loaded:
            sys.modules.pop(name, None)
    return module


def test_every_traced_layer_resolves():
    layers = load_bench("spans").LAYERS
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


def test_workload_readers_accept_library_results():
    W = load_bench("workloads")
    X, lib = W.X, W.Lib()
    rng = W.random.Random(3)
    planned = W.planned(rng, 1, 1)  # scrambled diag(f, 0), f != 0: core rank 1
    A = planned.matrix
    B, U, Uinv = W.scramble(rng, A)
    P, Q = lib.module(A), lib.module(B)
    # the core_suite instance builds its input certificate positionally
    cert = lib.dm.IsoCertificate(P, Q, lib.polymat(U), lib.polymat(Uinv))
    assert (cert.source, cert.target) == (P, Q)
    assert W.check_cert(cert, A, B) is None
    assert W.canon_cert(cert) == {"forward": X.canon_mat(lib.polymat(U)),
                                  "backward": X.canon_mat(lib.polymat(Uinv))}

    h = lib.dm.hom_space(P, Q)
    assert W.canon_hom(h) == {"dimension": 2, "deg_cap": 32, "proven_complete": False,
                              "basis": [X.canon_mat(T) for T in h.basis]}
    assert W.hom_basis_error(h, A, B) is None

    r = lib.dm.iso_search(P, Q, seed=5)
    assert W.check_iso_positive(r, A, B) == (W.OK, "")
    assert W.canon_iso(r) == {"kind": "iso", "witness": None, "trials": r.trials_used,
                              "deg_cap": 32, "certificate": W.canon_cert(r.certificate)}

    d = lib.cores.core(P)
    assert W.check_core(d, A, 1, 1) == (W.OK, "")
    assert W.canon_core(d) == {"core": X.canon_mat(d.core.matrix), "multiplicity": 1,
                               "certificate": W.canon_cert(d.certificate)}

    C = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(3)]]
    S, Sinv = W.shear_product(rng, 2)
    D = X.rm_mul(X.rm_mul(S, C), Sinv)
    s = lib.zeroder.similar(lib.ratmat(C), lib.ratmat(D))
    assert W._check_similar(s, C, D, True) == (W.OK, "")
    assert W._canon_similar(s) == {
        "similar": True, "witness": None,
        "certificate": [X.canon_mat(s.certificate.transform),
                        X.canon_mat(s.certificate.inverse)]}
    no = lib.zeroder.similar(lib.ratmat(C), lib.ratmat([[Fraction(1), Fraction(0)],
                                                        [Fraction(0), Fraction(1)]]))
    assert W._canon_similar(no) == {"similar": False, "witness": no.witness,
                                    "certificate": None}
