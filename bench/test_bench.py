"""Self-tests of the benchmark (not part of the library's test suite):

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def bench(workload, seed, seconds, trace, cwd=ROOT):
    p = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                       cwd=cwd, capture_output=True, text=True, timeout=300)
    return p


def parse(p):
    assert p.returncode == 0, p.stderr
    lines = p.stdout.strip().splitlines()
    record = next(json.loads(l)["record"] for l in lines if l.startswith('{"record"'))
    return json.loads(lines[-1]), record


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.W.WORKLOADS)


def test_traced_run_wraps_every_binding_and_covers_the_loop():
    p = bench("core_suite", 0, 4, 1)
    result, _ = parse(p)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # the run itself asserts hom_space calls == cache hits + misses and that
    # no diffmod module still binds an unwrapped layer; either failure makes
    # the result incorrect and is named on stderr
    assert "trace self-check failed" not in p.stderr
    assert result["correct"] and result["failed"] == 0
    assert set(m) == set(run.per_layer_units())
    assert m["trace.item_span_coverage"] >= run.MIN_COVERAGE
    for layer in ("modules.hom_space", "modules.hom_chain", "modules.iso_search",
                  "cores.core", "cores.cancel_free", "exactalg.inverse_unimodular"):
        assert m[f"{layer}.calls"] > 0, layer
    assert m["cores.core.splits"] > 0 and m["modules.hom_chain.steps"] > 0


def test_self_check_catches_an_unwrapped_binding():
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        lib = run.W.Lib()
        tracer = run.spans.Tracer()
        tracer.install()
        # a binding the install missed: core's calls to hom_space go unrecorded
        lib.cores.hom_space = tracer.originals["modules.hom_space"][2]
        assert tracer.unwrapped_bindings() == ["diffmod.cores.hom_space"]
        cache = run.HomCache(lib)
        pool = run.W.build_core_suite(lib, 0, None)[:1]
        _, wall, factor = run.traced_pass(pool, cache, run.Calibration(), tracer)
        m, _ = run.layer_metrics(tracer, cache, wall, factor, 1.0, 1.0)
        errors = run.coverage_errors(tracer, cache, m)
        assert len(errors) == 1 and errors[0].startswith("hom_space calls"), errors
    finally:
        for mod in [m for m in sys.modules if m == "diffmod" or m.startswith("diffmod.")]:
            del sys.modules[mod]


def test_outputs_digest_repeats_for_a_seed_and_differs_across_seeds():
    a = parse(bench("hom_solve", 7, 1, 0))
    b = parse(bench("hom_solve", 7, 1, 0))
    c = parse(bench("hom_solve", 8, 1, 0))
    assert a[0]["correct"] and b[0]["correct"] and c[0]["correct"]
    assert a[1]["outputs_sha256"] == b[1]["outputs_sha256"]
    assert a[1]["outputs_sha256"] != c[1]["outputs_sha256"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("hom_solve", 0, 1, 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
