"""Command-line surface: exit codes, report shape, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import diffmod.cli as cli
import diffmod.modules as modules_mod
import diffmod.monoid as monoid_mod
import diffmod.suite as suite_mod
from diffmod.diffring import DiffRing
from diffmod.exactalg import Poly, PolyMat
from diffmod.modules import DiffModule, scramble, trivial_module
from diffmod.serialize import (MAX_DEGREE, MAX_RANK, certificate_from_json, load_json, load_module,
                               module_from_json, module_to_json, save_json)
from diffmod.suite import SuiteItem


def P(*coeffs):
    return Poly([Fraction(c) for c in coeffs])


def write_module(path, ring, rank, entries):
    M = DiffModule(ring, rank, PolyMat(rank, rank, entries))
    save_json(path, module_to_json(M))
    return M


@pytest.fixture
def files(tmp_path):
    paths = {}
    paths["line_x"] = tmp_path / "line_x.json"
    write_module(paths["line_x"], DiffRing.POLY_DX, 1, [P(0, 1)])
    paths["line_x2"] = tmp_path / "line_x2.json"
    write_module(paths["line_x2"], DiffRing.POLY_DX, 1, [P(0, 0, 1)])
    paths["nilp"] = tmp_path / "nilp.json"
    write_module(paths["nilp"], DiffRing.POLY_DX, 2,
                 [P(0), P(1), P(0), P(0)])
    paths["diag01"] = tmp_path / "diag01.json"
    write_module(paths["diag01"], DiffRing.POLY_DX, 2,
                 [P(0), P(0), P(0), P(1)])
    paths["const"] = tmp_path / "const.json"
    write_module(paths["const"], DiffRing.CONST_ZERO, 2,
                 [P(0), P(1), P(0), P(0)])
    base = DiffModule(DiffRing.POLY_DX, 2,
                      PolyMat(2, 2, [P(0, 1), P(1), P(0), P(0, 1)]))
    twisted, _ = scramble(base, seed=17)
    paths["twist_a"] = tmp_path / "twist_a.json"
    save_json(paths["twist_a"], module_to_json(base))
    paths["twist_b"] = tmp_path / "twist_b.json"
    save_json(paths["twist_b"], module_to_json(twisted))
    paths["tmp"] = tmp_path
    return paths


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# hom / trivial / core / iso / rcf
# ---------------------------------------------------------------------------

def test_hom_reports_dimension_and_defaults(capsys, files):
    code, rep = run_json(capsys, "hom", files["line_x"], files["line_x"])
    assert code == 0
    assert rep["result"]["dimension"] == 1
    assert rep["result"]["basis"] == [[[["1"]]]]
    assert rep["defaults"] == {"deg_cap": 32, "trials": 32,
                               "sampling_height": 101}
    assert rep["inputs"]["source"]["sha256"] == rep["inputs"]["target"]["sha256"]


def test_hom_dim_zero_for_distinct_lines(capsys, files):
    code, rep = run_json(capsys, "hom", files["line_x"], files["line_x2"])
    assert code == 0
    assert rep["result"]["dimension"] == 0


def test_trivial_verdict_with_certificate(capsys, files):
    cert_file = files["tmp"] / "cert.json"
    code, rep = run_json(capsys, "trivial", files["nilp"], "--cert", cert_file)
    assert code == 0
    assert rep["result"]["verdict"] == "TRIVIAL"
    cert = certificate_from_json(load_json(cert_file))
    assert cert.backward == PolyMat(2, 2, [P(1), P(0, -1), P(0), P(1)])


def test_not_trivial_verdict(capsys, files):
    code, rep = run_json(capsys, "trivial", files["line_x"])
    assert code == 0
    assert rep["result"]["verdict"] == "NOT_TRIVIAL"
    assert rep["result"]["constants_dim"] == 0


def test_core_writes_module_and_certificate(capsys, files):
    out_file = files["tmp"] / "core.json"
    cert_file = files["tmp"] / "core_cert.json"
    code, rep = run_json(capsys, "core", files["diag01"],
                         "-o", out_file, "--cert", cert_file)
    assert code == 0
    assert rep["result"]["multiplicity"] == 1
    core_mod = load_module(out_file)
    assert core_mod.rank == 1
    assert core_mod.matrix == PolyMat(1, 1, [P(1)])
    certificate_from_json(load_json(cert_file))  # re-verifies on parse


def test_iso_not_iso_exit_zero(capsys, files):
    code, rep = run_json(capsys, "iso", files["line_x"], files["line_x2"])
    assert code == 0
    assert rep["result"]["verdict"] == "NOT_ISO"
    assert "dimension 0" in rep["result"]["witness"]


def test_iso_found_writes_certificate(capsys, files):
    cert_file = files["tmp"] / "iso_cert.json"
    code, rep = run_json(capsys, "iso", files["twist_a"], files["twist_b"],
                         "--cert", cert_file)
    assert code == 0
    assert rep["result"]["verdict"] == "ISO"
    cert = certificate_from_json(load_json(cert_file))
    assert cert.source == load_module(files["twist_a"])


def test_iso_unknown_exit_three(capsys, files):
    code, rep = run_json(capsys, "iso", files["twist_a"], files["twist_b"],
                         "--trials", "0")
    assert code == 3
    assert rep["result"]["verdict"] == "UNKNOWN"


def test_iso_past_the_degree_cap_is_unknown_not_refuted(capsys, files):
    # A = [[0, 1], [x, 0]] against its conjugate by [[1, x^50], [0, 1]]:
    # every hom between them has degree 50
    A = DiffModule(DiffRing.POLY_DX, 2, PolyMat(2, 2, [P(0), P(1), P(0, 1), P(0)]))
    U = PolyMat(2, 2, [P(1), P(*[0] * 50, 1), P(0), P(1)])
    Uinv = PolyMat(2, 2, [P(1), P(*[0] * 50, -1), P(0), P(1)])
    B = DiffModule(DiffRing.POLY_DX, 2, (U @ A.matrix - U.derivative()) @ Uinv)
    a, b = files["tmp"] / "airy.json", files["tmp"] / "airy_x50.json"
    save_json(a, module_to_json(A))
    save_json(b, module_to_json(B))
    code, rep = run_json(capsys, "iso", a, b)
    assert code == 3 and rep["result"]["verdict"] == "UNKNOWN"
    assert rep["result"]["witness"] == \
        "hom space P->Q has dimension 0 (degree cap 32, not proven complete)"
    code, rep = run_json(capsys, "iso", a, b, "--deg-cap", "50")
    assert code == 0 and rep["result"]["verdict"] == "ISO"


def test_iso_inverse_above_the_degree_cap_exit_zero(capsys, files):
    # (R^3, 0) against its conjugate by [[1, x, 0], [0, 1, x], [0, 0, 1]],
    # whose inverse has degree 2
    zero3 = files["tmp"] / "zero3.json"
    write_module(zero3, DiffRing.POLY_DX, 3, [P(0)] * 9)
    sheared = files["tmp"] / "sheared.json"
    write_module(sheared, DiffRing.POLY_DX, 3,
                 [P(0), P(-1), P(0, 1), P(0), P(0), P(-1), P(0), P(0), P(0)])
    code, rep = run_json(capsys, "iso", zero3, sheared, "--deg-cap", "1")
    assert code == 0
    assert rep["result"]["verdict"] == "ISO"
    assert rep["result"]["trials_used"] == 1


def test_const_zero_iso_decided_exit_zero(capsys, files):
    jordan = files["tmp"] / "jordan.json"
    write_module(jordan, DiffRing.CONST_ZERO, 2, [P(1), P(1), P(0), P(1)])
    eye = files["tmp"] / "eye.json"
    write_module(eye, DiffRing.CONST_ZERO, 2, [P(1), P(0), P(0), P(1)])
    code, rep = run_json(capsys, "iso", jordan, eye)
    assert code == 0
    assert rep["result"]["verdict"] == "NOT_ISO"
    assert "invariant factors differ" in rep["result"]["witness"]
    assert rep["result"]["trials_used"] == 0


def test_rcf_report(capsys, files):
    code, rep = run_json(capsys, "rcf", files["const"])
    assert code == 0
    assert rep["result"]["invariant_factors"] == [["0", "0", "1"]]
    assert rep["result"]["form"] == [[[], []], [["1"], []]]


def test_rcf_rejects_poly_ring(capsys, files):
    code, _ = run(capsys, "rcf", files["line_x"])
    assert code == 2


# ---------------------------------------------------------------------------
# input errors and the degree-cap environment variable
# ---------------------------------------------------------------------------

def test_malformed_file_is_input_error(capsys, files):
    bad = files["tmp"] / "bad.json"
    bad.write_text('{"ring": "poly_dx"')
    code, _ = run(capsys, "hom", bad, files["line_x"])
    assert code == 2


@pytest.mark.parametrize("command", [("trivial", "{}"), ("monoid", "report", "--ledger", "{}")],
                         ids=["module", "ledger"])
def test_deeply_nested_json_is_input_error(capsys, files, command):
    deep = files["tmp"] / "deep.json"
    deep.write_text("[" * 100_000)
    code = cli.main([a.format(deep) for a in command])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {deep}: JSON nested too deeply to parse\n"


def test_missing_file_is_input_error(capsys, files):
    code, _ = run(capsys, "trivial", files["tmp"] / "ghost.json")
    assert code == 2


def test_ring_mismatch_is_input_error(capsys, files):
    code, _ = run(capsys, "hom", files["line_x"], files["const"])
    assert code == 2


def test_env_cap_respected_and_flag_wins(capsys, files, monkeypatch):
    monkeypatch.setenv("DIFFMOD_DEG_CAP", "11")
    code, rep = run_json(capsys, "hom", files["line_x"], files["line_x"])
    assert code == 0
    assert rep["result"]["deg_cap"] == 11
    code, rep = run_json(capsys, "hom", files["line_x"], files["line_x"],
                         "--deg-cap", "5")
    assert rep["result"]["deg_cap"] == 5


def test_env_cap_garbage_is_input_error(capsys, files, monkeypatch):
    monkeypatch.setenv("DIFFMOD_DEG_CAP", "many")
    code, _ = run(capsys, "hom", files["line_x"], files["line_x"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("trivial", "nilp", "--deg-cap", "-5"),
    ("trivial", "nilp", "--deg-cap", "-1"),
    ("hom", "line_x", "line_x", "--deg-cap", "-1"),
    ("core", "diag01", "--deg-cap", "-2"),
    ("iso", "twist_a", "twist_b", "--deg-cap", "-1"),
    ("iso", "twist_a", "twist_b", "--trials", "-1"),
    ("suite", "--size", "0"),
    ("suite", "--size", "-3"),
    ("monoid", "new", "--ledger", "led.json", "--deg-cap", "-1"),
    ("monoid", "new", "--ledger", "led.json", "--trials", "-1"),
])
def test_negative_counts_are_input_errors(capsys, files, argv):
    args = [files["tmp"] / a if a == "led.json" else files.get(a, a) for a in argv]
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (files["tmp"] / "led.json").exists()


def test_negative_env_cap_is_input_error(capsys, files, monkeypatch):
    monkeypatch.setenv("DIFFMOD_DEG_CAP", "-5")
    code = cli.main(["trivial", str(files["nilp"])])
    assert code == 2
    assert "degree cap" in capsys.readouterr().err


def _never_started(*args, **kwargs):
    raise AssertionError("an input over its limit started a run")


@pytest.mark.parametrize("argv, env", [
    (("hom", "line_x", "line_x", "--deg-cap", cli.MAX_DEG_CAP + 1), None),
    (("trivial", "nilp"), cli.MAX_DEG_CAP + 1),
    (("monoid", "new", "--ledger", "led.json", "--deg-cap", cli.MAX_DEG_CAP + 1), None),
    (("suite", "--size", cli.MAX_SUITE_SIZE + 1), None),
    (("suite", "--size", 10**12), None),
    (("iso", "line_x", "line_x", "--trials", cli.MAX_TRIALS + 1), None),
    (("monoid", "new", "--ledger", "led.json", "--trials", cli.MAX_TRIALS + 1), None),
], ids=["deg_cap", "env_cap", "monoid_deg_cap", "suite_size", "suite_size_huge",
        "iso_trials", "monoid_trials"])
def test_sizes_over_their_limits_are_input_errors(capsys, files, monkeypatch, argv, env):
    for name in ("hom_space", "is_trivial", "iso_search"):
        monkeypatch.setattr(cli, name, _never_started)
    monkeypatch.setattr(suite_mod, "run_suite", _never_started)
    if env is not None:
        monkeypatch.setenv("DIFFMOD_DEG_CAP", str(env))
    args = [files["tmp"] / a if a == "led.json" else files.get(a, a) for a in argv]
    code = cli.main([str(a) for a in args])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "must be at most" in captured.err and captured.err.count("\n") == 1
    assert not (files["tmp"] / "led.json").exists()


def test_caps_at_their_limit_are_accepted(monkeypatch):
    args = cli.build_parser().parse_args(["hom", "a", "b", "--deg-cap", str(cli.MAX_DEG_CAP)])
    assert cli._resolve_cap(args) == cli.MAX_DEG_CAP
    monkeypatch.setenv("DIFFMOD_DEG_CAP", str(cli.MAX_DEG_CAP))
    args = cli.build_parser().parse_args(["hom", "a", "b"])
    assert cli._resolve_cap(args) == cli.MAX_DEG_CAP


@pytest.mark.parametrize("command", ["rcf", "trivial"])
def test_rank_over_its_limit_is_rejected_before_the_matrix(capsys, files, command):
    path = files["tmp"] / "huge.json"
    # the matrix is not even a list: only the rank check can fire
    save_json(path, {"ring": "const_zero", "rank": MAX_RANK + 1, "matrix": "unparsed"})
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exceeds the limit" in captured.err and captured.err.count("\n") == 1
    zero = [[[] for _ in range(MAX_RANK)] for _ in range(MAX_RANK)]
    assert module_from_json({"ring": "const_zero", "rank": MAX_RANK,
                             "matrix": zero}).rank == MAX_RANK


def _tall(coefficient):
    """An entry one degree over MAX_DEGREE."""
    return [coefficient] * (MAX_DEGREE + 2)


def _assert_degree_error(capsys, argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "exceeds the degree limit" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["trivial", "core"])
def test_module_degree_over_its_limit_is_rejected_before_the_coefficients(
        capsys, files, monkeypatch, command):
    path = files["tmp"] / "tall.json"
    # the coefficients are not even rationals: only the degree check can fire
    save_json(path, {"ring": "poly_dx", "rank": 2,
                     "matrix": [[[], _tall("unparsed")], [[], []]]})
    monkeypatch.setattr(cli, "is_trivial", _never_started)
    _assert_degree_error(capsys, (command, path))
    at_limit = [[[], ["0"] * MAX_DEGREE + ["1"]], [[], []]]
    M = module_from_json({"ring": "poly_dx", "rank": 2, "matrix": at_limit})
    assert M.matrix.max_degree() == MAX_DEGREE


def test_ledger_degree_over_its_limit_is_an_input_error(capsys, files, monkeypatch):
    led = files["tmp"] / "led_tall.json"
    run(capsys, "monoid", "new", "--ledger", led)
    run(capsys, "monoid", "add-module", files["line_x"], "a", "--ledger", led)
    obj = load_json(led)
    obj["entries"][0]["core"]["matrix"] = [[_tall("1")]]
    save_json(led, obj)
    monkeypatch.setattr(monoid_mod, "core", _never_started)
    monkeypatch.setattr(monoid_mod, "iso_search", _never_started)
    for argv in (("monoid", "report", "--ledger", led),
                 ("monoid", "add-module", files["line_x"], "b", "--ledger", led),
                 ("monoid", "equal", "a", "a", "--ledger", led)):
        _assert_degree_error(capsys, argv)


@pytest.mark.parametrize("command, ring", [("rcf", DiffRing.CONST_ZERO),
                                           ("core", DiffRing.POLY_DX)])
@pytest.mark.parametrize("rank", [True, False])
def test_boolean_rank_is_an_input_error(capsys, files, command, ring, rank):
    # a bool is an int to isinstance: "rank": true with a 1x1 matrix must not
    # load as rank 1, nor "rank": false with an empty one as rank 0
    path = files["tmp"] / "bool_rank.json"
    n = int(rank)
    obj = module_to_json(DiffModule(ring, n, PolyMat(n, n, [P(2)] * n)))
    obj["rank"] = rank
    save_json(path, obj)
    code = cli.main([command, str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "bad rank" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("deg_cap", "x"), ("deg_cap", -1), ("deg_cap", 1.5), ("deg_cap", True),
    ("deg_cap", cli.MAX_DEG_CAP + 1), ("deg_cap", 10**12),
    ("trials", "x"), ("trials", -1), ("trials", None), ("trials", cli.MAX_TRIALS + 1),
    ("seed", "x"), ("seed", -1), ("seed", [0]),
])
def test_bad_ledger_fields_are_input_errors(capsys, files, monkeypatch, key, value):
    led = files["tmp"] / "led_bad.json"
    run(capsys, "monoid", "new", "--ledger", led)
    obj = load_json(led)
    obj[key] = value
    save_json(led, obj)
    monkeypatch.setattr(monoid_mod, "core", _never_started)
    for argv in (("monoid", "add-module", files["line_x"], "a", "--ledger", led),
                 ("monoid", "report", "--ledger", led)):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and key in captured.err
        assert captured.err.count("\n") == 1


def test_ledger_fields_at_their_limits_load(capsys, files):
    led = files["tmp"] / "led_max.json"
    code, _ = run(capsys, "monoid", "new", "--ledger", led, "--deg-cap", cli.MAX_DEG_CAP,
                  "--trials", cli.MAX_TRIALS, "--seed", 2**70)
    assert code == 0
    code, out = run(capsys, "monoid", "report", "--ledger", led)
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["deg_cap"], result["trials"], result["seed"]) == (
        cli.MAX_DEG_CAP, cli.MAX_TRIALS, 2**70)


def test_negative_monoid_seed_is_input_error(capsys, files):
    led = files["tmp"] / "led_seed.json"
    code, _ = run(capsys, "monoid", "new", "--ledger", led, "--seed", "-1")
    assert code == 2
    assert not led.exists()


def test_monoid_equal_trials_over_the_limit_is_input_error(capsys, files, monkeypatch):
    led = files["tmp"] / "led5.json"
    run(capsys, "monoid", "new", "--ledger", led)
    run(capsys, "monoid", "add-module", files["line_x"], "a", "--ledger", led)
    monkeypatch.setattr(monoid_mod, "iso_search", _never_started)
    code, out = run(capsys, "monoid", "equal", "a", "a", "--trials", 10**12,
                    "--ledger", led)
    assert code == 2 and out == ""


def test_negative_monoid_equal_trials_is_input_error(capsys, files):
    led = files["tmp"] / "led4.json"
    run(capsys, "monoid", "new", "--ledger", led)
    run(capsys, "monoid", "add-module", files["line_x"], "a", "--ledger", led)
    code, _ = run(capsys, "monoid", "equal", "a", "a", "--trials", "-2",
                  "--ledger", led)
    assert code == 2


def test_internal_verification_failure_exits_four(capsys, files, monkeypatch):
    def broken(*args, **kwargs):
        raise ArithmeticError("engineered certificate failure")
    monkeypatch.setattr(cli, "is_trivial", broken)
    code = cli.main(["trivial", str(files["nilp"])])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("error: internal verification failed: "
                            "engineered certificate failure\n")


def test_library_certificate_failure_exits_four(capsys, files, monkeypatch):
    # a certificate the library built itself fails its own check: an
    # internal failure, not an input error and not a traceback
    monkeypatch.setattr(modules_mod, "_product_is_identity", lambda *args: False)
    code = cli.main(["core", str(files["nilp"])])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == ("error: internal verification failed: "
                            "backward . forward is not the identity\n")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _strip_timing(rep):
    rep = dict(rep)
    rep.pop("timing")
    return rep


def test_reports_identical_modulo_timing(capsys, files):
    _, rep1 = run_json(capsys, "iso", files["twist_a"], files["twist_b"],
                       "--seed", "5")
    _, rep2 = run_json(capsys, "iso", files["twist_a"], files["twist_b"],
                       "--seed", "5")
    assert _strip_timing(rep1) == _strip_timing(rep2)


def test_output_file_matches_stdout(capsys, files):
    out_file = files["tmp"] / "report.json"
    _, printed = run(capsys, "hom", files["line_x"], files["line_x"],
                     "-o", out_file)
    assert out_file.read_text() == printed


# ---------------------------------------------------------------------------
# monoid subcommands
# ---------------------------------------------------------------------------

def test_monoid_full_flow(capsys, files):
    led = files["tmp"] / "led.json"
    code, _ = run_json(capsys, "monoid", "new", "--ledger", led)
    assert code == 0
    code, _ = run_json(capsys, "monoid", "add-module", files["line_x"], "a",
                       "--ledger", led)
    assert code == 0
    code, _ = run_json(capsys, "monoid", "add-module", files["nilp"], "z",
                       "--ledger", led)
    assert code == 0
    code, rep = run_json(capsys, "monoid", "add-classes", "a", "z", "az",
                         "--ledger", led)
    assert code == 0
    assert rep["result"]["core_rank"] == 1
    code, rep = run_json(capsys, "monoid", "equal", "a", "az", "--ledger", led)
    assert code == 0
    assert rep["result"]["verdict"] == "EQUAL"
    code, rep = run_json(capsys, "monoid", "equal", "a", "z", "--ledger", led)
    assert code == 0
    assert rep["result"]["verdict"] == "NOT_EQUAL"
    code, rep = run_json(capsys, "monoid", "report", "--ledger", led)
    assert code == 0
    names = {e["name"]: e for e in rep["result"]["entries"]}
    assert set(names) == {"a", "z", "az"}
    assert names["z"]["is_zero"] and names["z"]["is_invertible"]
    assert not names["a"]["is_invertible"]
    assert any("equal" in line for line in names["a"]["provenance"])


def test_monoid_new_refuses_overwrite(capsys, files):
    led = files["tmp"] / "led2.json"
    assert run(capsys, "monoid", "new", "--ledger", led)[0] == 0
    assert run(capsys, "monoid", "new", "--ledger", led)[0] == 2


def test_monoid_unknown_exit_three(capsys, files):
    led = files["tmp"] / "led3.json"
    run(capsys, "monoid", "new", "--ledger", led)
    run(capsys, "monoid", "add-module", files["twist_a"], "p", "--ledger", led)
    run(capsys, "monoid", "add-module", files["twist_b"], "q", "--ledger", led)
    code, rep = run_json(capsys, "monoid", "equal", "p", "q",
                         "--trials", "0", "--ledger", led)
    assert code == 3
    assert rep["result"]["verdict"] == "UNKNOWN"


def test_monoid_missing_ledger_is_input_error(capsys, files):
    code, _ = run(capsys, "monoid", "report", "--ledger",
                  files["tmp"] / "nope.json")
    assert code == 2


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_passes_and_reports(capsys, files):
    out_file = files["tmp"] / "suite.json"
    code, out = run(capsys, "suite", "--size", "1", "-o", out_file)
    assert code == 0
    assert "property groups passed" in out
    rep = load_json(out_file)
    assert rep["result"]["failed"] == 0
    assert all(item["passed"] for item in rep["result"]["items"])


def test_suite_failure_exits_one(capsys, monkeypatch):
    def broken(rng, cases):
        raise AssertionError("engineered failure")
    monkeypatch.setattr(suite_mod, "_ITEMS",
                        [("engineered", broken, 1)])
    code, out = run(capsys, "suite")
    assert code == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_module_invocation_round_trip(tmp_path):
    mod = tmp_path / "m.json"
    write_module(mod, DiffRing.POLY_DX, 1, [P(0, 1)])
    proc = subprocess.run(
        [sys.executable, "-m", "diffmod", "trivial", str(mod)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"] == "NOT_TRIVIAL"


# a child process runs one command, then writes the diffmod modules it
# loaded to the file named by its first argument, so stdout stays the report
_PROBE = """
import sys
from diffmod.cli import main
code = main(sys.argv[2:])
import json
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(m for m in sys.modules
                     if m.startswith("diffmod") or m == "dataclasses"), fh)
sys.exit(code)
"""


def _loaded_by(tmp_path, *argv):
    """Run one command in a new process; its exit code and the diffmod
    modules it loaded, plus "dataclasses" if that was loaded."""
    listing = tmp_path / "modules.json"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _PROBE, str(listing),
                           *map(str, argv)],
                          capture_output=True, text=True, env=env)
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["argv"] == [str(a) for a in argv]
    return proc.returncode, set(json.loads(listing.read_text()))


_LAYERS = {"diffmod.cores", "diffmod.monoid", "diffmod.suite", "diffmod.zeroder"}


@pytest.mark.parametrize("argv, needs", [
    (("hom", "line_x", "twist_a"), set()),
    (("trivial", "nilp"), set()),
    (("iso", "twist_a", "twist_b"), set()),
    (("core", "twist_a"), {"diffmod.cores"}),
    (("rcf", "const"), {"diffmod.zeroder"}),
], ids=["hom", "trivial", "iso", "core", "rcf"])
def test_each_command_loads_only_the_layers_it_runs(files, argv, needs):
    code, loaded = _loaded_by(files["tmp"], *(files.get(a, a) for a in argv))
    assert code == 0
    assert loaded & _LAYERS == needs
    assert "dataclasses" not in loaded


def test_monoid_commands_load_no_suite_or_zeroder(files):
    led = files["tmp"] / "led.json"
    L = ("--ledger", led)
    ledger_only = {"diffmod.monoid"}
    with_core = {"diffmod.cores", "diffmod.monoid"}
    for argv, needs in [(("new", *L), ledger_only),
                        (("add-module", files["twist_a"], "p", *L), with_core),
                        (("add-module", files["twist_b"], "q", *L), with_core),
                        (("add-module", files["nilp"], "z", *L), with_core),
                        (("add-classes", "p", "z", "pz", *L), with_core),
                        (("equal", "p", "q", *L), ledger_only),
                        (("equal", "p", "pz", *L), ledger_only),
                        (("report", *L), ledger_only)]:
        code, loaded = _loaded_by(files["tmp"], "monoid", *argv)
        assert code == 0, argv
        assert loaded & _LAYERS == needs, argv
        assert "dataclasses" not in loaded, argv


def test_suite_item_dataclass_carries_detail():
    item = SuiteItem("name", False, 3, "why")
    assert not item.passed and item.detail == "why"
