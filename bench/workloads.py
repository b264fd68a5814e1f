"""The benchmark's four workloads: seeded inputs, the items a user would
run on them, and the checks that each verdict agrees with how its input
was built.

A workload is a pool of instances; an instance is a list of items run in
order, and later items may use the outputs of earlier ones (the way a
script calls core() and then iso_search() on the cores).  Every input is
built here from the seed with the benchmark's own arithmetic (exact.py),
so that the answer is known before diffmod is asked:

- planned modules are scramble(diag(f_1, ..., f_r, 0, ..., 0)) with every
  f_i != 0, so the core has rank r and multiplicity equals the number of
  zero lines;
- similar pairs are B = S A S^-1 for an integer shear product S, and
  non-similar pairs have different characteristic polynomials;
- constant hom-space inputs have planned eigenvalues, so the dimension is
  sum over lambda of mult_A(lambda) * mult_B(lambda).

Library calls go through module attributes at call time (lib.cores.core,
...), so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import exact as X

OK, UNKNOWN, FAIL = "ok", "unknown", "fail"


@dataclass
class Item:
    key: str                                # output is stored as state[key]
    kind: str                               # the call, for per-command stats
    call: Callable[[dict], object]
    check: Callable[[object, dict], tuple]  # -> (status, message)
    canon: Callable[[object], object]       # JSON-able form for the digest


class Lib:
    """The diffmod modules the workloads call, looked up at call time."""

    def __init__(self):
        import diffmod
        import diffmod.cli
        import diffmod.cores
        import diffmod.modules
        import diffmod.monoid
        import diffmod.zeroder
        self.dm = diffmod
        self.src = os.path.dirname(os.path.dirname(os.path.abspath(diffmod.__file__)))
        self.cores = diffmod.cores
        self.modules = diffmod.modules
        self.monoid = diffmod.monoid
        self.zeroder = diffmod.zeroder

    def polymat(self, A):
        dm = self.dm
        return dm.PolyMat(len(A), len(A[0]) if A else 0, [dm.Poly(p) for row in A for p in row])

    def module(self, A, ring="poly_dx"):
        return self.dm.DiffModule(self.dm.DiffRing.from_tag(ring), len(A), self.polymat(A))

    def ratmat(self, A):
        n = len(A)
        return self.dm.RatMat(n, len(A[0]) if n else 0, [v for row in A for v in row])


# ---------------------------------------------------------------------------
# generators (benchmark-owned, so the inputs do not move with the library)
# ---------------------------------------------------------------------------

def rand_poly(rng, max_deg, bound=3, nonzero=False):
    while True:
        p = X.ptrim(rng.randint(-bound, bound) for _ in range(rng.randint(0, max_deg) + 1))
        if p or not nonzero:
            return p


def rand_polymat(rng, n, max_deg, bound=3):
    return [[rand_poly(rng, max_deg, bound) for _ in range(n)] for _ in range(n)]


def rand_ratmat(rng, n, bound=3):
    return [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(n)]


def nonzero(rng, bound):
    return rng.choice([v for v in range(-bound, bound + 1) if v])


_SCALES = tuple(Fraction(v) for v in (1, -1, 2, -2, 3)) + (Fraction(1, 2), Fraction(-1, 2))


def scramble(rng, A):
    """(B, U, U^-1): B = (U A - U') U^-1, so U is a differential isomorphism
    (R^n, A) -> (R^n, B).  U is a product of n + 2 elementary operations in
    a fixed cycle (shear by c0 + c1 x, scaling, shear by c0, swap), with
    random rows and coefficients: the degree of B, which drives the cost of
    what is asked about it, then depends on n and not on the seed."""
    n = len(A)
    U, Uinv = X.pm_identity(n), X.pm_identity(n)
    for k in range(n + 2):
        E, Einv = X.pm_identity(n), X.pm_identity(n)
        kind = k % 4 if n > 1 else 1
        if kind in (0, 2):
            i, j = rng.sample(range(n), 2)
            p = X.ptrim([nonzero(rng, 2)] + ([nonzero(rng, 2)] if kind == 0 else []))
            E[i][j], Einv[i][j] = p, X.pneg(p)
        elif kind == 1:
            i = rng.randrange(n)
            c = rng.choice(_SCALES)
            E[i][i], Einv[i][i] = (c,), (1 / c,)
        else:
            i, j = rng.sample(range(n), 2)
            E[i], E[j] = E[j], E[i]
            Einv[i], Einv[j] = Einv[j], Einv[i]
        U = X.pm_mul(E, U)
        Uinv = X.pm_mul(Uinv, Einv)
    B = X.pm_mul(X.pm_sub(X.pm_mul(U, A), X.pm_deriv(U)), Uinv)
    return B, U, Uinv


@dataclass
class Planned:
    plain: list      # diag(f_1, ..., f_core_rank, 0, ..., 0)
    matrix: list     # scrambled
    core_rank: int
    multiplicity: int

    @property
    def core_matrix(self):
        r = self.core_rank
        return [row[:r] for row in self.plain[:r]]


def planned(rng, core_rank, multiplicity, max_deg=3):
    """Line i of the core has degree (i + 1) mod (max_deg + 1), so the cost
    of a shape does not vary with the seed."""
    n = core_rank + multiplicity
    plain = X.pm_zeros(n, n)
    for i in range(core_rank):
        deg = (i + 1) % (max_deg + 1)
        plain[i][i] = X.ptrim([rng.randint(-3, 3) for _ in range(deg)] + [nonzero(rng, 3)])
    return Planned(plain, scramble(rng, plain)[0], core_rank, multiplicity)


def shear_product(rng, n):
    """(S, S^-1): integer unimodular, n + 1 shears."""
    S, Sinv = X.rm_identity(n), X.rm_identity(n)
    for _ in range(n + 1 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = Fraction(nonzero(rng, 2))
        E, Einv = X.rm_identity(n), X.rm_identity(n)
        E[i][j], Einv[i][j] = c, -c
        S, Sinv = X.rm_mul(E, S), X.rm_mul(Sinv, Einv)
    return S, Sinv


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _status(err):
    return (OK, "") if err is None else (FAIL, err)


def canon_cert(cert):
    if cert is None:
        return None
    return {"forward": X.canon_mat(cert.forward), "backward": X.canon_mat(cert.backward)}


def canon_iso(r):
    return {"kind": r.kind, "witness": r.witness, "trials": r.trials_used,
            "deg_cap": r.deg_cap, "certificate": canon_cert(r.certificate)}


def canon_core(d):
    return {"core": X.canon_mat(d.core.matrix), "multiplicity": d.multiplicity,
            "certificate": canon_cert(d.certificate)}


def canon_hom(h):
    return {"dimension": h.dimension, "deg_cap": h.deg_cap,
            "proven_complete": h.proven_complete,
            "basis": [X.canon_mat(T) for T in h.basis]}


def check_cert(cert, A, B, derivation=True):
    """None when cert is a verified isomorphism (R^n, A) -> (R^n, B)."""
    if X.from_polymat(cert.source.matrix) != A or X.from_polymat(cert.target.matrix) != B:
        return "certificate endpoints are not the expected modules"
    return X.iso_error(X.from_polymat(cert.forward), X.from_polymat(cert.backward),
                       A, B, derivation)


def check_core(d, A, core_rank, multiplicity):
    if d.core.rank != core_rank or d.multiplicity != multiplicity:
        return (FAIL, f"core rank {d.core.rank} multiplicity {d.multiplicity}, "
                      f"built as {core_rank} and {multiplicity}")
    decomposed = X.pm_block_diag(X.from_polymat(d.core.matrix),
                                 X.pm_zeros(multiplicity, multiplicity))
    return _status(check_cert(d.certificate, A, decomposed))


def check_iso_positive(r, A, B, derivation=True):
    """Verdict on a pair that is isomorphic by construction."""
    if r.kind == "unknown":
        return UNKNOWN, r.witness or ""
    if r.kind != "iso":
        return FAIL, f"{r.kind} on an isomorphic pair: {r.witness}"
    return _status(check_cert(r.certificate, A, B, derivation))


def hom_basis_error(h, A, B, derivation=True):
    """None when every basis element is a hom and the basis is independent."""
    vecs = []
    for T in h.basis:
        Tm = X.from_polymat(T)
        if not X.is_hom(Tm, A, B, derivation):
            return "basis element is not a differential hom"
        vecs.append(Tm)
    if X.rank(_flatten(vecs)) != len(vecs):
        return "basis is linearly dependent"
    return None


def _flatten(mats):
    """Coefficient vectors of equal-shape polynomial matrices."""
    deg = max((X.max_degree(M) for M in mats), default=0) + 1
    return [[p[d] if d < len(p) else 0 for row in M for p in row for d in range(deg)]
            for M in mats]


# ---------------------------------------------------------------------------
# core_suite
# ---------------------------------------------------------------------------

CORE_SHAPES = [(c, m) for c in range(4) for m in range(5 - c) if c + m]
CORE_REPS = 4


def build_core_suite(lib, seed, work):
    rng = random.Random(f"core_suite:{seed}")
    pool = []
    for rep in range(CORE_REPS):
        for k, (cr, mult) in enumerate(CORE_SHAPES):
            pool.append(_core_instance(lib, rng, cr, mult, partner_core=(rep + k) % 2))
    return pool


def _core_instance(lib, rng, cr, mult, partner_core):
    p = planned(rng, cr, mult)
    r = planned(rng, partner_core, 1)
    A = p.matrix
    P = lib.module(A)
    AR = X.pm_block_diag(A, r.matrix)
    PR = lib.module(AR)
    Rcore = lib.module(r.core_matrix)
    B, U, Uinv = scramble(rng, A)
    Q = lib.module(B)
    one = X.pm_zeros(1, 1)
    cert = lib.dm.IsoCertificate(
        lib.module(X.pm_block_diag(A, one)), lib.module(X.pm_block_diag(B, one)),
        lib.polymat(X.pm_block_diag(U, X.pm_identity(1))),
        lib.polymat(X.pm_block_diag(Uinv, X.pm_identity(1))))
    pivots = (rng.randrange(2**31), rng.randrange(2**31))
    seeds = (rng.randrange(2**31), rng.randrange(2**31), rng.randrange(2**31))
    cores = lambda st, key: X.from_polymat(st[key].core.matrix)

    def sum_of_cores(st):
        return lib.dm.direct_sum(st["core_a"].core, Rcore)

    def cancel_check(out, st):
        if out is None:
            return UNKNOWN, "cancel_free came back inconclusive"
        return _status(check_cert(out, A, B))

    return [
        Item("core_a", "core", lambda st: lib.cores.core(P, pivot_seed=pivots[0]),
             lambda out, st: check_core(out, A, cr, mult), canon_core),
        Item("core_b", "core", lambda st: lib.cores.core(P, pivot_seed=pivots[1]),
             lambda out, st: check_core(out, A, cr, mult), canon_core),
        Item("iso_cores", "iso_search",
             lambda st: lib.dm.iso_search(st["core_a"].core, st["core_b"].core,
                                          seed=seeds[0]),
             lambda out, st: check_iso_positive(out, cores(st, "core_a"),
                                                cores(st, "core_b")), canon_iso),
        Item("core_sum", "core", lambda st: lib.cores.core(PR),
             lambda out, st: check_core(out, AR, cr + r.core_rank, mult + 1), canon_core),
        Item("iso_sum", "iso_search",
             lambda st: lib.dm.iso_search(st["core_sum"].core, sum_of_cores(st),
                                          seed=seeds[1]),
             lambda out, st: check_iso_positive(
                 out, cores(st, "core_sum"),
                 X.pm_block_diag(cores(st, "core_a"), r.core_matrix)), canon_iso),
        Item("cancel", "cancel_free",
             lambda st: lib.cores.cancel_free(P, Q, 1, cert, seed=seeds[2]),
             cancel_check, canon_cert),
    ]


# ---------------------------------------------------------------------------
# hom_solve
# ---------------------------------------------------------------------------

CONST_SHAPES = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)]
RANDOM_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4)]
SCRAMBLE_RANKS = [1, 2, 3, 4]
HOM_REPS = 8
EIGENVALUES = (-1, 0, 1)


def build_hom_solve(lib, seed, work):
    rng = random.Random(f"hom_solve:{seed}")
    pool = []
    for _ in range(HOM_REPS):
        kinds = ([("const", s) for s in CONST_SHAPES] + [("random", s) for s in RANDOM_SHAPES]
                 + [("scramble", r) for r in SCRAMBLE_RANKS])
        rng.shuffle(kinds)
        for kind, shape in kinds:
            pool.append([{"const": _const_hom, "random": _random_hom,
                          "scramble": _scramble_hom}[kind](lib, rng, shape)])
    return pool


def _planned_eigen(rng, n, offset):
    """Constant matrix S T S^-1, T triangular with planned eigenvalues.
    The eigenvalues are a fixed pattern per size and offset, so that the
    hom dimension, which drives the cost, does not vary with the seed."""
    eig = [EIGENVALUES[(i + offset) % len(EIGENVALUES)] for i in range(n)]
    T = [[Fraction(eig[i]) if i == j else Fraction(rng.randint(-2, 2) if j > i else 0)
          for j in range(n)] for i in range(n)]
    S, Sinv = shear_product(rng, n)
    return X.rm_mul(X.rm_mul(S, T), Sinv), eig


def _as_poly(A):
    return [[X.ptrim([v]) for v in row] for row in A]


def _hom_item(lib, A, B, check):
    P, Q = lib.module(A), lib.module(B)
    return Item("hom", "hom_space", lambda st: lib.dm.hom_space(P, Q), check, canon_hom)


def _const_hom(lib, rng, shape):
    (A, ea), (B, eb) = _planned_eigen(rng, shape[0], 0), _planned_eigen(rng, shape[1], 1)
    A, B = _as_poly(A), _as_poly(B)
    expected = sum(ea.count(v) * eb.count(v) for v in EIGENVALUES)

    def check(h, st):
        if h.dimension != expected or not h.proven_complete:
            return FAIL, (f"dimension {h.dimension} (proven {h.proven_complete}), "
                          f"planned eigenvalues give {expected}")
        return _status(hom_basis_error(h, A, B))
    return _hom_item(lib, A, B, check)


def _random_hom(lib, rng, shape):
    A, B = rand_polymat(rng, shape[0], 2), rand_polymat(rng, shape[1], 2)

    def check(h, st):
        err = hom_basis_error(h, A, B)
        if err is None and h.dimension and _leading_operator_invertible(A, B):
            err = f"dimension {h.dimension}, but an invertible leading operator forces 0"
        return _status(err)
    return _hom_item(lib, A, B, check)


def _leading_operator_invertible(A, B):
    """Whether L_E: T |-> T A_E - B_E T is invertible, E = max degree >= 1.
    Then the top coefficient of a polynomial solution of T' = T A - B T
    must vanish, so the hom space is {0}."""
    E = max(X.max_degree(A), X.max_degree(B))
    if E == 0:
        return False
    top = lambda M: [[p[E] if len(p) > E else Fraction(0) for p in row] for row in M]
    L = X.kron_sylvester(top(A), top(B))
    return X.rank(L) == len(L)


def _scramble_hom(lib, rng, n):
    A = rand_polymat(rng, n, 1)
    B, U, _ = scramble(rng, A)

    def check(h, st):
        err = hom_basis_error(h, A, B)
        if err is None and X.rank(_flatten([X.from_polymat(T) for T in h.basis] + [U])) \
                != h.dimension:
            err = "the scramble isomorphism is not in the span of the basis"
        return _status(err)
    return _hom_item(lib, A, B, check)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

SIM_SIZES = range(1, 9)
SIM_REPS = 4


def build_similarity(lib, seed, work):
    rng = random.Random(f"similarity:{seed}")
    pool = []
    for _ in range(SIM_REPS):
        for n in SIM_SIZES:
            A = rand_ratmat(rng, n)
            S, Sinv = shear_product(rng, n)
            pool.append(_sim_instance(lib, rng, A, X.rm_mul(X.rm_mul(S, A), Sinv), True))
            A = rand_ratmat(rng, n)
            while True:
                C = rand_ratmat(rng, n)
                if X.charpoly(C) != X.charpoly(A):
                    break
            pool.append(_sim_instance(lib, rng, A, C, False))
    return pool


def _check_similar(r, A, B, expected):
    if r.similar != expected:
        return FAIL, f"similar={r.similar}, built as {expected}"
    if not r.similar:
        return OK, ""
    T, Ti = X.from_ratmat(r.certificate.transform), X.from_ratmat(r.certificate.inverse)
    if X.rm_mul(T, Ti) != X.rm_identity(len(A)) or X.rm_mul(X.rm_mul(T, A), Ti) != B:
        return FAIL, "similarity certificate fails transform A inverse == B"
    return OK, ""


def _canon_similar(r):
    cert = r.certificate
    return {"similar": r.similar, "witness": r.witness,
            "certificate": None if cert is None else
            [X.canon_mat(cert.transform), X.canon_mat(cert.inverse)]}


def _sim_instance(lib, rng, A, B, expected):
    zero = [[Fraction(0)]]
    Ap, Bp = X.rm_block_diag(A, zero), X.rm_block_diag(B, zero)
    RA, RB, RAp, RBp = (lib.ratmat(M) for M in (A, B, Ap, Bp))
    PA, PB = lib.module(_as_poly(A), "const_zero"), lib.module(_as_poly(B), "const_zero")
    seed = rng.randrange(2**31)

    def iso_check(r, st):
        sim = st.get("similar")
        if sim is not None and r.kind != "unknown" and sim.similar != (r.kind == "iso"):
            return FAIL, f"iso_search says {r.kind} but similar says {sim.similar}"
        if expected:
            return check_iso_positive(r, _as_poly(A), _as_poly(B), derivation=False)
        if r.kind == "iso":
            return FAIL, "iso on a pair with different characteristic polynomials"
        return (UNKNOWN, r.witness or "") if r.kind == "unknown" else (OK, "")

    return [
        Item("similar", "similar", lambda st: lib.zeroder.similar(RA, RB),
             lambda out, st: _check_similar(out, A, B, expected), _canon_similar),
        Item("similar_padded", "similar", lambda st: lib.zeroder.similar(RAp, RBp),
             lambda out, st: _check_similar(out, Ap, Bp, expected), _canon_similar),
        Item("iso", "iso_search", lambda st: lib.dm.iso_search(PA, PB, seed=seed),
             iso_check, canon_iso),
    ]


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

CLI_SHAPES = [(1, 1), (2, 1), (0, 2), (1, 2), (2, 0), (3, 0), (1, 0), (0, 1)]
RCF_SIZES = [4, 5, 3, 6, 4, 5, 3, 6]


def write_module_file(path, A, ring="poly_dx"):
    obj = {"ring": ring, "rank": len(A),
           "matrix": [[X.canon_poly(p) for p in row] for row in A]}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


class Cli:
    """Runs `python -m diffmod ...` as a child process in the work directory,
    with the checkout's src/ on the path, and waits for it."""

    def __init__(self, src, work):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")

    def run(self, *args):
        p = subprocess.run([sys.executable, "-m", "diffmod", *args], cwd=self.work,
                           env=self.env, capture_output=True, text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def python(self, code):
        subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env,
                       capture_output=True, check=True, timeout=60)


def build_cli_session(lib, seed, work):
    rng = random.Random(f"cli_session:{seed}")
    cli = Cli(lib.src, work)
    pool = []
    for s, ((cr, mult), nz) in enumerate(zip(CLI_SHAPES, RCF_SIZES)):
        p = planned(rng, cr, mult, max_deg=2)
        B, U, _ = scramble(rng, p.matrix)
        t = planned(rng, 0, 2)
        Z = rand_ratmat(rng, nz)
        names = {k: f"s{s}_{k}.json" for k in ("p", "q", "t", "z", "ledger")}
        write_module_file(os.path.join(work, names["p"]), p.matrix)
        write_module_file(os.path.join(work, names["q"]), B)
        write_module_file(os.path.join(work, names["t"]), t.matrix)
        write_module_file(os.path.join(work, names["z"]), _as_poly(Z), "const_zero")
        pool.append(_cli_instance(cli, rng, names, p, B, U, t, Z))
    return pool


def _report(out):
    """(exit code, report without timing) of one command, or a failure."""
    rc, stdout, stderr = out
    if "Traceback" in stderr:
        raise RuntimeError(f"traceback: {stderr.strip().splitlines()[-1]}")
    report = json.loads(stdout)
    report.pop("timing", None)
    return rc, report


def _canon_cli(out):
    try:
        return list(_report(out))
    except (RuntimeError, ValueError):
        return {"exit": out[0], "stdout": out[1]}


def _cli_check(fn, allow_unknown=False):
    """Wrap a check of a command's result block with exit-code handling."""
    def check(out, st):
        rc, report = _report(out)
        if rc == 3 and allow_unknown:
            return UNKNOWN, report["result"].get("witness") or ""
        if rc != 0:
            return FAIL, f"exit {rc}: {out[2].strip()[-200:]}"
        err = fn(report["result"])
        return (OK, "") if err is None else (FAIL, err)
    return check


def _json_cert_error(cert, A, B, derivation=True):
    return X.iso_error(X.mat_from_json(cert["forward"]), X.mat_from_json(cert["backward"]),
                       A, B, derivation)


def _cli_instance(cli, rng, names, p, B, U, t, Z):
    A, cr, mult = p.matrix, p.core_rank, p.multiplicity
    ledger = names["ledger"]
    core_seed, iso_seed = str(rng.randrange(2**31)), str(rng.randrange(2**31))

    def hom(res):
        basis = [X.mat_from_json(T) for T in res["basis"]]
        if not all(X.is_hom(T, A, B) for T in basis) or X.rank(_flatten(basis)) != len(basis):
            return "basis is not an independent set of homs"
        if X.rank(_flatten(basis + [U])) != len(basis):
            return "the scramble isomorphism is not in the span of the basis"

    def trivial(res):
        if res["verdict"] != "TRIVIAL":
            return f"{res['verdict']} on a sum of trivial lines"
        n = len(t.matrix)
        return _json_cert_error(res["certificate"], t.matrix, X.pm_zeros(n, n))

    def core(res):
        core_m = X.mat_from_json(res["core"]["matrix"])
        if len(core_m) != cr or res["multiplicity"] != mult:
            return f"core rank {len(core_m)} multiplicity {res['multiplicity']}"
        return _json_cert_error(res["certificate"], A,
                                X.pm_block_diag(core_m, X.pm_zeros(mult, mult)))

    def iso(res):
        if res["verdict"] != "ISO":
            return f"{res['verdict']} on a scrambled pair"
        return _json_cert_error(res["certificate"], A, B)

    def rcf(res):
        return _rcf_error(res, Z)

    def class_rank(rank, zero):
        def check(res):
            if res["core_rank"] != rank or res["is_zero"] != zero:
                return f"core rank {res['core_rank']}, built as {rank}"
        return check

    def equal(expected):
        def check(res):
            if res["verdict"] != expected:
                return f"{res['verdict']}, expected {expected}"
            cert = res["certificate"]
            if cert is not None:
                src = X.mat_from_json(cert["source"]["matrix"])
                return _json_cert_error(cert, src, X.mat_from_json(cert["target"]["matrix"]))
        return check

    def report(res):
        got = [(e["name"], e["core_rank"]) for e in res["entries"]]
        if got != [("P", cr), ("Q", cr), ("T", 0), ("PT", cr)]:
            return f"ledger entries {got}"

    def new_ledger(st):
        path = os.path.join(cli.work, ledger)
        if os.path.exists(path):
            os.remove(path)
        return cli.run("monoid", "new", "--ledger", ledger)

    L = ("--ledger", ledger)
    cmd = lambda *args: (lambda st: cli.run(*args))
    item = lambda key, kind, call, check: Item(key, kind, call, check, _canon_cli)
    return [
        item("hom", "hom", cmd("hom", names["p"], names["q"]), _cli_check(hom)),
        item("trivial", "trivial", cmd("trivial", names["t"]), _cli_check(trivial)),
        item("core", "core", cmd("core", names["p"], "--seed", core_seed), _cli_check(core)),
        item("iso", "iso", cmd("iso", names["p"], names["q"], "--seed", iso_seed),
             _cli_check(iso, allow_unknown=True)),
        item("rcf", "rcf", cmd("rcf", names["z"]), _cli_check(rcf)),
        item("new", "monoid-new", new_ledger, _cli_check(lambda res: None)),
        item("add_p", "monoid-add-module", cmd("monoid", "add-module", names["p"], "P", *L),
             _cli_check(class_rank(cr, cr == 0))),
        item("add_q", "monoid-add-module", cmd("monoid", "add-module", names["q"], "Q", *L),
             _cli_check(class_rank(cr, cr == 0))),
        item("add_t", "monoid-add-module", cmd("monoid", "add-module", names["t"], "T", *L),
             _cli_check(class_rank(0, True))),
        item("add_pt", "monoid-add-classes", cmd("monoid", "add-classes", "P", "T", "PT", *L),
             _cli_check(class_rank(cr, cr == 0))),
        item("eq_pq", "monoid-equal", cmd("monoid", "equal", "P", "Q", *L),
             _cli_check(equal("EQUAL"), allow_unknown=True)),
        item("eq_ppt", "monoid-equal", cmd("monoid", "equal", "P", "PT", *L),
             _cli_check(equal("EQUAL"), allow_unknown=True)),
        item("eq_pt", "monoid-equal", cmd("monoid", "equal", "P", "T", *L),
             _cli_check(equal("NOT_EQUAL" if cr else "EQUAL"))),
        item("report", "monoid-report", cmd("monoid", "report", *L), _cli_check(report)),
    ]


def _rcf_error(res, A):
    factors = [X.poly_from_json(f) for f in res["invariant_factors"]]
    if any(len(f) < 2 or f[-1] != 1 for f in factors):
        return "invariant factor not monic and nonconstant"
    if any(X.pdivmod(b, a)[1] for a, b in zip(factors, factors[1:])):
        return "invariant factors out of divisibility order"
    prod = X.ONE
    for f in factors:
        prod = X.pmul(prod, f)
    if prod != X.charpoly(A):
        return "invariant factors do not multiply to the characteristic polynomial"
    form = []
    for f in factors:
        form = X.rm_block_diag(form, X.companion(f))
    as_rat = lambda rows: [[p[0] if p else Fraction(0) for p in row]
                           for row in X.mat_from_json(rows)]
    T, Ti = as_rat(res["certificate"]["transform"]), as_rat(res["certificate"]["inverse"])
    if as_rat(res["form"]) != form:
        return "form is not the companion blocks of the invariant factors"
    if X.rm_mul(T, Ti) != X.rm_identity(len(A)) or X.rm_mul(X.rm_mul(T, A), Ti) != form:
        return "rcf certificate fails transform A inverse == form"


WORKLOADS = {
    "core_suite": build_core_suite,
    "hom_solve": build_hom_solve,
    "similarity": build_similarity,
    "cli_session": build_cli_session,
}
