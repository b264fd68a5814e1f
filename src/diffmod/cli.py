"""Command-line front end: eleven commands and the one report runner.

A command loads its inputs, calls the library and returns (params, result)
or (params, result, exit code); its sub-parser names its report and the
file arguments it reads and writes.  main alone builds reports: before
the command runs it hashes the files it reads (a ledger command rewrites
its ledger) and checks that those it writes (-o, --cert) can be written;
it times the command, prints the canonical-JSON report and writes it to
-o (`suite` prints a pass/fail table instead, and `core -o` names the
core module).
Identical invocations give byte-identical reports outside "timing".

Exit codes: 0 definitive verdict, 2 input error (including a negative
degree cap or trial count, a suite size below 1, or a size over its limit:
MAX_DEG_CAP, MAX_TRIALS, MAX_SUITE_SIZE, serialize.MAX_RANK and
serialize.MAX_DEGREE, also in a ledger file), 3 Unknown (poly_dx only),
4 internal verification failure (an ArithmeticError or CertificateInvalid
raised by an exact check inside the library, whose commands read no
certificates; one "error: internal verification failed: ..." line on
stderr, no report), and 1 when suite items fail.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from typing import Optional

from .diffring import DiffRing, RingMismatch
from .modules import (DEFAULT_DEG_CAP, DEFAULT_TRIALS, COEFF_HEIGHT, CertificateInvalid,
                      hom_space, is_trivial, iso_search)
from .serialize import (MAX_DEG_CAP, MAX_TRIALS, ParseError, canonical_dumps,
                        certificate_to_json, core_decomposition_to_json, load_module,
                        module_to_json, polymat_to_json, poly_to_json,
                        ratmat_to_json, save_json)

# Each command imports the layers only it runs (cores, monoid, suite,
# zeroder) inside its own function, so that a command started as a new
# process loads and compiles no module it never calls.

EXIT_OK = 0
EXIT_SUITE_FAIL = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4

# upper limit, far above any real use: a larger size is an input error, not
# a run that never finishes (MAX_DEG_CAP and MAX_TRIALS live in serialize,
# beside MAX_RANK, so that ledger files are held to them too)
MAX_SUITE_SIZE = 100

_DEFAULTS = {
    "deg_cap": DEFAULT_DEG_CAP,
    "trials": DEFAULT_TRIALS,
    "sampling_height": COEFF_HEIGHT,
}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_cap(args) -> Optional[int]:
    """--deg-cap beats DIFFMOD_DEG_CAP beats the library default (None).
    A cap over MAX_DEG_CAP is an input error; the library rejects a
    negative one."""
    if getattr(args, "deg_cap", None) is not None:
        _in_range("--deg-cap", args.deg_cap, None, MAX_DEG_CAP)
        return args.deg_cap
    env = os.environ.get("DIFFMOD_DEG_CAP")
    if env is None:
        return None
    try:
        cap = int(env)
    except ValueError:
        raise ParseError(f"DIFFMOD_DEG_CAP is not an integer: {env!r}")
    _in_range("DIFFMOD_DEG_CAP", cap, None, MAX_DEG_CAP)
    return cap


def _in_range(flag: str, value: Optional[int], low: Optional[int], high: Optional[int]) -> None:
    """Reject a count below its floor or above its limit (None: no bound) as
    an input error."""
    if value is not None and low is not None and value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")
    if value is not None and high is not None and value > high:
        raise ValueError(f"{flag} must be at most {high}, got {value}")


# ---------------------------------------------------------------------------
# commands: each returns (params, result) or (params, result, exit code)
# ---------------------------------------------------------------------------

def cmd_hom(args):
    P = load_module(args.source)
    Q = load_module(args.target)
    cap = _resolve_cap(args)
    hs = hom_space(P, Q, cap)
    return {"deg_cap": cap}, {
        "dimension": hs.dimension,
        "deg_cap": hs.deg_cap,
        "proven_complete": hs.proven_complete,
        "basis": [polymat_to_json(T) for T in hs.basis],
    }


def cmd_trivial(args):
    P = load_module(args.module)
    cap = _resolve_cap(args)
    res = is_trivial(P, cap)
    cert = certificate_to_json(res.certificate) if res.certificate else None
    if args.cert and cert is not None:
        save_json(args.cert, cert)
    return {"deg_cap": cap}, {
        "verdict": "TRIVIAL" if res.trivial else "NOT_TRIVIAL",
        "constants_dim": res.constants_dim,
        "deg_cap": res.deg_cap,
        "proven_complete": res.proven_complete,
        "certificate": cert,
    }


def cmd_core(args):
    from .cores import core
    P = load_module(args.module)
    cap = _resolve_cap(args)
    d = core(P, deg_cap=cap, pivot_seed=args.seed)
    if args.core_output:
        save_json(args.core_output, module_to_json(d.core))
    if args.cert:
        save_json(args.cert, certificate_to_json(d.certificate))
    return {"deg_cap": cap, "seed": args.seed}, core_decomposition_to_json(d)


def cmd_iso(args):
    P = load_module(args.a)
    Q = load_module(args.b)
    cap = _resolve_cap(args)
    _in_range("--trials", args.trials, 0, MAX_TRIALS)
    r = iso_search(P, Q, trials=args.trials, seed=args.seed, deg_cap=cap)
    cert = certificate_to_json(r.certificate) if r.certificate else None
    if args.cert and cert is not None:
        save_json(args.cert, cert)
    result = {
        "verdict": r.kind.upper(),
        "witness": r.witness,
        "trials_used": r.trials_used,
        "deg_cap": r.deg_cap,
        "certificate": cert,
    }
    params = {"deg_cap": cap, "trials": args.trials, "seed": args.seed}
    return params, result, EXIT_UNKNOWN if r.kind == "unknown" else EXIT_OK


def cmd_rcf(args):
    from .zeroder import rcf
    P = load_module(args.module)
    if P.ring is not DiffRing.CONST_ZERO:
        raise ParseError("rcf expects a module over the zero-derivation ring "
                         f"(got ring {P.ring.tag!r})")
    f = rcf(P.matrix.to_ratmat())
    return {}, {
        "invariant_factors": [poly_to_json(p) for p in f.invariant_factors],
        "form": ratmat_to_json(f.form),
        "certificate": {k: ratmat_to_json(m) for k, m in f.certificate._asdict().items()},
    }


def cmd_suite(args):
    from .suite import run_suite
    _in_range("--size", args.size, 1, MAX_SUITE_SIZE)
    items = run_suite(seed=args.seed, size=args.size)
    width = max(len(i.name) for i in items)
    for i in items:
        mark = "PASS" if i.passed else "FAIL"
        line = f"{mark}  {i.name.ljust(width)}  cases={i.cases}"
        if i.detail:
            line += f"  [{i.detail}]"
        print(line)
    failed = [i for i in items if not i.passed]
    print(f"{len(items) - len(failed)}/{len(items)} property groups passed "
          f"(seed={args.seed}, size={args.size})")
    result = {"items": [{"name": i.name, "passed": i.passed,
                         "cases": i.cases, "detail": i.detail} for i in items],
              "failed": len(failed)}
    return ({"seed": args.seed, "size": args.size}, result,
            EXIT_SUITE_FAIL if failed else EXIT_OK)


# -- monoid subcommands -------------------------------------------------------

def _load_ledger(path: str):
    from .monoid import ClassLedger
    return ClassLedger.load(path)


def cmd_monoid_new(args):
    from .monoid import ClassLedger
    if os.path.exists(args.ledger):
        raise ParseError(f"refusing to overwrite existing ledger {args.ledger!r}")
    _in_range("--deg-cap", args.deg_cap, 0, MAX_DEG_CAP)
    _in_range("--trials", args.trials, 0, MAX_TRIALS)
    _in_range("--seed", args.seed, 0, None)  # a ledger file holds no negative seed
    ledger = ClassLedger(DiffRing.from_tag(args.ring),
                         deg_cap=args.deg_cap if args.deg_cap is not None
                         else DEFAULT_DEG_CAP,
                         trials=args.trials, seed=args.seed)
    ledger.save(args.ledger)
    params = {"deg_cap": ledger.deg_cap, "trials": ledger.trials, "seed": ledger.seed}
    return params, {"ledger": args.ledger, "ring": ledger.ring.tag, "classes": 0}


def _class_result(ledger, entry) -> dict:
    return {"name": entry.name, "core_rank": entry.core.rank,
            "is_zero": ledger.is_zero_class(entry.name)}


def cmd_monoid_add_module(args):
    ledger = _load_ledger(args.ledger)
    entry = ledger.class_of(load_module(args.module), args.name)
    ledger.save(args.ledger)
    return {}, _class_result(ledger, entry)


def cmd_monoid_add_classes(args):
    ledger = _load_ledger(args.ledger)
    entry = ledger.add_classes(args.a, args.b, args.name)
    ledger.save(args.ledger)
    return {}, _class_result(ledger, entry)


def cmd_monoid_equal(args):
    _in_range("--trials", args.trials, 0, MAX_TRIALS)
    ledger = _load_ledger(args.ledger)
    r = ledger.classes_equal(args.a, args.b, trials=args.trials, seed=args.seed)
    ledger.save(args.ledger)  # provenance lines were appended
    result = {
        "verdict": r.kind.upper(),
        "witness": r.witness,
        "certificate": certificate_to_json(r.certificate) if r.certificate else None,
    }
    params = {"trials": args.trials, "seed": args.seed}
    return params, result, EXIT_UNKNOWN if r.kind == "unknown" else EXIT_OK


def cmd_monoid_report(args):
    ledger = _load_ledger(args.ledger)
    entries = []
    for name in ledger.names():
        e = ledger[name]
        entries.append({
            "name": name,
            "core_rank": e.core.rank,
            "core": module_to_json(e.core),
            "is_zero": ledger.is_zero_class(name),
            "is_invertible": ledger.is_invertible_class(name),
            "provenance": list(e.provenance),
        })
    return {}, {"ring": ledger.ring.tag, "deg_cap": ledger.deg_cap,
                "trials": ledger.trials, "seed": ledger.seed, "entries": entries}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_cap(p):
    p.add_argument("--deg-cap", type=int, default=None, metavar="N",
                   help="polynomial degree cap for hom solving "
                        "(default: DIFFMOD_DEG_CAP or 32)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diffmod",
        description="Exact classification toolkit for differential modules: "
                    "hom spaces, triviality, cores, isomorphism certificates, "
                    "and the projective class monoid.")
    # every sub-parser sets fn, its report's name, the file arguments main
    # hashes and those it writes; only the suite turns echo off (it prints a
    # table), and only an -o that names the report has dest "output"
    parser.set_defaults(inputs=(), outputs=(), echo=True, output=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hom", help="basis of the differential hom space")
    p.add_argument("source")
    p.add_argument("target")
    _add_cap(p)
    p.add_argument("-o", "--output", metavar="FILE", help="also write the report here")
    p.set_defaults(fn=cmd_hom, report="hom", inputs=("source", "target"), outputs=("output",))

    p = sub.add_parser("trivial", help="decide triviality, with certificate")
    p.add_argument("module")
    _add_cap(p)
    p.add_argument("--cert", metavar="FILE", help="write the certificate here")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn=cmd_trivial, report="trivial", inputs=("module",),
                   outputs=("output", "cert"))

    p = sub.add_parser("core", help="split off the maximal trivial summand")
    p.add_argument("module")
    _add_cap(p)
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the pivot choice (default: deterministic)")
    p.add_argument("-o", "--output", dest="core_output", metavar="FILE",
                   help="write the core module here")
    p.add_argument("--cert", metavar="FILE", help="write the certificate here")
    p.set_defaults(fn=cmd_core, report="core", inputs=("module",),
                   outputs=("core_output", "cert"))

    p = sub.add_parser("iso", help="search for a differential isomorphism")
    p.add_argument("a")
    p.add_argument("b")
    _add_cap(p)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cert", metavar="FILE")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn=cmd_iso, report="iso", inputs=("a", "b"), outputs=("output", "cert"))

    p = sub.add_parser("rcf", help="rational canonical form over the "
                                   "zero-derivation ring")
    p.add_argument("module")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn=cmd_rcf, report="rcf", inputs=("module",), outputs=("output",))

    p = sub.add_parser("suite", help="run the seeded property suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=1)
    p.add_argument("-o", "--output", metavar="FILE", help="also write a JSON report")
    p.set_defaults(fn=cmd_suite, report="suite", outputs=("output",), echo=False)

    p = sub.add_parser("monoid", help="projective class ledger operations")
    msub = p.add_subparsers(dest="subcommand", required=True)

    q = msub.add_parser("new", help="create an empty ledger")
    q.add_argument("--ledger", required=True)
    q.add_argument("--ring", choices=[r.tag for r in DiffRing],
                   default=DiffRing.POLY_DX.tag)
    q.add_argument("--deg-cap", type=int, default=None)
    q.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    q.add_argument("--seed", type=int, default=0)
    q.set_defaults(fn=cmd_monoid_new, report="monoid-new")

    q = msub.add_parser("add-module", help="record the class of a module file")
    q.add_argument("module")
    q.add_argument("name")
    q.add_argument("--ledger", required=True)
    q.set_defaults(fn=cmd_monoid_add_module, report="monoid-add-module",
                   inputs=("ledger", "module"))

    q = msub.add_parser("add-classes", help="record the sum of two classes")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("name")
    q.add_argument("--ledger", required=True)
    q.set_defaults(fn=cmd_monoid_add_classes, report="monoid-add-classes",
                   inputs=("ledger",))

    q = msub.add_parser("equal", help="three-valued class equality")
    q.add_argument("a")
    q.add_argument("b")
    q.add_argument("--ledger", required=True)
    q.add_argument("--trials", type=int, default=None)
    q.add_argument("--seed", type=int, default=None)
    q.set_defaults(fn=cmd_monoid_equal, report="monoid-equal", inputs=("ledger",))

    q = msub.add_parser("report", help="dump every class with provenance")
    q.add_argument("--ledger", required=True)
    q.set_defaults(fn=cmd_monoid_report, report="monoid-report", inputs=("ledger",))

    return parser


def main(argv=None) -> int:
    """Run one command and build its report: the one place that hashes,
    times, prints and writes reports."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        # hashed before the command runs, which rewrites a ledger it reads
        inputs = {name: {"path": getattr(args, name), "sha256": _sha256(getattr(args, name))}
                  for name in args.inputs}
        # an unwritable path fails before the command runs
        for path in filter(None, (getattr(args, name) for name in args.outputs)):
            made = not os.path.lexists(path)
            open(path, "a").close()  # truncates nothing
            if made:
                os.remove(path)
        params, result, *code = args.fn(args)
        text = canonical_dumps({
            "command": args.report,
            "argv": argv,
            "defaults": _DEFAULTS,
            "params": params,
            "inputs": inputs,
            "result": result,
            "timing": {"seconds": round(time.time() - started, 6)},
        })
        if args.echo:
            sys.stdout.write(text)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        return code[0] if code else EXIT_OK
    except (ParseError, RingMismatch, OSError, ValueError, KeyError) as exc:
        # a KeyError's str() is the repr of its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ArithmeticError, CertificateInvalid) as exc:
        print(f"error: internal verification failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
