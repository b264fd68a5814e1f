"""JSON grammar for every object that crosses the tool boundary.

Rationals are "p/q" strings (denominator omitted when 1), polynomials are
ascending coefficient arrays, matrices are row-major nested arrays.  The
writer is canonical, so serialize(parse(s)) == s for files this tool wrote
and parse(serialize(x)) == x always (bit-exact round trips), within the
parser's limits below.
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

from .diffring import DiffRing
from .exactalg import Poly, PolyMat, RatMat
from .modules import DiffModule, IsoCertificate, make_iso_certificate

_RAT_RE = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")

# a module file's rank, and the degree of a polynomial in any file, may not
# exceed these: far above any real use, and checked before the entries are
# parsed
MAX_RANK = 64
MAX_DEGREE = 1024
# the digits of a rational's numerator and of its denominator in a file, each
# (the writer prints any size; int's own str limit plays no part either way)
MAX_DIGITS = 10_000
# upper limits on a degree cap and a trial count, from a flag, the
# environment or a ledger file, far above any real use: a larger value is an
# input error, not a run that never finishes
MAX_DEG_CAP = 1024
MAX_TRIALS = 10_000


class ParseError(Exception):
    """Input text does not conform to the serialization grammar."""


def rat_to_str(r: Fraction) -> str:
    # through Decimal, which converts ints of any size exactly
    p, q = (str(Decimal(v)) for v in (r.numerator, r.denominator))
    return p if q == "1" else f"{p}/{q}"


def rat_from_str(s) -> Fraction:
    if not isinstance(s, str) or not _RAT_RE.match(s):
        raise ParseError(f"bad rational {s!r} (expected 'p' or 'p/q')")
    digits = max(map(len, s.lstrip("-").split("/")))
    if digits > MAX_DIGITS:
        raise ParseError(f"bad rational of {digits} digits (the limit is {MAX_DIGITS})")
    return Fraction(*(int(Decimal(v)) for v in s.split("/")))


def poly_to_json(p: Poly):
    return [rat_to_str(c) for c in p.coeffs]


def poly_from_json(obj) -> Poly:
    if not isinstance(obj, list):
        raise ParseError(f"bad polynomial {obj!r} (expected a coefficient array)")
    if len(obj) > MAX_DEGREE + 1:
        raise ParseError(f"polynomial of {len(obj)} coefficients exceeds the degree limit {MAX_DEGREE}")
    return Poly([rat_from_str(c) for c in obj])


def polymat_to_json(M: PolyMat):
    return [list(map(poly_to_json, M.row(i))) for i in range(M.rows)]


def polymat_from_json(obj, rows=None, cols=None) -> PolyMat:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise ParseError("bad matrix (expected nested arrays, row-major)")
    r = len(obj)
    if r == 0:
        c = cols if cols is not None else 0
        M = PolyMat(0, c, [])
    else:
        widths = {len(row) for row in obj}
        if len(widths) != 1:
            raise ParseError("ragged matrix rows")
        c = widths.pop()
        M = PolyMat(r, c, [poly_from_json(e) for row in obj for e in row])
    if rows is not None and M.rows != rows:
        raise ParseError(f"expected {rows} rows, got {M.rows}")
    if cols is not None and M.cols != cols:
        raise ParseError(f"expected {cols} columns, got {M.cols}")
    return M


def ratmat_to_json(M: RatMat):
    return polymat_to_json(M.to_polymat())


def module_to_json(M: DiffModule):
    return {"ring": M.ring.tag, "rank": M.rank, "matrix": polymat_to_json(M.matrix)}


def module_from_json(obj) -> DiffModule:
    if not isinstance(obj, dict):
        raise ParseError("module file must be a JSON object")
    for key in ("ring", "rank", "matrix"):
        if key not in obj:
            raise ParseError(f"module file is missing {key!r}")
    try:
        ring = DiffRing.from_tag(obj["ring"])
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    rank = obj["rank"]
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
        raise ParseError(f"bad rank {rank!r}")
    if rank > MAX_RANK:
        raise ParseError(f"rank {rank} exceeds the limit {MAX_RANK}")
    mat = polymat_from_json(obj["matrix"], rows=rank if rank else None, cols=rank)
    if mat.rows != rank or mat.cols != rank:
        raise ParseError(f"matrix shape {mat.rows}x{mat.cols} does not match rank {rank}")
    try:
        return DiffModule(ring, rank, mat)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def certificate_to_json(cert: IsoCertificate):
    return {
        "forward": polymat_to_json(cert.forward),
        "backward": polymat_to_json(cert.backward),
        "source": module_to_json(cert.source),
        "target": module_to_json(cert.target),
    }


def certificate_from_json(obj) -> IsoCertificate:
    if not isinstance(obj, dict):
        raise ParseError("certificate file must be a JSON object")
    for key in ("forward", "backward", "source", "target"):
        if key not in obj:
            raise ParseError(f"certificate file is missing {key!r}")
    source = module_from_json(obj["source"])
    target = module_from_json(obj["target"])
    forward = polymat_from_json(obj["forward"], rows=target.rank or None, cols=source.rank)
    backward = polymat_from_json(obj["backward"], rows=source.rank or None, cols=target.rank)
    try:
        return make_iso_certificate(source, target, forward, backward)
    except Exception as exc:
        raise ParseError(f"certificate failed verification: {exc}") from exc


def core_decomposition_to_json(d):
    return {
        "input": module_to_json(d.input),
        "core": module_to_json(d.core),
        "multiplicity": d.multiplicity,
        "certificate": certificate_to_json(d.certificate),
    }


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply to parse") from exc


def save_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(obj))


def load_module(path) -> DiffModule:
    return module_from_json(load_json(path))
