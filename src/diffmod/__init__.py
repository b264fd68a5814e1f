"""Exact kernel for differential modules over Q[x] (d/dx) and Q (zero
derivation): hom spaces, triviality certificates, trivial-free cores, free
cancellation, a projective class ledger, and a zero-derivation similarity
backend.  Everything is exact rational arithmetic; every verdict that
matters is backed by a certificate that is re-verified before being
reported."""

from .diffring import DiffRing, RingMismatch
from .exactalg import (NotUnimodular, Poly, PolyMat, RatMat, ShapeMismatch,
                       kernel_basis, rat_nullspace)
from .modules import (COEFF_HEIGHT, DEFAULT_DEG_CAP, DEFAULT_TRIALS,
                      CertificateInvalid, DiffModule, HomSpace,
                      IsoCertificate, IsoResult, TrivialityResult, constants,
                      direct_sum, hom_space, identity_certificate, is_trivial,
                      iso_search, make_iso_certificate, scramble,
                      trivial_module, verify_hom)

__all__ = [
    "DiffRing", "RingMismatch", "Poly", "PolyMat", "RatMat",
    "NotUnimodular", "ShapeMismatch", "kernel_basis", "rat_nullspace",
    "DiffModule", "HomSpace", "IsoCertificate", "IsoResult", "TrivialityResult", "constants",
    "direct_sum", "hom_space", "identity_certificate", "is_trivial",
    "iso_search", "make_iso_certificate", "scramble", "trivial_module",
    "verify_hom", "CertificateInvalid", "DEFAULT_DEG_CAP", "DEFAULT_TRIALS",
    "COEFF_HEIGHT",
]
