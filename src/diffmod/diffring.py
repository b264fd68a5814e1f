"""The two concrete coefficient rings.

Both rings have constants field Q.  Elements are represented as Poly values;
over the rational-constants ring every element must be a constant polynomial
(degree <= 0), which module constructors enforce.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .exactalg import Poly, PolyMat


class RingMismatch(Exception):
    """Two objects living over different rings were combined."""


class DiffRing(enum.Enum):
    # Q[x] with derivation d/dx
    POLY_DX = "poly_dx"
    # Q with the zero derivation
    CONST_ZERO = "const_zero"

    @property
    def tag(self) -> str:
        return self.value

    @staticmethod
    def from_tag(tag: str) -> "DiffRing":
        for ring in DiffRing:
            if ring.value == tag:
                return ring
        raise ValueError(f"unknown ring tag {tag!r}")

    def derive_poly(self, p: Poly) -> Poly:
        if self is DiffRing.POLY_DX:
            return p.derivative()
        return Poly.zero()

    def derive_mat(self, M: PolyMat) -> PolyMat:
        if self is DiffRing.POLY_DX:
            return M.derivative()
        return PolyMat.zeros(M.rows, M.cols)

    def validate_element(self, p: Poly) -> None:
        if self is DiffRing.CONST_ZERO and not p.is_constant():
            raise ValueError(f"element {p} does not live in the rational-constants ring")

    def constants_description(self) -> "RingConstants":
        # Identical for both rings: the constants form the field Q, whose
        # projective class monoid is trivial (every f.g. projective is free).
        return RingConstants(field_name="QQ", is_field=True,
                             projective_class_monoid_trivial=True)


class RingConstants(NamedTuple):
    field_name: str
    is_field: bool
    projective_class_monoid_trivial: bool


def derive(ring: DiffRing, p: Poly) -> Poly:
    return ring.derive_poly(p)
