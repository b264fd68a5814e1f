"""Ledger for classes of differential modules under direct sum.

Classes are stored by their trivial-free core: two modules represent the
same class exactly when the cores are isomorphic, and the zero class is the
one with rank-0 core.  Addition of classes is core(direct sum of cores).
The units of this monoid are governed by the constants field: Q has a
trivial projective class monoid, so the only invertible class is zero —
is_invertible_class records that reasoning in the provenance log rather
than searching for an inverse.

The ledger is append-only (entries are never rewritten, provenance lines
only accumulate) and persists as JSON, loadable bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .diffring import DiffRing, RingMismatch
from .modules import (DEFAULT_DEG_CAP, DEFAULT_TRIALS, DiffModule,
                      IsoCertificate, direct_sum, iso_search)
from .serialize import (MAX_DEG_CAP, MAX_TRIALS, ParseError, load_json,
                        module_from_json, module_to_json, save_json)


def core(P: DiffModule, deg_cap: Optional[int] = None):
    """cores.core, imported at the first call, so that the ledger commands
    which record no class (new, equal, report) never load cores."""
    from .cores import core as split_core
    return split_core(P, deg_cap)


def _count(obj: dict, key: str, default, high: Optional[int] = None) -> int:
    """A ledger file's nonnegative integer field, at most `high`."""
    value = obj.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ParseError(f"bad {key} {value!r} in ledger file (expected an integer >= 0)")
    if high is not None and value > high:
        raise ParseError(f"{key} {value} in ledger file exceeds the limit {high}")
    return value


@dataclass
class ClassEntry:
    name: str
    core: DiffModule
    provenance: list = field(default_factory=list)


@dataclass(frozen=True)
class EqualityResult:
    kind: str  # "equal" | "not_equal" | "unknown"
    certificate: Optional[IsoCertificate]
    witness: Optional[str]


class ClassLedger:
    """Named classes over one ring, with the solver policy they were built
    under (degree cap, trial count, base seed) pinned in the metadata."""

    def __init__(self, ring: DiffRing, deg_cap: int = DEFAULT_DEG_CAP,
                 trials: int = DEFAULT_TRIALS, seed: int = 0):
        self.ring = ring
        self.deg_cap = deg_cap
        self.trials = trials
        self.seed = seed
        self.entries: dict = {}

    # -- class construction ---------------------------------------------------

    def _check_name(self, name: str):
        if not name or not isinstance(name, str):
            raise ValueError("class names must be nonempty strings")
        if name in self.entries:
            raise ValueError(f"class {name!r} already recorded")

    def class_of(self, P: DiffModule, name: str) -> ClassEntry:
        """Record the class of P under the given name (stored by core)."""
        self._check_name(name)
        if P.ring != self.ring:
            raise RingMismatch(f"ledger is over {self.ring.tag}, module over {P.ring.tag}")
        d = core(P, self.deg_cap)
        entry = ClassEntry(name, d.core, [
            f"class_of: input rank {P.rank}, core rank {d.core.rank}, "
            f"trivial multiplicity {d.multiplicity}, deg_cap {self.deg_cap}"
        ])
        self.entries[name] = entry
        return entry

    def add_classes(self, a: str, b: str, as_name: str) -> ClassEntry:
        """The class of the direct sum: core(core_a + core_b)."""
        ea, eb = self[a], self[b]
        self._check_name(as_name)
        d = core(direct_sum(ea.core, eb.core), self.deg_cap)
        entry = ClassEntry(as_name, d.core, [
            f"add_classes: {a} + {b}, core rank {d.core.rank}, "
            f"trivial multiplicity {d.multiplicity}, deg_cap {self.deg_cap}"
        ])
        self.entries[as_name] = entry
        return entry

    def __getitem__(self, name: str) -> ClassEntry:
        if name not in self.entries:
            raise KeyError(f"no class named {name!r}")
        return self.entries[name]

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def names(self):
        return list(self.entries)

    # -- queries ---------------------------------------------------------------

    def is_zero_class(self, name: str) -> bool:
        """Zero class == rank-0 core (the module was a sum of trivial lines)."""
        return self[name].core.rank == 0

    def is_invertible_class(self, name: str) -> bool:
        """A class is invertible iff it is zero.

        The units of the class monoid form a group isomorphic to the
        projective class group of the constants field; over Q that group is
        trivial, so no nonzero class has an inverse.  The reasoning chain is
        recorded on the entry."""
        entry = self[name]
        verdict = entry.core.rank == 0
        desc = self.ring.constants_description()
        note = (f"is_invertible_class: units correspond to projective classes over "
                f"the constants field {desc.field_name}; that monoid is trivial, so "
                f"invertible iff zero; core rank {entry.core.rank} -> {verdict}")
        if note not in entry.provenance:
            entry.provenance.append(note)
        return verdict

    def classes_equal(self, a: str, b: str, trials: Optional[int] = None,
                      seed: Optional[int] = None) -> EqualityResult:
        """Equality of classes, decided on the stored cores by iso_search.

        Equal comes with a verified isomorphism certificate; NotEqual only
        from a proven invariant mismatch; over poly_dx everything else stays
        Unknown (never silently collapsed into NotEqual)."""
        ea, eb = self[a], self[b]
        r = iso_search(ea.core, eb.core,
                       trials=self.trials if trials is None else trials,
                       seed=self.seed if seed is None else seed,
                       deg_cap=self.deg_cap)
        kind = {"iso": "equal", "not_iso": "not_equal", "unknown": "unknown"}[r.kind]
        for entry in (ea, eb):
            note = f"classes_equal: {a} vs {b} -> {kind}" + (
                f" ({r.witness})" if r.witness else "")
            if note not in entry.provenance:
                entry.provenance.append(note)
        return EqualityResult(kind, r.certificate, r.witness)

    # -- persistence -------------------------------------------------------------

    def to_json(self):
        return {
            "ring": self.ring.tag,
            "deg_cap": self.deg_cap,
            "trials": self.trials,
            "seed": self.seed,
            "entries": [
                {
                    "name": e.name,
                    "core": module_to_json(e.core),
                    "provenance": list(e.provenance),
                }
                for e in self.entries.values()
            ],
        }

    @staticmethod
    def from_json(obj) -> "ClassLedger":
        if not isinstance(obj, dict):
            raise ParseError("ledger file must be a JSON object")
        for key in ("ring", "deg_cap", "entries"):
            if key not in obj:
                raise ParseError(f"ledger file is missing {key!r}")
        try:
            ring = DiffRing.from_tag(obj["ring"])
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        ledger = ClassLedger(ring, deg_cap=_count(obj, "deg_cap", None, MAX_DEG_CAP),
                             trials=_count(obj, "trials", DEFAULT_TRIALS, MAX_TRIALS),
                             seed=_count(obj, "seed", 0))
        for raw in obj["entries"]:
            if not isinstance(raw, dict) or "name" not in raw or "core" not in raw:
                raise ParseError("bad ledger entry")
            name = raw["name"]
            if name in ledger.entries:
                raise ParseError(f"duplicate class name {name!r}")
            prov = raw.get("provenance", [])
            if not isinstance(prov, list) or not all(isinstance(s, str) for s in prov):
                raise ParseError(f"bad provenance for {name!r}")
            ledger.entries[name] = ClassEntry(name, module_from_json(raw["core"]),
                                              list(prov))
        return ledger

    def save(self, path) -> None:
        save_json(path, self.to_json())

    @staticmethod
    def load(path) -> "ClassLedger":
        return ClassLedger.from_json(load_json(path))
