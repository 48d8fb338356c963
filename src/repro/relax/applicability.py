"""Relaxation applicability matrix — the paper's Table 2.

For the models implemented in this repository the matrix is *derived*
from each model's vocabulary, so it cannot drift from the code.  The
paper also lists models it does not (or cannot) formalize — Itanium and
HSA here, since this repository meanwhile formalizes ARMv8 and OpenCL —
whose rows we reproduce statically for completeness, with the paper's
two footnotes preserved:

1. "Would apply if model formalizations filled in the missing features."
2. "Dependencies not used directly for synchronization; RD applies to
   no-thin-air axioms only."
"""

from __future__ import annotations

import enum

from repro.models.base import MemoryModel, Vocabulary
from repro.models.registry import MODEL_CLASSES

__all__ = ["Applicability", "RELAXATION_COLUMNS", "applicability_row",
           "applicability_table", "format_table"]

RELAXATION_COLUMNS = ("RI", "DRMW", "DF", "DMO", "RD", "DS", "DV", "UA")


class Applicability(enum.Enum):
    YES = "Y"
    NO = "-"
    MISSING_FEATURE = "1"  # footnote 1
    THIN_AIR_ONLY = "2"    # footnote 2

    def __bool__(self) -> bool:
        return self in (
            Applicability.YES,
            Applicability.THIN_AIR_ONLY,
        )


def applicability_row(
    vocab: Vocabulary, rd_thin_air_only: bool = False
) -> dict[str, Applicability]:
    """Derive a Table 2 row from a model vocabulary."""
    yes, no = Applicability.YES, Applicability.NO

    def flag(cond: bool) -> Applicability:
        return yes if cond else no

    rd: Applicability = flag(vocab.has_deps)
    if rd and rd_thin_air_only:
        rd = Applicability.THIN_AIR_ONLY
    return {
        "RI": yes,
        "DRMW": flag(vocab.allows_rmw),
        "DF": flag(vocab.has_fence_demotions),
        "DMO": flag(vocab.has_orders),
        "RD": rd,
        "DS": flag(vocab.has_scopes),
        "DV": flag(vocab.has_vmem),
        "UA": flag(vocab.has_vmem),
    }


#: Models whose dependencies only feed a no-thin-air axiom (footnote 2).
_THIN_AIR_ONLY_MODELS = frozenset({"scc", "c11", "opencl"})

#: Paper footnote 1, preserved for formalized models: relaxations the
#: paper marks "would apply if model formalizations filled in the
#: missing features".  Our armv8 formalization keeps the paper's gap —
#: a single full-strength ``dmb`` with no weaker barrier to demote to —
#: so its DF cell stays a footnote rather than a plain "-".
_FOOTNOTE_1_OVERRIDES: dict[str, tuple[str, ...]] = {"armv8": ("DF",)}

#: Rows for models the paper tabulates but does not formalize; values
#: follow the paper's Table 2 (DV/UA postdate it: no transistency).
_STATIC_ROWS: dict[str, dict[str, Applicability]] = {
    "itanium": {
        "RI": Applicability.YES,
        "DRMW": Applicability.YES,
        "DF": Applicability.YES,
        "DMO": Applicability.YES,
        "RD": Applicability.MISSING_FEATURE,
        "DS": Applicability.NO,
        "DV": Applicability.NO,
        "UA": Applicability.NO,
    },
    "hsa": {
        "RI": Applicability.YES,
        "DRMW": Applicability.YES,
        "DF": Applicability.YES,
        "DMO": Applicability.YES,
        "RD": Applicability.THIN_AIR_ONLY,
        "DS": Applicability.YES,
        "DV": Applicability.NO,
        "UA": Applicability.NO,
    },
}

#: Display order mirroring the paper's Table 2.
TABLE_ORDER = (
    "sc",
    "tso",
    "power",
    "armv7",
    "armv8",
    "itanium",
    "scc",
    "hsa",
    "c11",
    "opencl",
)


def _derived_row(name: str) -> dict[str, Applicability]:
    model: MemoryModel = MODEL_CLASSES[name]()
    row = applicability_row(
        model.vocabulary,
        rd_thin_air_only=name in _THIN_AIR_ONLY_MODELS,
    )
    for col in _FOOTNOTE_1_OVERRIDES.get(name, ()):
        if row[col] is Applicability.NO:
            row[col] = Applicability.MISSING_FEATURE
    return row


def applicability_table() -> dict[str, dict[str, Applicability]]:
    """The full Table 2, derived rows first, static rows appended."""
    table: dict[str, dict[str, Applicability]] = {}
    for name in TABLE_ORDER:
        if name in MODEL_CLASSES:
            table[name] = _derived_row(name)
        elif name in _STATIC_ROWS:
            table[name] = dict(_STATIC_ROWS[name])
    for name in sorted(MODEL_CLASSES):
        if name not in table:
            table[name] = _derived_row(name)
    return table


def format_table() -> str:
    """Render Table 2 as aligned text."""
    table = applicability_table()
    width = max(len(name) for name in table) + 2
    lines = ["".ljust(width) + "  ".join(c.ljust(4) for c in RELAXATION_COLUMNS)]
    for name, row in table.items():
        cells = "  ".join(
            row[c].value.ljust(4) for c in RELAXATION_COLUMNS
        )
        lines.append(name.ljust(width) + cells)
    lines.append("")
    lines.append("Y = applies   - = not applicable")
    lines.append("1 = would apply if the formalization filled in the feature")
    lines.append("2 = dependencies feed no-thin-air axioms only")
    return "\n".join(lines)
