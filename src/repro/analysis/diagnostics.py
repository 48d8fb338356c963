"""Diagnostics core: findings, suppressions, reports, renderers.

The analysis subsystem phrases every problem it detects as a
:class:`Diagnostic` — a stable id, a severity, a *subject* locating the
finding (``model:tso:causality``, ``catalog:MP``, ``file:foo.litmus``),
a human message, and an optional fix hint.  Passes yield diagnostics;
the :class:`Report` aggregates them, applies :class:`Suppression`
filters, and maps the surviving severities onto CI-friendly exit codes
(0 = clean, 1 = warnings, 2 = errors).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

__all__ = [
    "Severity",
    "Diagnostic",
    "Suppression",
    "Report",
    "parse_suppression",
    "render_text",
    "render_json",
    "DIAGNOSTIC_IDS",
    "JSON_SCHEMA_VERSION",
]

#: Bumped whenever the JSON rendering changes shape.
JSON_SCHEMA_VERSION = 1

#: Every diagnostic id the analysis subsystem can emit, with a one-line
#: meaning.  :func:`parse_suppression` validates ids against this table,
#: and the registry self-check asserts that every registered pass
#: declares a subset of it and that no id here is orphaned — so the
#: suppression syntax, the README table, and ``repro lint`` stay
#: exhaustive by construction.
DIAGNOSTIC_IDS: dict[str, str] = {
    "MDL001": "declared free relation never referenced by any axiom",
    "MDL002": "axiom vacuously true across the probe battery",
    "MDL003": "axiom unsatisfiable across the probe battery",
    "MDL004": "Acyclic/Irreflexive applied to a closure expression",
    "MDL005": "two axioms are structurally identical",
    "MDL006": "wa_axioms out of sync with axioms",
    "MDL010": "axiom abstractly true on every probe (statically vacuous)",
    "MDL011": "axiom abstractly false on a probe (unsat by construction)",
    "MDL012": "operator-induced statically-empty subexpression (dead)",
    "LIT001": "read from an address no write ever stores to",
    "LIT002": "outcome references a missing read / write event",
    "LIT003": "sync annotation outside the model's vocabulary (dead)",
    "LIT004": "test duplicates an earlier test modulo symmetry",
    "LIT005": "outcome rf pairs a read with a write to another address",
    "LIT006": "litmus test file cannot be loaded",
    "LIT010": "no relaxation application exists (statically degenerate)",
    "LIT011": "rf/co(/sc) bounds statically empty (single execution)",
    "SAT001": "variable never referenced by any clause (orphan)",
    "SAT002": "tautological clause",
    "SAT003": "empty clause (formula trivially unsatisfiable)",
    "SAT004": "duplicate literal within one clause",
    "SAT005": "literal references a variable beyond num_vars",
    "SAT006": "unit clause in the input",
    "SAT007": "oracle knob the chosen oracle silently ignores",
    "SAT008": "CNF cache directory holds stale or mixed entries",
    "SAT009": "warm CNF cache produced zero compile hits",
    "DIF001": "corpus entry is stale (unregistered model or healed)",
    "DIF002": "corpus/config names an unknown model or broken mutant",
    "OBS001": "trace span begun but never closed",
    "OBS002": "trace file/dir unreadable or schema-inconsistent",
}


class Severity(enum.IntEnum):
    """Finding severity; the integer order drives exit-code selection."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding of one analysis pass.

    Attributes:
        id: stable identifier (``MDL001`` .. ``SAT005``) — the unit of
            suppression and the key documented in the README table.
        severity: how bad the finding is; errors gate CI.
        subject: where the finding lives, as a ``:``-separated path
            (``model:tso:causality``, ``catalog:PPOAA:e4``).
        message: one-line human description.
        hint: optional suggestion for fixing the finding.
    """

    id: str
    severity: Severity
    subject: str
    message: str
    hint: str = ""

    def format(self) -> str:
        text = f"{self.severity.label}[{self.id}] {self.subject}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def as_dict(self) -> dict[str, str]:
        return {
            "id": self.id,
            "severity": self.severity.label,
            "subject": self.subject,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Suppression:
    """Silence findings of one diagnostic id, optionally scoped by subject.

    ``subject`` is an ``fnmatch``-style glob matched case-sensitively
    against :attr:`Diagnostic.subject`; the default ``*`` suppresses the
    id everywhere.  ``reason`` documents *why* the finding is intentional
    — registry-wide suppressions must carry one.
    """

    id: str
    subject: str = "*"
    reason: str = ""

    def matches(self, diagnostic: Diagnostic) -> bool:
        return diagnostic.id == self.id and fnmatchcase(
            diagnostic.subject, self.subject
        )


def parse_suppression(spec: str, reason: str = "") -> Suppression:
    """Parse the CLI/file suppression syntax ``ID`` or ``ID:subject-glob``.

    Examples: ``LIT001`` (everywhere), ``LIT001:catalog:PPOAA*`` (one
    entry and its events).  The id must exist in
    :data:`DIAGNOSTIC_IDS` — a typo'd suppression that silently matches
    nothing is worse than an error.
    """
    spec = spec.strip()
    if not spec:
        raise ValueError("empty suppression spec")
    diag_id, _, subject = spec.partition(":")
    if diag_id not in DIAGNOSTIC_IDS:
        known = ", ".join(sorted(DIAGNOSTIC_IDS))
        raise ValueError(
            f"unknown diagnostic id {diag_id!r} in suppression spec "
            f"(known ids: {known})"
        )
    return Suppression(diag_id, subject or "*", reason)


@dataclass
class Report:
    """A collection of findings plus the suppressions that were applied."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    suppressed: list[Diagnostic] = field(default_factory=list)

    def extend(self, diagnostics) -> None:
        self.diagnostics.extend(diagnostics)

    def apply_suppressions(self, suppressions) -> Report:
        """Partition findings into kept and suppressed; returns a new
        report (the input order of findings is preserved)."""
        suppressions = list(suppressions)
        kept: list[Diagnostic] = []
        silenced = list(self.suppressed)
        for diag in self.diagnostics:
            if any(s.matches(diag) for s in suppressions):
                silenced.append(diag)
            else:
                kept.append(diag)
        return Report(kept, silenced)

    def count(self, severity: Severity) -> int:
        return sum(1 for d in self.diagnostics if d.severity is severity)

    @property
    def max_severity(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    @property
    def exit_code(self) -> int:
        """0 = clean (or info only), 1 = warnings, 2 = errors."""
        worst = self.max_severity
        if worst is None or worst is Severity.INFO:
            return 0
        return 1 if worst is Severity.WARNING else 2

    def sorted(self) -> Report:
        """Copy with findings ordered most-severe-first, then by subject."""
        key = lambda d: (-int(d.severity), d.subject, d.id)  # noqa: E731
        return Report(
            sorted(self.diagnostics, key=key),
            sorted(self.suppressed, key=key),
        )


def render_text(report: Report) -> str:
    """Human-readable rendering, most severe findings first."""
    report = report.sorted()
    lines = [d.format() for d in report.diagnostics]
    summary = (
        f"{report.count(Severity.ERROR)} error(s), "
        f"{report.count(Severity.WARNING)} warning(s), "
        f"{report.count(Severity.INFO)} info(s)"
    )
    if report.suppressed:
        summary += f", {len(report.suppressed)} suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: Report) -> str:
    """Schema-stable JSON rendering (see ``JSON_SCHEMA_VERSION``)."""
    report = report.sorted()
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "exit_code": report.exit_code,
        "summary": {
            "errors": report.count(Severity.ERROR),
            "warnings": report.count(Severity.WARNING),
            "infos": report.count(Severity.INFO),
            "suppressed": len(report.suppressed),
        },
        "diagnostics": [d.as_dict() for d in report.diagnostics],
        "suppressed": [d.as_dict() for d in report.suppressed],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
