"""Synthesized litmus test suites (paper §5).

A :class:`TestSuite` stores canonical tests with the axioms they are
minimal for and a witness outcome — the forbidden outcome that every
instruction relaxation renders observable.  Suites dedupe by canonical
form, merge into per-model *union* suites, and serialize to/from JSON so
the CLI can persist them.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.litmus.events import (
    DepKind,
    EventKind,
    FenceKind,
    Instruction,
    Order,
    Scope,
)
from repro.litmus.execution import Outcome, remap_outcome
from repro.litmus.test import Dep, LitmusTest
from repro.core.canonical import canonicalize, paper_canonicalize

__all__ = [
    "SuiteEntry",
    "TestSuite",
    "test_to_dict",
    "test_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "entry_to_dict",
    "entry_from_dict",
]


@dataclass
class SuiteEntry:
    """One canonical test in a suite."""

    test: LitmusTest
    witness: Outcome
    axioms: set[str] = field(default_factory=set)

    @property
    def num_events(self) -> int:
        return self.test.num_events

    def pretty(self) -> str:
        lines = [self.test.pretty()]
        lines.append(f"Forbidden: {self.witness.pretty(self.test)}")
        lines.append(f"Minimal for: {', '.join(sorted(self.axioms))}")
        return "\n".join(lines)


class TestSuite:
    """A deduplicated set of minimal tests for one model.

    ``exact_symmetry=False`` switches to the paper's greedy canonicalizer
    (used by the symmetry-reduction ablation bench).
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        model_name: str,
        label: str = "union",
        exact_symmetry: bool = True,
    ):
        self.model_name = model_name
        self.label = label
        self.exact_symmetry = exact_symmetry
        self._entries: dict[LitmusTest, SuiteEntry] = {}

    # -- population ---------------------------------------------------------

    def add(
        self, test: LitmusTest, witness: Outcome, axioms: Iterable[str]
    ) -> bool:
        """Add a test (canonicalizing first); returns True if new.

        When the test is already present (symmetric to an existing
        entry), the axiom sets merge.
        """
        if self.exact_symmetry:
            canon, event_map, addr_map = canonicalize(test)
            canon_witness = remap_outcome(witness, event_map, addr_map)
        else:
            canon = paper_canonicalize(test)
            canon_witness = witness  # greedy mode keeps the raw witness
        existing = self._entries.get(canon)
        if existing is not None:
            existing.axioms.update(axioms)
            return False
        self._entries[canon] = SuiteEntry(canon, canon_witness, set(axioms))
        return True

    def merge(self, other: TestSuite) -> None:
        for entry in other:
            self.add(entry.test, entry.witness, entry.axioms)

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[SuiteEntry]:
        return iter(self._entries.values())

    def __contains__(self, test: LitmusTest) -> bool:
        if self.exact_symmetry:
            return canonicalize(test)[0] in self._entries
        return paper_canonicalize(test) in self._entries

    def tests(self) -> list[LitmusTest]:
        return list(self._entries.keys())

    def by_size(self) -> dict[int, list[SuiteEntry]]:
        out: dict[int, list[SuiteEntry]] = {}
        for entry in self:
            out.setdefault(entry.num_events, []).append(entry)
        return dict(sorted(out.items()))

    def count_by_size(self) -> dict[int, int]:
        return {size: len(v) for size, v in self.by_size().items()}

    def for_axiom(self, axiom: str) -> list[SuiteEntry]:
        return [e for e in self if axiom in e.axioms]

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> dict:
        """The suite schema: entry-by-entry in insertion order, so
        :meth:`from_dict` rebuilds an equal suite in the same order."""
        payload: dict = {"model": self.model_name, "label": self.label}
        if not self.exact_symmetry:
            # written only when set, so exact suites keep their bytes
            payload["exact_symmetry"] = False
        payload["tests"] = [entry_to_dict(e) for e in self]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> TestSuite:
        suite = cls(
            payload["model"],
            payload.get("label", "union"),
            payload.get("exact_symmetry", True),
        )
        for item in payload["tests"]:
            test, witness, axioms = entry_from_dict(item)
            suite.add(test, witness, axioms)
        return suite

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> TestSuite:
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    def save_litmus_dir(self, directory) -> list[str]:
        """Write one ``.litmus`` text file per test (the paper's "fed
        into any existing testing infrastructure" output).  Returns the
        file names written."""
        import os

        from repro.litmus.format import format_test

        os.makedirs(directory, exist_ok=True)
        written = []
        for i, entry in enumerate(
            sorted(self, key=lambda e: (e.num_events, repr(e.test)))
        ):
            name = f"{self.model_name}_{self.label}_{i:04d}.litmus"
            path = os.path.join(directory, name)
            with open(path, "w") as fh:
                fh.write(f"# minimal for: {', '.join(sorted(entry.axioms))}\n")
                fh.write(format_test(entry.test, entry.witness))
            written.append(name)
        return written

    @classmethod
    def load(cls, path) -> TestSuite:
        with open(path) as fh:
            return cls.from_json(fh.read())

    def __repr__(self) -> str:
        return (
            f"TestSuite<{self.model_name}/{self.label}, {len(self)} tests>"
        )


# -- JSON helpers ------------------------------------------------------------------


def _instruction_to_dict(inst: Instruction) -> dict:
    out: dict = {"kind": inst.kind.value}
    if inst.address is not None:
        out["addr"] = inst.address
    if inst.order is not Order.PLAIN:
        out["order"] = inst.order.name
    if inst.fence is not None:
        out["fence"] = inst.fence.name
    if inst.value is not None:
        out["value"] = inst.value
    if inst.scope is not None:
        out["scope"] = inst.scope.name
    return out


def _instruction_from_dict(item: dict) -> Instruction:
    return Instruction(
        kind=EventKind(item["kind"]),
        address=item.get("addr"),
        order=Order[item["order"]] if "order" in item else Order.PLAIN,
        fence=FenceKind[item["fence"]] if "fence" in item else None,
        value=item.get("value"),
        scope=Scope[item["scope"]] if "scope" in item else None,
    )


def test_to_dict(test: LitmusTest) -> dict:
    """JSON-serializable structural form of a test (the suite schema's
    test fragment; also the wire/checkpoint format of :mod:`repro.exec`)."""
    out: dict = {
        "threads": [
            [_instruction_to_dict(i) for i in thread]
            for thread in test.threads
        ],
        "rmw": sorted(list(p) for p in test.rmw),
        "deps": sorted(
            [d.src, d.dst, d.kind.name] for d in test.deps
        ),
        "scopes": list(test.scopes) if test.scopes is not None else None,
    }
    if test.addr_map is not None:
        # omitted when absent, so consistency-only suite files are
        # byte-identical to the pre-transistency schema
        out["addr_map"] = [list(p) for p in test.addr_map]
    return out


def test_from_dict(item: dict) -> LitmusTest:
    threads = tuple(
        tuple(_instruction_from_dict(i) for i in thread)
        for thread in item["threads"]
    )
    rmw = frozenset((a, b) for a, b in item.get("rmw", []))
    deps = frozenset(
        Dep(s, d, DepKind[k]) for s, d, k in item.get("deps", [])
    )
    scopes = item.get("scopes")
    addr_map = item.get("addr_map")
    return LitmusTest(
        threads,
        rmw,
        deps,
        tuple(scopes) if scopes is not None else None,
        None,
        tuple((v, p) for v, p in addr_map) if addr_map else None,
    )


def outcome_to_dict(outcome: Outcome) -> dict:
    return {
        "rf": [list(p) for p in outcome.rf_sources],
        "finals": [list(p) for p in outcome.finals],
    }


def outcome_from_dict(item: dict) -> Outcome:
    return Outcome(
        tuple((r, s) for r, s in item["rf"]),
        tuple((a, w) for a, w in item["finals"]),
    )


def entry_to_dict(entry: SuiteEntry) -> dict:
    """The suite schema's entry fragment (test + witness + axioms) —
    also the wire form :mod:`repro.service` ships results in."""
    out = test_to_dict(entry.test)
    out["witness"] = outcome_to_dict(entry.witness)
    out["axioms"] = sorted(entry.axioms)
    return out


def entry_from_dict(item: dict) -> tuple[LitmusTest, Outcome, set[str]]:
    """Inverse of :func:`entry_to_dict`, as ``TestSuite.add`` arguments."""
    test = test_from_dict(item)
    witness = outcome_from_dict(item["witness"])
    return test, witness, set(item.get("axioms", []))
