"""Dynamic executions and observable outcomes of litmus tests.

The paper (§4.2) distinguishes three things:

* a *litmus test* — the static program (:class:`~repro.litmus.test.LitmusTest`);
* an *outcome* — what is directly observable after one run: the value each
  load returned plus the final value of each memory location;
* an *execution* — the outcome together with the auxiliary relations
  (notably the full coherence order ``co`` and, for models like SCC, the
  ``sc`` total order) that cannot be observed directly.

Because every write to an address stores a distinct value, a load's return
value identifies its ``rf`` source, and an address's final value identifies
its ``co``-maximal write.  Outcomes are therefore represented *by event
identity* (which write sourced each read, which write is coherence-final)
rather than by raw integers.  Event identity survives instruction
relaxations through an explicit event map, which is exactly what the
paper's outcome-projection step needs (Fig. 3: "matches (r1=1, r2=0) with
r1 removed").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.litmus.memo import derived
from repro.litmus.test import LitmusTest

__all__ = [
    "Execution",
    "Outcome",
    "project_outcome",
    "prune_outcome",
    "remap_outcome",
]


@dataclass(frozen=True)
class Outcome:
    """The observable footprint of one execution.

    Attributes:
        rf_sources: for each read, ``(read_eid, write_eid_or_None)`` — the
            write the read returned, or ``None`` for the initial value.
        finals: for each location, ``(location, write_eid_or_None)`` — the
            coherence-final write, or ``None`` when no write touches the
            location (final value is the initial 0).  Locations equal
            addresses for tests without an aliasing layer.
    """

    rf_sources: tuple[tuple[int, int | None], ...]
    finals: tuple[tuple[int, int | None], ...]

    def read_value(self, test: LitmusTest, read_eid: int) -> int:
        """The integer value the read returned in this outcome."""
        for eid, src in self.rf_sources:
            if eid == read_eid:
                return 0 if src is None else test.write_values[src]
        raise KeyError(f"event {read_eid} is not a read of this outcome")

    def final_value(self, test: LitmusTest, address: int) -> int:
        """The final integer value of ``address`` in this outcome."""
        loc = test.location_of(address)
        for addr, w in self.finals:
            if addr == loc:
                return 0 if w is None else test.write_values[w]
        raise KeyError(f"address {address} not in this outcome")

    def pretty(self, test: LitmusTest) -> str:
        """Render in the paper's ``(r0=1, r1=0, [x]=2)`` style."""
        addr_names = {
            a: chr(ord("x") + i) for i, a in enumerate(test.addresses)
        }
        parts = [
            f"r{eid}={self.read_value(test, eid)}" for eid, _ in self.rf_sources
        ]
        parts += [
            f"[{addr_names.get(a, a)}]={self.final_value(test, a)}"
            for a, _ in self.finals
        ]
        return "(" + ", ".join(parts) + ")"


@dataclass(frozen=True)
class Execution:
    """One candidate execution of a litmus test.

    Attributes:
        test: the litmus test being executed.
        rf: ``(read_eid, write_eid_or_None)`` per read, in event-id order.
            ``None`` means the read returned the initial value.
        co: one tuple per location (in :attr:`LitmusTest.locations` order)
            giving that location's writes in coherence order — aliased
            addresses share a single order.
        sc: total order over ``FenceSC`` events for models with an ``sc``
            relation (SCC, C11); empty for other models.
    """

    test: LitmusTest
    rf: tuple[tuple[int, int | None], ...]
    co: tuple[tuple[int, ...], ...]
    sc: tuple[int, ...] = ()

    @derived
    def rf_map(self) -> dict[int, int | None]:
        """Read eid -> sourcing write eid (or None for initial)."""
        return dict(self.rf)

    @derived
    def co_position(self) -> dict[int, int]:
        """Write eid -> its position in its address's coherence order."""
        return {w: i for order in self.co for i, w in enumerate(order)}

    @derived
    def outcome(self) -> Outcome:
        """Project this execution onto its observable outcome."""
        finals = tuple(
            (loc, order[-1] if order else None)
            for loc, order in zip(self.test.locations, self.co)
        )
        return Outcome(rf_sources=self.rf, finals=finals)

    def read_value(self, read_eid: int) -> int:
        src = self.rf_map[read_eid]
        return 0 if src is None else self.test.write_values[src]

    def pretty(self) -> str:
        return self.outcome.pretty(self.test)


def project_outcome(
    outcome: Outcome, event_map: dict[int, int | None]
) -> Outcome:
    """Project an outcome through a relaxation's event map.

    ``event_map`` sends each original event id to its id in the relaxed
    test, or ``None`` if the relaxation removed the event.  Constraints
    that mention a removed event are dropped, per the paper's treatment:

    * a removed read drops its entry entirely (Fig. 3b/3c);
    * a removed ``rf`` source leaves its read *unconstrained* (Fig. 3d and
      the CoRW discussion in §4.3), so the entry is dropped rather than
      retargeted;
    * a removed coherence-final write drops the final-value constraint for
      that address.
    """
    rf_sources = []
    for read_eid, src in outcome.rf_sources:
        new_read = event_map.get(read_eid)
        if new_read is None:
            continue
        if src is None:
            rf_sources.append((new_read, None))
            continue
        new_src = event_map.get(src)
        if new_src is None:
            continue  # source removed: read becomes unconstrained
        rf_sources.append((new_read, new_src))
    finals = []
    for addr, w in outcome.finals:
        if w is None:
            finals.append((addr, None))
            continue
        new_w = event_map.get(w)
        if new_w is None:
            continue  # final write removed: constraint vanishes
        finals.append((addr, new_w))
    return Outcome(tuple(rf_sources), tuple(finals))


def prune_outcome(test: LitmusTest, outcome: Outcome) -> Outcome:
    """Drop constraints a relaxed test can no longer express.

    Projection through an event map keeps every constraint whose events
    survive, but a relaxation that also rewrites the *address-map* layer
    (e.g. un-aliasing a virtual address) can leave structurally
    ill-formed constraints behind: an ``rf`` edge whose surviving source
    now writes a different location than its read, or a final-value
    constraint keyed by a location the relaxed test no longer merges.
    Such constraints are unobservable by construction, so they are
    dropped — the read (or location) becomes unconstrained, mirroring
    the removed-source rule of :func:`project_outcome`.  For relaxations
    that keep the address map intact this is the identity.
    """
    rf_sources = []
    for read_eid, src in outcome.rf_sources:
        if src is not None:
            r = test.instruction(read_eid)
            w = test.instruction(src)
            if (
                not w.is_write
                or not r.is_read
                or test.location_of(w.address) != test.location_of(r.address)
            ):
                continue  # source no longer writes the read's location
        rf_sources.append((read_eid, src))
    locs = set(test.locations)
    finals: list[tuple[int, int | None]] = []
    for a, w in outcome.finals:
        loc = test.location_of(a)
        if w is not None:
            inst = test.instruction(w)
            if (
                loc not in locs
                or not inst.is_write
                or test.location_of(inst.address) != loc
            ):
                continue  # constraint names a write of some other location
        if (loc, w) not in finals:
            finals.append((loc, w))
    return Outcome(tuple(rf_sources), tuple(finals))


def remap_outcome(
    outcome: Outcome,
    event_map: dict[int, int],
    addr_map: dict[int, int],
) -> Outcome:
    """Rewrite an outcome through a *total* renaming (canonicalization)."""
    rf_sources = tuple(
        sorted(
            (event_map[r], None if s is None else event_map[s])
            for r, s in outcome.rf_sources
        )
    )
    finals = tuple(
        sorted(
            (addr_map[a], None if w is None else event_map[w])
            for a, w in outcome.finals
        )
    )
    return Outcome(rf_sources, finals)
