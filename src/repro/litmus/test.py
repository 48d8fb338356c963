"""The static litmus test representation.

A litmus test is a small multithreaded program plus the structural
relations the paper's Alloy model declares statically: program order
(implicit in the per-thread instruction sequences), the ``rmw`` pairing of
load/store halves of atomic read-modify-writes, dependency edges, and —
for scoped models — a thread-to-scope-group assignment.

Events are identified by a *global event id* assigned in thread-major
order (all of thread 0's instructions, then thread 1's, ...).  Event ids
are the universe over which :class:`repro.semantics.rel.Rel` relations are
built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.litmus.events import DepKind, Instruction
from repro.litmus.memo import derived

__all__ = ["Dep", "LitmusTest"]


@dataclass(frozen=True, order=True)
class Dep:
    """A dependency edge from a read to a program-order-later event."""

    src: int
    dst: int
    kind: DepKind


@dataclass(frozen=True)
class LitmusTest:
    """An immutable litmus test.

    Attributes:
        threads: per-thread instruction sequences; thread ``t``'s
            instructions occupy a contiguous block of event ids.
        rmw: pairs ``(read_eid, write_eid)`` forming atomic RMWs.  The two
            events must be adjacent in the same thread and access the same
            address (paper Fig. 4: ``rmw in po - po.po``).
        deps: dependency edges; sources must be reads, targets must be
            program-order-later events in the same thread.
        scopes: optional thread -> scope-group assignment for scoped
            models; ``None`` means the test is unscoped.
        name: optional human-readable name (e.g. ``"MP"``).
        addr_map: optional virtual-to-physical aliasing layer (TransForm
            enhanced tests): sorted ``(virtual, physical)`` pairs declaring
            that the virtual address maps onto the physical address's
            location.  Unmapped addresses are their own location (identity),
            so ``None`` — the default for every consistency-only test — is
            exactly the pre-transistency semantics.
    """

    threads: tuple[tuple[Instruction, ...], ...]
    rmw: frozenset[tuple[int, int]] = frozenset()
    deps: frozenset[Dep] = frozenset()
    scopes: tuple[int, ...] | None = None
    name: str | None = field(default=None, compare=False)
    addr_map: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if not self.threads or any(not t for t in self.threads):
            raise ValueError("a litmus test needs at least one non-empty thread")
        if self.scopes is not None and len(self.scopes) != len(self.threads):
            raise ValueError("scopes must assign a group to every thread")
        if self.addr_map is not None:
            self._check_addr_map()
        n = self.num_events
        for r, w in self.rmw:
            if not (0 <= r < n and 0 <= w < n):
                raise ValueError(f"rmw pair ({r},{w}) out of range")
            if not self.instruction(r).is_read or not self.instruction(w).is_write:
                raise ValueError("rmw pairs are (read, write)")
            if self.tid_of(r) != self.tid_of(w) or w != r + 1:
                raise ValueError("rmw halves must be po-adjacent in one thread")
            if self.instruction(r).address != self.instruction(w).address:
                raise ValueError("rmw halves must access the same address")
        for dep in self.deps:
            if not (0 <= dep.src < n and 0 <= dep.dst < n):
                raise ValueError(f"dep {dep} out of range")
            if not self.instruction(dep.src).is_read:
                raise ValueError("dependencies originate from reads")
            if self.tid_of(dep.src) != self.tid_of(dep.dst) or dep.dst <= dep.src:
                raise ValueError("dependencies target po-later events, same thread")
            if dep.kind is DepKind.DATA and not self.instruction(dep.dst).is_write:
                raise ValueError("data dependencies target writes")
            if dep.kind is DepKind.ADDR and self.instruction(dep.dst).is_fence:
                raise ValueError("address dependencies target memory accesses")

    def __hash__(self) -> int:
        # Oracle caches, StaticRelations.of and the canonical seen-set all
        # key on tests, and hashing one walks every Instruction (and its
        # Enum fields), so the hash is computed once.  Enum hashes are
        # salted per interpreter, so it is kept out of the pickled state.
        value = self.__dict__.get("_hash")
        if value is None:
            value = self.__dict__["_hash"] = hash(
                (self.threads, self.rmw, self.deps, self.scopes, self.addr_map)
            )
        return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def _check_addr_map(self) -> None:
        assert self.addr_map is not None
        used = {
            inst.address
            for t in self.threads
            for inst in t
            if inst.address is not None
        }
        if list(self.addr_map) != sorted(set(self.addr_map)):
            raise ValueError("addr_map entries must be sorted and unique")
        keys = {v for v, _ in self.addr_map}
        if len(keys) != len(self.addr_map):
            raise ValueError("addr_map maps each virtual address once")
        for v, p in self.addr_map:
            if v == p:
                raise ValueError(f"addr_map entry {v}->{p} is an identity")
            if v not in used or p not in used:
                raise ValueError(
                    f"addr_map entry {v}->{p} names an address the test "
                    "never accesses"
                )
            if p in keys:
                raise ValueError(
                    f"addr_map entry {v}->{p} chains through another "
                    "mapped address; map directly to the representative"
                )

    # -- event geometry ------------------------------------------------------

    @derived
    def num_events(self) -> int:
        return sum(len(t) for t in self.threads)

    @derived
    def _thread_starts(self) -> tuple[int, ...]:
        starts = []
        acc = 0
        for t in self.threads:
            starts.append(acc)
            acc += len(t)
        return tuple(starts)

    def eid(self, tid: int, index: int) -> int:
        """Global event id of instruction ``index`` in thread ``tid``."""
        return self._thread_starts[tid] + index

    def tid_of(self, eid: int) -> int:
        """Thread owning the event."""
        if not 0 <= eid < self.num_events:
            raise ValueError(f"event id {eid} out of range")
        starts = self._thread_starts
        for tid in range(len(starts) - 1, -1, -1):
            if eid >= starts[tid]:
                return tid
        raise AssertionError("unreachable")

    def index_of(self, eid: int) -> int:
        """Position of the event within its thread."""
        return eid - self._thread_starts[self.tid_of(eid)]

    @derived
    def instructions(self) -> tuple[Instruction, ...]:
        """All instructions in event-id order."""
        return tuple(inst for t in self.threads for inst in t)

    def instruction(self, eid: int) -> Instruction:
        return self.instructions[eid]

    # -- classification masks (bitmask over event ids) ------------------------

    @derived
    def reads_mask(self) -> int:
        return self._mask(lambda i: i.is_read)

    @derived
    def writes_mask(self) -> int:
        return self._mask(lambda i: i.is_write)

    @derived
    def fences_mask(self) -> int:
        return self._mask(lambda i: i.is_fence)

    def _mask(self, pred) -> int:
        mask = 0
        for e, inst in enumerate(self.instructions):
            if pred(inst):
                mask |= 1 << e
        return mask

    def mask_of(self, pred) -> int:
        """Bitmask of events whose instruction satisfies ``pred``."""
        return self._mask(pred)

    @derived
    def read_eids(self) -> tuple[int, ...]:
        return tuple(
            e for e, inst in enumerate(self.instructions) if inst.is_read
        )

    @derived
    def write_eids(self) -> tuple[int, ...]:
        return tuple(
            e for e, inst in enumerate(self.instructions) if inst.is_write
        )

    # -- addresses and values -------------------------------------------------

    @derived
    def addresses(self) -> tuple[int, ...]:
        """Distinct addresses in first-use order."""
        seen: list[int] = []
        for inst in self.instructions:
            if inst.address is not None and inst.address not in seen:
                seen.append(inst.address)
        return tuple(seen)

    # -- locations (virtual -> physical aliasing) -----------------------------

    @derived
    def _location_map(self) -> dict[int, int]:
        return dict(self.addr_map) if self.addr_map is not None else {}

    def location_of(self, address: int) -> int:
        """Physical location of an address (identity when unmapped)."""
        return self._location_map.get(address, address)

    @derived
    def locations(self) -> tuple[int, ...]:
        """Distinct physical locations in first-use order.

        Equal to :attr:`addresses` for every test without an aliasing
        layer; coherence orders and final-state constraints are keyed by
        location, never by (virtual) address.
        """
        seen: list[int] = []
        for addr in self.addresses:
            loc = self.location_of(addr)
            if loc not in seen:
                seen.append(loc)
        return tuple(seen)

    def aliases_of(self, address: int) -> tuple[int, ...]:
        """All addresses sharing ``address``'s location, first-use order."""
        loc = self.location_of(address)
        return tuple(
            a for a in self.addresses if self.location_of(a) == loc
        )

    def writes_to(self, address: int) -> tuple[int, ...]:
        """Event ids of writes to ``address``'s *location*, in event-id
        order (aliased addresses share one write set)."""
        loc = self.location_of(address)
        return tuple(
            e
            for e, inst in enumerate(self.instructions)
            if inst.is_write
            and inst.address is not None
            and self.location_of(inst.address) == loc
        )

    def accesses_to(self, address: int) -> tuple[int, ...]:
        """Event ids of all accesses to ``address``'s location."""
        loc = self.location_of(address)
        return tuple(
            e
            for e, inst in enumerate(self.instructions)
            if inst.address is not None
            and self.location_of(inst.address) == loc
        )

    @derived
    def write_values(self) -> dict[int, int]:
        """Value stored by each write event.

        Writes with an explicit value keep it; writes without one are
        auto-assigned ``1, 2, ...`` per *location* in event-id order,
        skipping values already claimed explicitly at that location, so
        that every write to a location stores a distinct non-zero value
        (the paper's convention — distinct values make ``rf`` recoverable
        from the outcome, aliased addresses included).
        """
        values: dict[int, int] = {}
        for addr in self.locations:
            explicit = {
                self.instructions[e].value
                for e in self.writes_to(addr)
                if self.instructions[e].value is not None
            }
            next_val = 1
            for e in self.writes_to(addr):
                inst = self.instructions[e]
                if inst.value is not None:
                    values[e] = inst.value
                else:
                    while next_val in explicit:
                        next_val += 1
                    values[e] = next_val
                    explicit.add(next_val)
        return values

    # -- rmw / dep lookups -----------------------------------------------------

    @derived
    def rmw_reads(self) -> frozenset[int]:
        return frozenset(r for r, _ in self.rmw)

    @derived
    def rmw_writes(self) -> frozenset[int]:
        return frozenset(w for _, w in self.rmw)

    def deps_of_kind(self, *kinds: DepKind) -> tuple[Dep, ...]:
        return tuple(sorted(d for d in self.deps if d.kind in kinds))

    # -- rendering ---------------------------------------------------------------

    def pretty(self, addr_names: dict[int, str] | None = None) -> str:
        """Multi-column rendering in the style of the paper's figures."""
        if addr_names is None:
            addr_names = {a: chr(ord("x") + i) for i, a in enumerate(self.addresses)}
        cols = []
        for tid, thread in enumerate(self.threads):
            lines = [f"Thread {tid}"]
            for idx, inst in enumerate(thread):
                eid = self.eid(tid, idx)
                if inst.is_write and inst.value is None:
                    inst = Instruction(
                        inst.kind,
                        inst.address,
                        inst.order,
                        inst.fence,
                        self.write_values[eid],
                        inst.scope,
                    )
                text = inst.mnemonic(addr_names)
                if inst.is_read:
                    text += f" -> r{eid}"
                notes = []
                if eid in self.rmw_reads or eid in self.rmw_writes:
                    notes.append("rmw")
                for dep in sorted(self.deps):
                    if dep.src == eid:
                        notes.append(f"{dep.kind.value}->e{dep.dst}")
                if notes:
                    text += f"  [{','.join(notes)}]"
                lines.append(text)
            cols.append(lines)
        height = max(len(c) for c in cols)
        widths = [max(len(line) for line in c) for c in cols]
        rows = []
        for i in range(height):
            cells = [
                (c[i] if i < len(c) else "").ljust(w) for c, w in zip(cols, widths)
            ]
            rows.append(" | ".join(cells).rstrip())
        header = f"=== {self.name} ===\n" if self.name else ""
        return header + "\n".join(rows)

    def with_name(self, name: str) -> LitmusTest:
        """Copy of this test carrying a name."""
        return LitmusTest(
            self.threads, self.rmw, self.deps, self.scopes, name,
            self.addr_map,
        )

    def __repr__(self) -> str:
        label = self.name or f"{len(self.threads)}thr/{self.num_events}ev"
        return f"LitmusTest<{label}>"
