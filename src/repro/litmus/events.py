"""Instruction-level vocabulary for litmus tests.

The paper synthesizes tests over a per-model *instruction vocabulary*:
reads and writes carry a memory-order annotation (paper Table 1 and the
ARMv8/SCC acquire-release opcodes), fences come in model-specific
strengths, and dependencies (address / data / control) are explicit edges
in the test rather than properties of register dataflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "EventKind",
    "VMEM_KINDS",
    "Order",
    "FenceKind",
    "DepKind",
    "Scope",
    "Instruction",
    "read",
    "write",
    "fence",
    "ptwalk",
    "remap",
    "dirty",
]


class EventKind(enum.Enum):
    """The event classes of the paper's Alloy model (Fig. 4), plus the
    TransForm transistency extensions (PAPERS.md).

    ``PTWALK`` is a hardware page-table walk: it *reads* the page-table
    entry's location.  ``REMAP`` is a mapping update (e.g. by the OS): it
    *writes* the entry's location.  ``DIRTY`` is a hardware dirty-bit
    update, also a write to the entry's location.  The three transistency
    kinds participate in ``rf``/``co``/``fr`` exactly like the base kinds
    they refine; models distinguish them through the event-class masks.
    """

    READ = "R"
    WRITE = "W"
    FENCE = "F"
    PTWALK = "PTW"
    REMAP = "M"
    DIRTY = "D"


#: Transistency event kinds — only generated when a model's vocabulary
#: opts in (:attr:`repro.models.base.Vocabulary.vmem_kinds`), so tests
#: over the base kinds are untouched by the extension.
VMEM_KINDS: frozenset[EventKind] = frozenset(
    {EventKind.PTWALK, EventKind.REMAP, EventKind.DIRTY}
)

#: The read-like and write-like kinds (they drive rf/co/fr), compared by
#: identity: a set lookup would run the Python-level ``Enum.__hash__``.
_READ, _PTWALK = EventKind.READ, EventKind.PTWALK
_WRITE, _REMAP, _DIRTY = EventKind.WRITE, EventKind.REMAP, EventKind.DIRTY


class Order(enum.IntEnum):
    """Memory-order annotations, weakest to strongest.

    ``PLAIN`` is a non-atomic access (or an ISA access with no annotation);
    ``RLX`` is a C11 relaxed *atomic* access.  The integer ordering mirrors
    the demotion lattice of the paper's Table 1, which DMO walks downward.
    """

    PLAIN = 0
    RLX = 1
    CON = 2
    ACQ = 3
    REL = 4
    ACQ_REL = 5
    SC = 6

    @property
    def is_acquire(self) -> bool:
        return self in (Order.ACQ, Order.ACQ_REL, Order.SC, Order.CON)

    @property
    def is_release(self) -> bool:
        return self in (Order.REL, Order.ACQ_REL, Order.SC)

    @property
    def is_atomic(self) -> bool:
        """True for any C11 atomic access (everything except PLAIN)."""
        return self is not Order.PLAIN


class FenceKind(enum.Enum):
    """Fence strengths across the modelled ISAs and languages."""

    MFENCE = "mfence"        # x86
    SYNC = "sync"            # Power heavyweight / ARMv7 dmb
    LWSYNC = "lwsync"        # Power lightweight
    ISYNC = "isync"          # Power instruction fence (ARMv7 isb)
    FENCE_ACQ = "fence.acq"  # C11 atomic_thread_fence(acquire)
    FENCE_REL = "fence.rel"  # C11 atomic_thread_fence(release)
    FENCE_ACQ_REL = "fence.acq_rel"  # C11 / SCC acquire-release fence
    FENCE_SC = "fence.sc"    # C11 seq_cst fence / SCC FenceSC


class DepKind(enum.Enum):
    """Dependency edge kinds (paper §3.2, RD relaxation)."""

    ADDR = "addr"
    DATA = "data"
    CTRL = "ctrl"
    CTRLISYNC = "ctrlisync"  # Power ctrl+isync / ARM ctrl+isb


class Scope(enum.IntEnum):
    """Synchronization scopes for scoped models (OpenCL/HSA-style).

    Wider scopes are stronger; DS (Demote Scope) steps downward.
    """

    WORKGROUP = 1
    DEVICE = 2
    SYSTEM = 3


@dataclass(frozen=True, order=True)
class Instruction:
    """A single static instruction slot in a litmus test thread.

    ``address`` and ``value`` are ``None`` when inapplicable (fences never
    have them; a write's value may be left ``None`` to be auto-assigned by
    :class:`~repro.litmus.test.LitmusTest` so that every write to an
    address stores a distinct value).  ``scope`` is only meaningful for
    scoped models and stays ``None`` elsewhere.
    """

    kind: EventKind
    address: int | None = None
    order: Order = Order.PLAIN
    fence: FenceKind | None = None
    value: int | None = None
    scope: Scope | None = None

    def __post_init__(self) -> None:
        if self.kind is EventKind.FENCE:
            if self.fence is None:
                raise ValueError("fence instruction requires a fence kind")
            if self.address is not None or self.value is not None:
                raise ValueError("fences carry no address or value")
        else:
            if self.address is None:
                raise ValueError(f"{self.kind.value} requires an address")
            if self.fence is not None:
                raise ValueError("memory accesses carry no fence kind")
            if self.is_read and self.value is not None:
                raise ValueError("reads carry no static value")

    @property
    def is_read(self) -> bool:
        kind = self.kind
        return kind is _READ or kind is _PTWALK

    @property
    def is_write(self) -> bool:
        kind = self.kind
        return kind is _WRITE or kind is _REMAP or kind is _DIRTY

    @property
    def is_fence(self) -> bool:
        return self.kind is EventKind.FENCE

    @property
    def is_vmem(self) -> bool:
        """True for the TransForm transistency kinds."""
        return self.kind in VMEM_KINDS

    def with_order(self, order: Order) -> Instruction:
        """Copy of this instruction with a different memory order."""
        return Instruction(
            self.kind, self.address, order, self.fence, self.value, self.scope
        )

    def with_fence(self, kind: FenceKind) -> Instruction:
        """Copy of this fence with a different strength."""
        if not self.is_fence:
            raise ValueError("with_fence applies only to fences")
        return Instruction(self.kind, None, self.order, kind, None, self.scope)

    def with_scope(self, scope: Scope | None) -> Instruction:
        """Copy of this instruction with a different scope annotation."""
        return Instruction(
            self.kind, self.address, self.order, self.fence, self.value, scope
        )

    def mnemonic(self, addr_names: dict[int, str] | None = None) -> str:
        """Human-readable rendering, e.g. ``St.release [x], 1``."""
        suffix = "" if self.order is Order.PLAIN else f".{self.order.name.lower()}"
        if self.scope is not None:
            suffix += f".{self.scope.name.lower()}"
        if self.is_fence:
            assert self.fence is not None
            return f"Fence.{self.fence.value}{suffix}"
        name = (
            addr_names[self.address]
            if addr_names is not None and self.address in addr_names
            else f"a{self.address}"
        )
        if self.is_read:
            op = "Ptw" if self.kind is EventKind.PTWALK else "Ld"
            return f"{op}{suffix} [{name}]"
        val = "?" if self.value is None else str(self.value)
        op = {
            EventKind.REMAP: "Map",
            EventKind.DIRTY: "Drt",
        }.get(self.kind, "St")
        return f"{op}{suffix} [{name}], {val}"


def read(
    address: int, order: Order = Order.PLAIN, scope: Scope | None = None
) -> Instruction:
    """Convenience constructor for a load."""
    return Instruction(EventKind.READ, address, order, scope=scope)


def write(
    address: int,
    value: int | None = None,
    order: Order = Order.PLAIN,
    scope: Scope | None = None,
) -> Instruction:
    """Convenience constructor for a store."""
    return Instruction(EventKind.WRITE, address, order, value=value, scope=scope)


def fence(kind: FenceKind, scope: Scope | None = None) -> Instruction:
    """Convenience constructor for a fence."""
    return Instruction(EventKind.FENCE, fence=kind, scope=scope)


def ptwalk(address: int, order: Order = Order.PLAIN) -> Instruction:
    """A page-table walk: a read of the translation entry's location."""
    return Instruction(EventKind.PTWALK, address, order)


def remap(
    address: int, value: int | None = None, order: Order = Order.PLAIN
) -> Instruction:
    """A mapping update: a write to the translation entry's location."""
    return Instruction(EventKind.REMAP, address, order, value=value)


def dirty(
    address: int, value: int | None = None, order: Order = Order.PLAIN
) -> Instruction:
    """A hardware dirty-bit update: a write to the entry's location."""
    return Instruction(EventKind.DIRTY, address, order, value=value)
