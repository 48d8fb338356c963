"""Derived relational view of a concrete execution.

Memory models consume a :class:`RelationView`, which exposes every base
and derived relation of the axiomatic literature (po, po_loc, rf, co, fr,
internal/external splits, dependency relations, fence-closure helpers) as
:class:`~repro.semantics.rel.Rel` values over the test's event ids.  The
definitions follow the paper's Fig. 4 Alloy model and Alglave et al.'s
"herding cats" conventions.

Relations that depend only on the *test* (program order, same-address,
dependency edges, fence helpers, event-class masks) are computed once per
test in a shared :class:`StaticRelations` and reused by every execution's
view — the synthesis inner loop visits hundreds of executions per test,
so this sharing dominates throughput.

Relations that depend on the *execution* are computed at most once per
view by :class:`repro.litmus.memo.derived`, which a model's own derived
relations (Power's ``ppo``, ``hb`` and ``prop``, say) use too, so that
every axiom of one execution reads the same value.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.litmus.events import DepKind, EventKind, FenceKind, Order
from repro.litmus.execution import Execution
from repro.litmus.memo import derived
from repro.litmus.test import LitmusTest
from repro.semantics.rel import Rel

__all__ = ["StaticRelations", "RelationView"]


class StaticRelations:
    """Execution-independent relations of one litmus test."""

    _cache: OrderedDict[LitmusTest, "StaticRelations"] = OrderedDict()
    _cache_max = 16384

    def __init__(self, test: LitmusTest):
        self.test = test
        self.n = test.num_events
        self._fence_rels: dict[tuple[FenceKind, ...], Rel] = {}

    @classmethod
    def of(cls, test: LitmusTest) -> StaticRelations:
        cached = cls._cache.get(test)
        if cached is not None:
            return cached
        static = cls(test)
        cls._cache[test] = static
        if len(cls._cache) > cls._cache_max:
            cls._cache.popitem(last=False)
        return static

    # -- event class masks -------------------------------------------------------

    @property
    def reads(self) -> int:
        return self.test.reads_mask

    @property
    def writes(self) -> int:
        return self.test.writes_mask

    @property
    def fences(self) -> int:
        return self.test.fences_mask

    @derived
    def acquires(self) -> int:
        """Reads annotated acquire-or-stronger."""
        return self.test.mask_of(lambda i: i.is_read and i.order.is_acquire)

    @derived
    def releases(self) -> int:
        """Writes annotated release-or-stronger."""
        return self.test.mask_of(lambda i: i.is_write and i.order.is_release)

    @derived
    def vmem(self) -> int:
        """Transistency events (ptwalk / remap / dirty-bit)."""
        return self.test.mask_of(lambda i: i.is_vmem)

    @derived
    def ptwalks(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.PTWALK)

    @derived
    def remaps(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.REMAP)

    @derived
    def dirties(self) -> int:
        return self.test.mask_of(lambda i: i.kind is EventKind.DIRTY)

    # -- structural relations ------------------------------------------------------

    @derived
    def po(self) -> Rel:
        """Program order: each event before all later events of its thread."""
        pairs = []
        for tid, thread in enumerate(self.test.threads):
            for i in range(len(thread)):
                for j in range(i + 1, len(thread)):
                    pairs.append((self.test.eid(tid, i), self.test.eid(tid, j)))
        return Rel.from_pairs(self.n, pairs)

    @derived
    def po_imm(self) -> Rel:
        """Immediate program order (``po - po.po``)."""
        return self.po - self.po.join(self.po)

    @derived
    def loc(self) -> Rel:
        """Same-location relation over memory accesses (aliased virtual
        addresses share a location, so they are ``loc``-related)."""
        pairs = []
        for addr in self.test.locations:
            events = self.test.accesses_to(addr)
            pairs += [(a, b) for a in events for b in events]
        return Rel.from_pairs(self.n, pairs)

    @derived
    def po_loc(self) -> Rel:
        return self.po & self.loc

    @derived
    def loc_writes(self) -> tuple[int, ...]:
        """Per event, the bitmask of the writes to its location (0 for
        fences): the ``fr`` row of a read of the initial value."""
        test = self.test
        return tuple(
            0
            if inst.address is None
            else sum(1 << w for w in test.writes_to(inst.address))
            for inst in test.instructions
        )

    @derived
    def po_vmem(self) -> Rel:
        """Program-order edges touching a transistency event on either
        end — the ordering TransForm's translation axioms preserve."""
        return self.po.restrict_domain(self.vmem) | self.po.restrict_range(
            self.vmem
        )

    @derived
    def int_(self) -> Rel:
        """Same-thread (internal) pairs, excluding the diagonal."""
        pairs = []
        for tid, thread in enumerate(self.test.threads):
            eids = [self.test.eid(tid, i) for i in range(len(thread))]
            pairs += [(a, b) for a in eids for b in eids if a != b]
        return Rel.from_pairs(self.n, pairs)

    @derived
    def ext(self) -> Rel:
        """Different-thread (external) pairs."""
        return (Rel.full(self.n) - Rel.identity(self.n)) - self.int_

    @derived
    def rmw(self) -> Rel:
        return Rel.from_pairs(self.n, self.test.rmw)

    def dep(self, *kinds: DepKind) -> Rel:
        return Rel.from_pairs(
            self.n,
            ((d.src, d.dst) for d in self.test.deps if d.kind in kinds),
        )

    @derived
    def addr_dep(self) -> Rel:
        return self.dep(DepKind.ADDR)

    @derived
    def data_dep(self) -> Rel:
        return self.dep(DepKind.DATA)

    @derived
    def ctrl_dep(self) -> Rel:
        """Control dependencies (including ctrl+isync ones)."""
        return self.dep(DepKind.CTRL, DepKind.CTRLISYNC)

    @derived
    def ctrlisync_dep(self) -> Rel:
        return self.dep(DepKind.CTRLISYNC)

    @derived
    def all_deps(self) -> Rel:
        return self.dep(*DepKind)

    # -- helpers -------------------------------------------------------------------

    def fences_of(self, *kinds: FenceKind) -> int:
        return self.test.mask_of(lambda i: i.is_fence and i.fence in kinds)

    def fence_rel(self, *kinds: FenceKind) -> Rel:
        """``(po :> F).po`` — pairs separated by a fence of given strength."""
        cached = self._fence_rels.get(kinds)
        if cached is None:
            mask = self.fences_of(*kinds)
            cached = self.po.restrict_range(mask).join(self.po)
            self._fence_rels[kinds] = cached
        return cached

    @derived
    def W_R(self) -> Rel:
        return Rel.product(self.n, self.writes, self.reads)

    @derived
    def R_R(self) -> Rel:
        return Rel.product(self.n, self.reads, self.reads)

    @derived
    def R_W(self) -> Rel:
        return Rel.product(self.n, self.reads, self.writes)

    @derived
    def W_W(self) -> Rel:
        return Rel.product(self.n, self.writes, self.writes)


class RelationView:
    """Relations of one execution; static parts shared per test."""

    __slots__ = ("execution", "test", "static", "__dict__")

    def __init__(
        self, execution: Execution, static: StaticRelations | None = None
    ):
        self.execution = execution
        self.test = execution.test
        self.static = static if static is not None else StaticRelations.of(
            execution.test
        )

    @property
    def n(self) -> int:
        return self.static.n

    # -- delegated static accessors --------------------------------------------------

    @property
    def reads(self) -> int:
        return self.static.reads

    @property
    def writes(self) -> int:
        return self.static.writes

    @property
    def fences(self) -> int:
        return self.static.fences

    @property
    def acquires(self) -> int:
        return self.static.acquires

    @property
    def releases(self) -> int:
        return self.static.releases

    @property
    def vmem(self) -> int:
        return self.static.vmem

    @property
    def ptwalks(self) -> int:
        return self.static.ptwalks

    @property
    def remaps(self) -> int:
        return self.static.remaps

    @property
    def dirties(self) -> int:
        return self.static.dirties

    @property
    def po(self) -> Rel:
        return self.static.po

    @property
    def po_imm(self) -> Rel:
        return self.static.po_imm

    @property
    def po_vmem(self) -> Rel:
        return self.static.po_vmem

    @property
    def loc(self) -> Rel:
        return self.static.loc

    @property
    def po_loc(self) -> Rel:
        return self.static.po_loc

    @property
    def int_(self) -> Rel:
        return self.static.int_

    @property
    def ext(self) -> Rel:
        return self.static.ext

    @property
    def rmw(self) -> Rel:
        return self.static.rmw

    @property
    def addr_dep(self) -> Rel:
        return self.static.addr_dep

    @property
    def data_dep(self) -> Rel:
        return self.static.data_dep

    @property
    def ctrl_dep(self) -> Rel:
        return self.static.ctrl_dep

    @property
    def ctrlisync_dep(self) -> Rel:
        return self.static.ctrlisync_dep

    @property
    def all_deps(self) -> Rel:
        return self.static.all_deps

    @property
    def W_R(self) -> Rel:
        return self.static.W_R

    @property
    def R_R(self) -> Rel:
        return self.static.R_R

    @property
    def R_W(self) -> Rel:
        return self.static.R_W

    @property
    def W_W(self) -> Rel:
        return self.static.W_W

    def dep(self, *kinds: DepKind) -> Rel:
        return self.static.dep(*kinds)

    def fences_of(self, *kinds: FenceKind) -> int:
        return self.static.fences_of(*kinds)

    def fence_rel(self, *kinds: FenceKind) -> Rel:
        return self.static.fence_rel(*kinds)

    def accesses_with(self, pred) -> int:
        """Bitmask of memory accesses whose instruction satisfies ``pred``."""
        return self.test.mask_of(lambda i: not i.is_fence and pred(i))

    def orders_at_least(self, order: Order) -> int:
        """Accesses or fences whose annotation is >= ``order``."""
        return self.test.mask_of(lambda i: i.order >= order)

    # -- dynamic (per-execution) relations ---------------------------------------------

    @derived
    def rf(self) -> Rel:
        """Reads-from: sourcing write -> read."""
        n = self.n
        bits = 0
        for read, src in self.execution.rf:
            if src is not None:
                bits |= 1 << (src * n + read)
        return Rel(n, bits)

    @derived
    def co(self) -> Rel:
        """Coherence: the per-address total orders, transitively closed."""
        n = self.n
        bits = 0
        for order in self.execution.co:
            later = 0
            for w in reversed(order):
                bits |= later << (w * n)
                later |= 1 << w
        return Rel(n, bits)

    @derived
    def fr(self) -> Rel:
        """From-reads, accounting for reads of the initial state.

        A read sourced by write ``w`` is ``fr``-before every ``co``
        successor of ``w`` (row ``w`` of ``co``); a read of the initial
        value is ``fr``-before every write to its location (the paper's
        Fig. 4 alternative definition of ``fr``).
        """
        n = self.n
        row = (1 << n) - 1
        co = self.co.bits
        loc_writes = self.static.loc_writes
        bits = 0
        for read, src in self.execution.rf:
            after = loc_writes[read] if src is None else (co >> (src * n)) & row
            bits |= after << (read * n)
        return Rel(n, bits)

    @derived
    def com(self) -> Rel:
        """Communication: ``rf + co + fr``."""
        return self.rf | self.co | self.fr

    @derived
    def sc(self) -> Rel:
        """Total order over SC fences (SCC Fig. 17), empty if unused.

        Events that are no longer SC fences are dropped — a relaxation
        may have demoted a fence (Fig. 6's perturbed ``sc_p``), and the
        stale order entry must not keep constraining it.
        """
        events = [
            e
            for e in self.execution.sc
            if self.test.instruction(e).fence is FenceKind.FENCE_SC
        ]
        return Rel.total_order(self.n, events)

    # -- internal/external splits ----------------------------------------------------

    @derived
    def rfi(self) -> Rel:
        return self.rf & self.int_

    @derived
    def rfe(self) -> Rel:
        return self.rf & self.ext

    @derived
    def coi(self) -> Rel:
        return self.co & self.int_

    @derived
    def coe(self) -> Rel:
        return self.co & self.ext

    @derived
    def fri(self) -> Rel:
        return self.fr & self.int_

    @derived
    def fre(self) -> Rel:
        return self.fr & self.ext
