"""Candidate litmus test enumeration.

The paper lets Alloy range over "the set of all tests within the given
test size bound" (Fig. 5a).  This module enumerates the same design
space explicitly: every assignment of instructions (drawn from the
model's vocabulary) to threads, plus every overlay of RMW pairings and
dependency edges, up to an instruction-count bound.

Enumeration applies the structural prunes the paper itself relies on:

* *boundary fences* — "a fence at the start or end of a thread is
  irrelevant" (paper §6.3), so fences are only generated strictly inside
  a thread (configurable);
* *communication* — an address accessed once, or never written, cannot
  participate in any forbidden outcome's communication pattern, so by
  default every address must have at least two accessors including a
  write (configurable — see DESIGN.md §5);
* *canonical address order* — only tests whose addresses first appear in
  sequential order are emitted (each symmetry class keeps at least one
  representative; full symmetry reduction happens in the canonicalizer).

Thread multisets are generated in sorted order per size group to avoid
emitting permuted-thread duplicates wholesale.

Sharding
--------

The candidate space splits into deterministic *work items*: one item per
``(thread-size partition, first-unit index)`` pair, i.e. the enumerator's
top-level fan-out.  ``enumerate_tests(..., shard=(i, n))`` keeps only the
items whose ordinal is congruent to ``i`` modulo ``n``, so the ``n``
shards partition the space exactly (round-robin, which also balances the
expensive early partitions across shards).  The union of all shards
yields the same candidates in the same within-shard relative order as the
unsharded stream — :mod:`repro.exec` exploits this to merge parallel
results back into the sequential order.

There is one work item per unit of a thread-unit pool, so an item must
not cost the size of its pool: pinning a one-thread first group copies
nothing (see :func:`_unit_selections`).  What a shard then pays up front
is building the pools themselves (:func:`thread_units`, one per thread
size).  :func:`enumerate_shard` takes a ``pools`` mapping so that one
process builds each pool once for every shard it runs:
:mod:`repro.exec.runtime` keeps one mapping per worker child (or per
in-process run), and it lives no longer than the run.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from repro.litmus.events import (
    DepKind,
    EventKind,
    Instruction,
    dirty,
    fence,
    ptwalk,
    read,
    remap,
    write,
)
from repro.litmus.test import Dep, LitmusTest
from repro.models.base import Vocabulary
from repro.vmem.addrmap import alias_maps

__all__ = [
    "EnumerationConfig",
    "ThreadUnit",
    "enumerate_tests",
    "enumerate_shard",
    "count_tests",
    "slot_choices",
    "dep_candidates",
    "rmw_candidates",
]


@dataclass(frozen=True)
class EnumerationConfig:
    """Bounds on the candidate-test design space."""

    max_events: int
    max_threads: int = 4
    max_addresses: int = 3
    max_deps: int = 2
    max_rmws: int = 2
    min_events: int = 2
    #: cap on instructions per thread (None = up to max_events)
    max_thread_size: int | None = None
    require_communication: bool = True
    allow_boundary_fences: bool = False
    #: cap on virtual->physical alias-map entries per candidate
    #: (TransForm enhanced tests); 0 disables the aliasing axis entirely,
    #: keeping the candidate stream byte-identical to pre-vmem output.
    max_aliases: int = 0


@dataclass(frozen=True)
class ThreadUnit:
    """One thread's instructions plus its thread-local rmw/dep overlays.

    ``rmw`` and ``deps`` use thread-local instruction indices; they are
    rebased to global event ids at assembly time.
    """

    instructions: tuple[Instruction, ...]
    rmw: tuple[tuple[int, int], ...] = ()
    deps: tuple[tuple[int, int, DepKind], ...] = ()

    @property
    def size(self) -> int:
        return len(self.instructions)

    def sort_key(self) -> tuple:
        return (
            tuple(
                (
                    i.kind.value,
                    -1 if i.address is None else i.address,
                    int(i.order),
                    i.fence.value if i.fence else "",
                    -1 if i.value is None else i.value,
                )
                for i in self.instructions
            ),
            self.rmw,
            tuple((s, d, k.value) for s, d, k in self.deps),
        )


def slot_choices(
    vocab: Vocabulary, config: EnumerationConfig
) -> list[Instruction]:
    """Every instruction an enumeration slot may hold for this vocabulary.

    Shared with :mod:`repro.difftest.generator`, which samples from the
    same design space the exhaustive enumerator walks.
    """
    choices: list[Instruction] = []
    # Scoped models annotate every synchronizing instruction with a
    # scope; plain accesses carry none.
    def scopes_for(annotated: bool):
        if vocab.has_scopes and annotated:
            return vocab.scopes
        return (None,)

    for addr in range(config.max_addresses):
        for order in vocab.read_orders:
            for scope in scopes_for(order.is_atomic or order.is_acquire):
                choices.append(read(addr, order, scope))
        for order in vocab.write_orders:
            for scope in scopes_for(order.is_atomic or order.is_release):
                choices.append(write(addr, order=order, scope=scope))
        # Transistency kinds are generated plain — their ordering
        # semantics come from the translation axioms, not annotations.
        if EventKind.PTWALK in vocab.vmem_kinds:
            choices.append(ptwalk(addr))
        if EventKind.REMAP in vocab.vmem_kinds:
            choices.append(remap(addr))
        if EventKind.DIRTY in vocab.vmem_kinds:
            choices.append(dirty(addr))
    for kind in vocab.fence_kinds:
        for scope in scopes_for(True):
            choices.append(fence(kind, scope))
    return choices


def dep_candidates(
    instructions: tuple[Instruction, ...], vocab: Vocabulary
) -> list[tuple[int, int, DepKind]]:
    """Well-formed thread-local dependency edges over an instruction
    sequence (read sources, po-later non-fence targets, data deps only to
    writes)."""
    out = []
    for i, src in enumerate(instructions):
        if not src.is_read:
            continue
        for j in range(i + 1, len(instructions)):
            dst = instructions[j]
            if dst.is_fence:
                continue
            for kind in vocab.dep_kinds:
                if kind is DepKind.DATA and not dst.is_write:
                    continue
                out.append((i, j, kind))
    return out


def rmw_candidates(
    instructions: tuple[Instruction, ...]
) -> list[tuple[int, int]]:
    """Po-adjacent same-address (read, write) pairs eligible for an rmw
    pairing."""
    out = []
    for i in range(len(instructions) - 1):
        a, b = instructions[i], instructions[i + 1]
        if a.is_read and b.is_write and a.address == b.address:
            out.append((i, i + 1))
    return out


def _dep_subset_ok(subset: tuple[tuple[int, int, DepKind], ...]) -> bool:
    # At most one dependency kind per (src, dst) edge — multiple kinds on
    # one edge collapse to the strongest and only bloat the space.
    edges = {(s, d) for s, d, _ in subset}
    return len(edges) == len(subset)


def thread_units(
    size: int, vocab: Vocabulary, config: EnumerationConfig
) -> list[ThreadUnit]:
    """Every thread of ``size`` instructions over the vocabulary."""
    units: list[ThreadUnit] = []
    choices = slot_choices(vocab, config)
    for seq in product(choices, repeat=size):
        if not config.allow_boundary_fences:
            if seq[0].is_fence or seq[-1].is_fence:
                continue
        rmw_cands = rmw_candidates(seq) if vocab.allows_rmw else []
        dep_cands = dep_candidates(seq, vocab)
        rmw_subsets: list[tuple[tuple[int, int], ...]] = [()]
        for k in range(1, config.max_rmws + 1):
            for combo in combinations(rmw_cands, k):
                if _non_overlapping(combo):
                    rmw_subsets.append(combo)
        dep_subsets: list[tuple[tuple[int, int, DepKind], ...]] = [()]
        for k in range(1, config.max_deps + 1):
            for combo in combinations(dep_cands, k):
                if _dep_subset_ok(combo):
                    dep_subsets.append(combo)
        for rmw in rmw_subsets:
            rmw_pairs = set(rmw)
            for deps in dep_subsets:
                # A data dep duplicating an rmw pairing adds nothing.
                if any(
                    (s, d) in rmw_pairs and k is DepKind.DATA
                    for s, d, k in deps
                ):
                    continue
                units.append(ThreadUnit(seq, rmw, deps))
    units.sort(key=ThreadUnit.sort_key)
    return units


def _non_overlapping(pairs: tuple[tuple[int, int], ...]) -> bool:
    used: set[int] = set()
    for a, b in pairs:
        if a in used or b in used:
            return False
        used.update((a, b))
    return True


def _partitions(n: int, max_parts: int, max_part: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``n`` into at most ``max_parts`` parts, descending."""

    def rec(remaining: int, parts_left: int, cap: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield acc
            return
        if parts_left == 0:
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, parts_left - 1, part, acc + (part,))

    yield from rec(n, max_parts, max_part, ())


def _assemble(
    units: tuple[ThreadUnit, ...], scopes: tuple[int, ...] | None = None
) -> LitmusTest:
    threads = tuple(u.instructions for u in units)
    rmw = set()
    deps = set()
    offset = 0
    for unit in units:
        for a, b in unit.rmw:
            rmw.add((offset + a, offset + b))
        for s, d, k in unit.deps:
            deps.add(Dep(offset + s, offset + d, k))
        offset += unit.size
    return LitmusTest(threads, frozenset(rmw), frozenset(deps), scopes)


def _group_assignments(num_threads: int) -> Iterator[tuple[int, ...]]:
    """Canonical work-group partitions: restricted growth strings (the
    first thread is in group 0; each later thread joins an existing
    group or opens the next one)."""

    def rec(acc: tuple[int, ...], max_used: int):
        if len(acc) == num_threads:
            yield acc
            return
        for g in range(max_used + 2):
            yield from rec(acc + (g,), max(max_used, g))

    yield from rec((0,), 0)


def _addresses_canonical(units: tuple[ThreadUnit, ...]) -> bool:
    """Addresses must first appear as 0, 1, 2, ... in flattened order."""
    next_expected = 0
    seen: set[int] = set()
    for unit in units:
        for inst in unit.instructions:
            addr = inst.address
            if addr is None or addr in seen:
                continue
            if addr != next_expected:
                return False
            seen.add(addr)
            next_expected += 1
    return True


def _communicates(units: tuple[ThreadUnit, ...]) -> bool:
    """Every address has >= 2 accessors, at least one of them a write."""
    accesses: dict[int, int] = {}
    writes: dict[int, int] = {}
    for unit in units:
        for inst in unit.instructions:
            if inst.address is None:
                continue
            accesses[inst.address] = accesses.get(inst.address, 0) + 1
            if inst.is_write:
                writes[inst.address] = writes.get(inst.address, 0) + 1
    return all(
        accesses[a] >= 2 and writes.get(a, 0) >= 1 for a in accesses
    )


def enumerate_tests(
    vocab: Vocabulary,
    config: EnumerationConfig,
    shard: tuple[int, int] | None = None,
) -> Iterator[LitmusTest]:
    """Stream every candidate test within the configured bounds.

    ``shard=(i, n)`` restricts the stream to the ``i``-th of ``n``
    deterministic slices of the candidate space (see the module
    docstring); the ``n`` shards partition the unsharded stream exactly.
    """
    for _, test in enumerate_shard(vocab, config, shard=shard):
        yield test


def enumerate_shard(
    vocab: Vocabulary,
    config: EnumerationConfig,
    shard: tuple[int, int] | None = None,
    pools: dict[int, list[ThreadUnit]] | None = None,
) -> Iterator[tuple[int, LitmusTest]]:
    """Like :func:`enumerate_tests`, but yields ``(item, test)`` pairs.

    ``item`` is the global ordinal of the work item (top-level enumerator
    shape) the candidate belongs to.  Item ordinals are assigned over the
    *whole* space regardless of ``shard``, and candidates within one item
    stream in a deterministic order, so sorting shard outputs by
    ``(item, position-within-item)`` reconstructs the exact sequential
    enumeration order — the property :mod:`repro.exec`'s merge relies on.

    ``pools`` maps a thread size to its :func:`thread_units` pool for
    this ``vocab`` and ``config``; a missing pool is built and added.
    Passing one mapping to every shard of a run builds each pool once;
    without one, the shard builds its own.
    """
    if shard is not None:
        shard_index, shard_count = shard
        if shard_count < 1:
            raise ValueError(f"shard count must be >= 1, got {shard_count}")
        if not 0 <= shard_index < shard_count:
            raise ValueError(
                f"shard index {shard_index} out of range for {shard_count} shards"
            )
    if pools is None:
        pools = {}
    item = -1
    for n in range(config.min_events, config.max_events + 1):
        cap = (
            n
            if config.max_thread_size is None
            else min(n, config.max_thread_size)
        )
        for sizes in _partitions(n, config.max_threads, cap):
            groups = _group_sizes(sizes)
            first_size = groups[0][0]
            if first_size not in pools:
                pools[first_size] = thread_units(first_size, vocab, config)
            for first_index in range(len(pools[first_size])):
                item += 1
                if shard is not None and item % shard_count != shard_index:
                    continue
                for selection in _unit_selections(
                    groups, pools, vocab, config, first_index
                ):
                    if config.max_rmws and sum(len(u.rmw) for u in selection) > config.max_rmws:
                        continue
                    if config.max_deps and sum(len(u.deps) for u in selection) > config.max_deps:
                        continue
                    if not _addresses_canonical(selection):
                        continue
                    communicates = (
                        not config.require_communication
                        or _communicates(selection)
                    )
                    if not communicates and config.max_aliases == 0:
                        continue
                    for candidate in _assembled_variants(
                        selection, vocab, config, communicates
                    ):
                        yield item, candidate


def _assembled_variants(
    selection: tuple[ThreadUnit, ...],
    vocab: Vocabulary,
    config: EnumerationConfig,
    communicates: bool,
) -> Iterator[LitmusTest]:
    """Assemble one selection into candidates: every scope assignment
    (scoped models), and — when ``max_aliases`` allows — every aliased
    variant.  A base candidate that only communicates *through* aliasing
    (e.g. one write to ``v`` observed via ``p``) is emitted solely in its
    aliased forms."""
    assignments: Iterator[tuple[int, ...] | None]
    if vocab.has_scopes:
        assignments = _group_assignments(len(selection))
    else:
        assignments = iter((None,))
    for assignment in assignments:
        base = _assemble(selection, assignment)
        if communicates:
            yield base
        if config.max_aliases:
            for amap in alias_maps(len(base.addresses), config.max_aliases):
                candidate = LitmusTest(
                    base.threads, base.rmw, base.deps, base.scopes, None, amap
                )
                if config.require_communication and not _communicates_locations(
                    candidate
                ):
                    continue
                yield candidate


def _communicates_locations(test: LitmusTest) -> bool:
    """Location-aware communication prune for aliased candidates."""
    return all(
        len(test.accesses_to(loc)) >= 2 and len(test.writes_to(loc)) >= 1
        for loc in test.locations
    )


def _group_sizes(sizes: tuple[int, ...]) -> list[tuple[int, int]]:
    """Run-length encode a descending size tuple: [(size, count), ...]."""
    groups: list[tuple[int, int]] = []
    for s in sizes:
        if groups and groups[-1][0] == s:
            groups[-1] = (s, groups[-1][1] + 1)
        else:
            groups.append((s, 1))
    return groups


def _unit_selections(
    groups: list[tuple[int, int]],
    unit_pool: dict[int, list[ThreadUnit]],
    vocab: Vocabulary,
    config: EnumerationConfig,
    first_index: int,
) -> Iterator[tuple[ThreadUnit, ...]]:
    """Thread-unit multisets for each size group.

    ``first_index`` pins the first group's first unit to that pool index;
    splitting ``combinations_with_replacement`` on its lead element this
    way preserves the overall lexicographic order, which is what makes
    the work-item ordinals in :func:`enumerate_shard` stable.  Only a
    group of several threads ranges over the pool's tail; a one-thread
    group is just the pinned unit, so its item never copies the pool.
    """
    per_group: list = []
    for gi, (size, count) in enumerate(groups):
        if size not in unit_pool:
            unit_pool[size] = thread_units(size, vocab, config)
        pool = unit_pool[size]
        if gi > 0:
            per_group.append(combinations_with_replacement(pool, count))
        elif count == 1:
            per_group.append([(pool[first_index],)])
        else:
            first = pool[first_index]
            per_group.append(
                [
                    (first,) + rest
                    for rest in combinations_with_replacement(
                        pool[first_index:], count - 1
                    )
                ]
            )
    for combo in product(*per_group):
        yield tuple(u for group in combo for u in group)


def count_tests(vocab: Vocabulary, config: EnumerationConfig) -> int:
    """Size of the candidate space ("All Progs" in the paper's Fig. 13a)."""
    return sum(1 for _ in enumerate_tests(vocab, config))
