"""Litmus lint: well-formedness checks over tests and their outcomes.

:class:`~repro.litmus.test.LitmusTest` already rejects structurally
invalid programs in ``__post_init__``; these passes catch the next tier —
tests that are *valid but meaningless*: reads that can only ever observe
the initial value, outcome conditions naming events that do not exist (an
"uninitialized register"), synchronization annotations the target model
gives no semantics to (so no relaxation in
:mod:`repro.relax.applicability` could ever weaken them), and tests that
duplicate each other modulo :mod:`repro.core.canonical` symmetry.

Diagnostic ids:

=======  ========  ==========================================================
id       severity  meaning
=======  ========  ==========================================================
LIT001   warning   read from an address no write ever stores to
LIT002   error     outcome references a missing read / write event
LIT003   warning   sync annotation outside the model's vocabulary (dead)
LIT004   warning   test duplicates an earlier test modulo symmetry
LIT005   error     outcome rf pairs a read with a write to another address
LIT010   warning   no relaxation application exists (statically degenerate)
LIT011   info      rf/co(/sc) bounds statically empty (single execution)
=======  ========  ==========================================================

LIT010 asks the relaxations' own ``applications()`` generators
(:mod:`repro.relax.instruction`) whether the minimality criterion (paper
Definition 1) has anything to quantify over; every enumerated candidate
has at least two events, so RI always applies to it.  LIT011 stays
informational: a test whose dynamic relations have empty declared upper
bounds admits exactly one well-formed execution, and keeping such tests
out of the candidate stream is the enumerator's communication prune's
job.

Also here: :func:`fr_statically_empty`, the emptiness check the difftest
``empty:fr`` mutation consults.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.alloy.encoding import CO, RF, SC_REL, LitmusEncoding
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.registry import (
    LitmusLintContext,
    register_pass,
    run_family,
)
from repro.core.canonical import canonical_form
from repro.litmus.events import Order
from repro.litmus.test import LitmusTest
from repro.relational.circuit import Circuit
from repro.relational.translate import Translator
from repro.relax.instruction import relaxations_for

__all__ = [
    "lint_litmus_context",
    "find_duplicate_tests",
    "fr_statically_empty",
]


@register_pass(
    "litmus-unwritten-read",
    "litmus",
    "reads from addresses no write stores to",
    ids=("LIT001",),
)
def check_unwritten_reads(ctx: LitmusLintContext) -> Iterator[Diagnostic]:
    """LIT001: such a read can only return the initial value, so any rf
    edge into it is fixed and the event usually adds no discrimination.
    Legitimate uses exist (address-dependency chains into a scratch
    location, e.g. the Cambridge PPOAA tests), hence warning severity and
    suppression support."""
    test = ctx.test
    for eid in test.read_eids:
        addr = test.instruction(eid).address
        assert addr is not None
        if not test.writes_to(addr):
            yield Diagnostic(
                "LIT001",
                Severity.WARNING,
                f"{ctx.subject}:e{eid}",
                f"read e{eid} targets address a{addr}, which no write "
                "stores to; it can only observe the initial value",
                hint="drop the read or add a write, unless the location "
                "is an intentional dependency sink (suppress with a "
                "reason if so)",
            )


@register_pass(
    "litmus-outcome-events",
    "litmus",
    "outcome conditions referencing missing or mismatched events",
    ids=("LIT002", "LIT005"),
)
def check_outcome_events(ctx: LitmusLintContext) -> Iterator[Diagnostic]:
    """LIT002/LIT005: every rf constraint must name a read of the test
    and (when not the initial value) a write to the *same* address; every
    final-value constraint must name an address of the test.  A register
    condition on a non-existent read is the classic uninitialized-register
    mistake."""
    if ctx.outcome is None:
        return
    test = ctx.test
    reads = set(test.read_eids)
    writes = set(test.write_eids)
    for read_eid, src in ctx.outcome.rf_sources:
        subject = f"{ctx.subject}:e{read_eid}"
        if read_eid not in reads:
            yield Diagnostic(
                "LIT002",
                Severity.ERROR,
                subject,
                f"outcome constrains r{read_eid}, but event e{read_eid} "
                "is not a read of the test (uninitialized register)",
                hint="outcome registers must name read events; re-check "
                "event ids after editing the test",
            )
            continue
        if src is None:
            continue
        if src not in writes:
            yield Diagnostic(
                "LIT002",
                Severity.ERROR,
                subject,
                f"outcome sources r{read_eid} from e{src}, which is not "
                "a write of the test",
                hint="rf sources must be write events (or None for the "
                "initial value)",
            )
        elif test.location_of(
            test.instruction(src).address
        ) != test.location_of(test.instruction(read_eid).address):
            yield Diagnostic(
                "LIT005",
                Severity.ERROR,
                subject,
                f"outcome sources r{read_eid} (address "
                f"a{test.instruction(read_eid).address}) from write e{src} "
                f"to address a{test.instruction(src).address}",
                hint="a read can only observe writes to its own address",
            )
    for addr, w in ctx.outcome.finals:
        subject = f"{ctx.subject}:a{addr}"
        if addr not in test.addresses and addr not in test.locations:
            yield Diagnostic(
                "LIT002",
                Severity.ERROR,
                subject,
                f"outcome constrains the final value of a{addr}, which "
                "no instruction accesses",
                hint="final-value constraints must name test addresses",
            )
        elif w is not None and w not in test.writes_to(addr):
            yield Diagnostic(
                "LIT002",
                Severity.ERROR,
                subject,
                f"outcome makes e{w} coherence-final at a{addr}, but it "
                "is not a write to that address",
                hint="final writes must store to the constrained address",
            )


@register_pass(
    "litmus-dead-sync",
    "litmus",
    "synchronization annotations outside the model's vocabulary",
    ids=("LIT003",),
)
def check_dead_sync(ctx: LitmusLintContext) -> Iterator[Diagnostic]:
    """LIT003: an annotation the model's vocabulary does not include has
    no semantics under the model *and* no relaxation column applies to it
    (the applicability matrix is vocabulary-derived), so minimality can
    never justify it — it is dead weight that inflates the suite."""
    if ctx.model is None:
        return
    vocab = ctx.model.vocabulary
    test = ctx.test
    for eid, inst in enumerate(test.instructions):
        subject = f"{ctx.subject}:e{eid}"
        if inst.is_fence:
            assert inst.fence is not None
            if inst.fence not in vocab.fence_kinds:
                yield Diagnostic(
                    "LIT003",
                    Severity.WARNING,
                    subject,
                    f"fence kind {inst.fence.value!r} is outside the "
                    f"{ctx.model.name} vocabulary; the fence is dead "
                    "synchronization",
                    hint="no relaxation can weaken an annotation the "
                    "model gives no semantics to; use a vocabulary fence",
                )
        else:
            allowed = (
                vocab.read_orders if inst.is_read else vocab.write_orders
            )
            if inst.order is not Order.PLAIN and inst.order not in allowed:
                yield Diagnostic(
                    "LIT003",
                    Severity.WARNING,
                    subject,
                    f"memory order {inst.order.name} on e{eid} is outside "
                    f"the {ctx.model.name} vocabulary; the annotation is "
                    "dead synchronization",
                    hint="use an order the model defines, or drop the "
                    "annotation",
                )
        if inst.scope is not None and inst.scope not in vocab.scopes:
            yield Diagnostic(
                "LIT003",
                Severity.WARNING,
                subject,
                f"scope {inst.scope.name} on e{eid} is outside the "
                f"{ctx.model.name} vocabulary",
                hint="scoped annotations only mean something to scoped "
                "models",
            )
    if test.rmw and not vocab.allows_rmw:
        yield Diagnostic(
            "LIT003",
            Severity.WARNING,
            ctx.subject,
            f"test pairs RMW events but the {ctx.model.name} vocabulary "
            "excludes RMWs",
            hint="the atomicity of the pair has no semantics here",
        )
    for dep in sorted(test.deps):
        if dep.kind not in vocab.dep_kinds:
            yield Diagnostic(
                "LIT003",
                Severity.WARNING,
                f"{ctx.subject}:e{dep.src}",
                f"{dep.kind.value} dependency e{dep.src}->e{dep.dst} is "
                f"outside the {ctx.model.name} vocabulary; the edge is "
                "dead synchronization",
                hint="dependency kinds the model ignores cannot order "
                "anything and RD cannot remove them",
            )


@register_pass(
    "litmus-static-applicability",
    "litmus",
    "tests no instruction relaxation can weaken",
    ids=("LIT010",),
)
def check_static_applicability(
    ctx: LitmusLintContext,
) -> Iterator[Diagnostic]:
    """LIT010: zero relaxation applications under the model's
    vocabulary.  Minimality quantifies vacuously over such tests — they
    carry no evidence about any axiom and never belong in a suite."""
    if ctx.model is None:
        return
    vocab = ctx.model.vocabulary
    relaxations = relaxations_for(vocab)
    if any(True for r in relaxations for _ in r.applications(ctx.test, vocab)):
        return
    columns = ", ".join(sorted(r.name for r in relaxations)) or "none"
    yield Diagnostic(
        "LIT010",
        Severity.WARNING,
        ctx.subject,
        f"no relaxation application exists under the {ctx.model.name} "
        f"vocabulary (columns checked: {columns}); the minimality "
        "criterion is vacuous for this test",
        hint="a minimal test must admit at least one weakening (paper "
        "Definition 1)",
    )


@register_pass(
    "litmus-singleton-execution",
    "litmus",
    "tests whose dynamic relations are statically fixed",
    ids=("LIT011",),
)
def check_singleton_executions(
    ctx: LitmusLintContext,
) -> Iterator[Diagnostic]:
    """LIT011: every dynamic relation's declared upper bound is empty,
    so the test has exactly one well-formed execution."""
    with_sc = bool(
        ctx.model is not None
        and getattr(ctx.model, "uses_sc_order", False)
    )
    declarations = LitmusEncoding(ctx.test, with_sc=with_sc).problem.declarations
    names = [RF, CO] + ([SC_REL] if with_sc else [])
    if any(declarations[name].upper for name in names):
        return
    yield Diagnostic(
        "LIT011",
        Severity.INFO,
        ctx.subject,
        f"dynamic relations ({'/'.join(sorted(names))}) have statically "
        "empty upper bounds: the test admits exactly one well-formed "
        "execution, so no outcome can ever be forbidden",
        hint="informational; such tests cannot discriminate between "
        "models and never enter a synthesized suite",
    )


def fr_statically_empty(test: LitmusTest) -> bool:
    """Can ``fr`` (Fig. 4's from-reads) ever hold a tuple on this test?

    Reads the translation the relational oracle compiles: ``fr`` gets a
    matrix entry only for a same-address (read, write) pair, so no entry
    means *every* execution of the test has an empty ``fr``, making any
    ``empty:fr``-style mutation behaviourally identical to the stock
    model on this test."""
    translator = Translator(LitmusEncoding(test).problem, Circuit())
    return not translator.expr(LitmusEncoding.fr()).entries


def find_duplicate_tests(
    tests: Iterable[tuple[str, LitmusTest]],
) -> Iterator[Diagnostic]:
    """LIT004 (collection-level): tests that are symmetric images of an
    earlier test in the iteration order.  Takes ``(name, test)`` pairs so
    callers control the subject naming."""
    seen: dict[LitmusTest, str] = {}
    for name, test in tests:
        key = canonical_form(test)
        if key in seen:
            yield Diagnostic(
                "LIT004",
                Severity.WARNING,
                f"test:{name}",
                f"test duplicates {seen[key]!r} modulo thread/address "
                "symmetry",
                hint="symmetric tests probe identical behaviour; keep "
                "one representative per class",
            )
        else:
            seen[key] = name


def lint_litmus_context(ctx: LitmusLintContext) -> Iterable[Diagnostic]:
    """Run every registered litmus pass over one context."""
    return run_family("litmus", ctx)
