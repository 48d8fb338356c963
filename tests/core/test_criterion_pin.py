"""Pinned per-axiom answers of the minimality criterion.

One sha256 covers every :class:`MinimalityResult` field (``is_minimal``,
``witness``, ``blocking``, ``forbidden_count``, ``application_count``,
``relaxed_tests``) for every registered model, every catalog test the
model's vocabulary admits and about 24 evenly spaced candidates of
its bound-3 stream (C11's vocabulary admits no catalog test: its
accesses are all atomic), each axiom plus the whole model (``None``),
and all three criterion modes on the explicit oracle, plus the
relational oracle on tso, sc and scc in the exact and execution modes.
One ``check_axioms`` call answers every axiom of a test, as in the
synthesis loop; the digest was computed from one ``check`` call per
axiom before that single pass existed, so it also pins the single pass
to the per-axiom answers.  The criterion's answers are the suites' raw material, so a changed
digest is a changed product, never noise.

A second check spies on the synthesis loop: one checker call per
unique candidate, and no (candidate, relaxation application) pair is
applied twice.
"""

import functools
import hashlib
import json

from repro.core import suite
from repro.core.enumerator import EnumerationConfig, enumerate_tests, slot_choices
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.synthesis import (
    OracleSpec,
    SynthesisOptions,
    build_checker,
    run_sequential,
)
from repro.litmus.catalog import CATALOG
from repro.models.registry import available_models, get_model

CRITERION_DIGEST = "45c766a63097d5ec1a855639e9a235977607d42eaf67f1bd07744c162bd6c20e"

RELATIONAL_MODELS = ("tso", "sc", "scc")


def _signature(inst):
    return (inst.kind, inst.order, inst.fence, inst.scope)


def admits(vocab, test) -> bool:
    """Can the model's enumerator produce every instruction, dependency,
    RMW and alias of ``test``?"""
    slots = {
        _signature(inst)
        for inst in slot_choices(
            vocab, EnumerationConfig(max_events=1, max_addresses=1)
        )
    }
    return (
        all(_signature(inst) in slots for thread in test.threads for inst in thread)
        and all(dep.kind in vocab.dep_kinds for dep in test.deps)
        and (vocab.allows_rmw or not test.rmw)
        and (vocab.has_vmem or test.addr_map is None)
    )


def result_record(result) -> dict:
    return {
        "is_minimal": result.is_minimal,
        "witness": (
            None
            if result.witness is None
            else suite.outcome_to_dict(result.witness)
        ),
        "blocking": result.blocking,
        "forbidden_count": result.forbidden_count,
        "application_count": result.application_count,
        "relaxed_tests": [suite.test_to_dict(t) for t in result.relaxed_tests],
    }


def _cases():
    for model_name in available_models():
        for mode in CriterionMode:
            yield model_name, mode, "explicit"
    for model_name in RELATIONAL_MODELS:
        for mode in (CriterionMode.EXACT, CriterionMode.EXECUTION):
            yield model_name, mode, "relational"


@functools.cache
def pinned_tests(model_name: str) -> list:
    """``(label, test)``: the admitted catalog tests, then a stride
    sample of the model's bound-3 candidate stream."""
    model = get_model(model_name)
    tests = [
        (name, entry.test)
        for name, entry in CATALOG.items()
        if admits(model.vocabulary, entry.test)
    ]
    stream = list(
        enumerate_tests(
            model.vocabulary, SynthesisOptions(bound=3).resolved_config(model)
        )
    )
    stride = max(1, len(stream) // 24)
    return tests + [
        (f"b3#{index}", stream[index]) for index in range(0, len(stream), stride)
    ]


def criterion_lines():
    """One JSON line per (model, oracle, mode, test, axiom)."""
    for model_name, mode, oracle in _cases():
        model = get_model(model_name)
        checker = build_checker(model, mode, OracleSpec(oracle=oracle))
        axioms = model.axiom_names() + (None,)
        for name, test in pinned_tests(model_name):
            results = checker.check_axioms(test, axioms)
            for axiom in axioms:
                record = result_record(results[axiom])
                yield json.dumps(
                    [model_name, oracle, mode.value, name, axiom, record],
                    sort_keys=True,
                )


def test_criterion_answers_match_the_pinned_digest():
    digest = hashlib.sha256()
    for line in criterion_lines():
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CRITERION_DIGEST


class _SpyRelaxation:
    """A relaxation that records every ``(test, application)`` it applies."""

    def __init__(self, inner, applied: list):
        self._inner = inner
        self.name = inner.name
        self._applied = applied

    def applications(self, test, vocab):
        return self._inner.applications(test, vocab)

    def apply(self, test, app, vocab):
        self._applied.append((test, app))
        return self._inner.apply(test, app, vocab)


def test_one_checker_call_per_unique_candidate():
    tso = get_model("tso")
    opts = SynthesisOptions(bound=3)
    plain = build_checker(tso, opts.mode, opts.oracle_spec)
    applied: list = []
    checker = MinimalityChecker(
        tso,
        opts.mode,
        relaxations=tuple(_SpyRelaxation(r, applied) for r in plain.relaxations),
        oracle=plain.oracle,
    )
    checked: list = []
    check_axioms = checker.check_axioms

    def spy(test, axioms):
        checked.append(test)
        return check_axioms(test, axioms)

    checker.check_axioms = spy
    result = run_sequential(tso, opts, checker=checker)
    assert len(checked) == result.unique_candidates > 0
    assert applied
    assert len(set(applied)) == len(applied)
