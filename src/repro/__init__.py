"""litmus-synth: automated synthesis of comprehensive memory model litmus
test suites.

A from-scratch reproduction of Lustig, Wright, Papakonstantinou & Giroux,
*Automated Synthesis of Comprehensive Memory Model Litmus Test Suites*
(ASPLOS 2017).

Quick start::

    from repro import SynthesisRequest, synthesize

    result = synthesize(SynthesisRequest.build("tso", bound=4))
    for entry in result.union:
        print(entry.pretty())

A :class:`SynthesisRequest` is the single public entry shape: the same
value runs locally (above), ships to a synthesis daemon
(``repro serve`` + :class:`repro.service.Client`), and keys request
deduplication.  ``synthesize(model, SynthesisOptions(...))`` remains
the equivalent two-argument form.

Add ``jobs=4`` (and optionally ``checkpoint_dir="ckpt/"``) to the
options to run the sharded multiprocess runtime; the output is identical
to the sequential run.

Package layout:

* :mod:`repro.litmus`    — litmus test IR, executions, outcomes, catalog
* :mod:`repro.semantics` — relation algebra and execution enumeration
* :mod:`repro.models`    — SC, TSO, Power, ARMv7, SCC, C11
* :mod:`repro.relax`     — the six instruction relaxations + Table 2
* :mod:`repro.core`      — minimality criterion, synthesis, suites
* :mod:`repro.exec`      — sharded multiprocess synthesis runtime
* :mod:`repro.sat`       — CDCL SAT solver (the Alloy-substitute backend)
* :mod:`repro.relational`— bounded relational model finder over SAT
* :mod:`repro.alloy`     — Alloy-style memory-model encodings
* :mod:`repro.analysis`  — diagnostics / lint passes over the stack
* :mod:`repro.difftest`  — differential testing + model-mutation fuzzing
* :mod:`repro.obs`       — tracing, metrics, and the Report envelope
* :mod:`repro.service`   — synthesis-as-a-service daemon, queue, client
"""

from repro.core import (
    CriterionMode,
    EnumerationConfig,
    ExplicitOracle,
    MinimalityChecker,
    MinimalityResult,
    OracleSpec,
    SuiteEntry,
    SynthesisOptions,
    SynthesisResult,
    TestSuite,
    canonical_form,
    compare_suites,
    is_subtest,
    synthesize,
)
from repro.difftest import (
    CampaignOptions,
    CampaignReport,
    DiffHarness,
    run_campaign,
)
from repro.litmus import (
    Dep,
    DepKind,
    EventKind,
    Execution,
    FenceKind,
    Instruction,
    LitmusTest,
    Order,
    Outcome,
    Scope,
    dirty,
    fence,
    ptwalk,
    read,
    remap,
    write,
)
from repro.litmus.format import format_test, parse_test
from repro.machine import Bug, TsoMachine, explore, run_suite
from repro.models import MemoryModel, Vocabulary, available_models, get_model
from repro.obs import Report, Stats, load_report
from repro.relax import ALL_RELAXATIONS, applicability_table, relaxations_for

# The service layer imports repro.core at module load time, so it must
# come after the core imports above (synthesize itself resolves
# SynthesisRequest lazily to keep the cycle one-directional).
from repro.service import (
    Client,
    JobProgress,
    JobResult,
    JobStatus,
    ServiceError,
    SynthesisRequest,
)

__version__ = "1.13.0"

__all__ = [
    "__version__",
    # core
    "CriterionMode",
    "EnumerationConfig",
    "ExplicitOracle",
    "MinimalityChecker",
    "MinimalityResult",
    "OracleSpec",
    "SuiteEntry",
    "SynthesisOptions",
    "SynthesisResult",
    "TestSuite",
    "canonical_form",
    "compare_suites",
    "is_subtest",
    "synthesize",
    # difftest
    "CampaignOptions",
    "CampaignReport",
    "DiffHarness",
    "run_campaign",
    # litmus text format
    "format_test",
    "parse_test",
    # litmus
    "Dep",
    "DepKind",
    "EventKind",
    "Execution",
    "FenceKind",
    "Instruction",
    "LitmusTest",
    "Order",
    "Outcome",
    "Scope",
    "dirty",
    "fence",
    "ptwalk",
    "read",
    "remap",
    "write",
    # operational machine
    "Bug",
    "TsoMachine",
    "explore",
    "run_suite",
    # models
    "MemoryModel",
    "Vocabulary",
    "available_models",
    "get_model",
    # observability
    "Report",
    "Stats",
    "load_report",
    # service
    "SynthesisRequest",
    "JobStatus",
    "JobProgress",
    "JobResult",
    "Client",
    "ServiceError",
    # relaxations
    "ALL_RELAXATIONS",
    "applicability_table",
    "relaxations_for",
]
