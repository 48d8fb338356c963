"""The paper's contribution: minimality-driven litmus test synthesis."""

from repro.core.canonical import (
    CanonicalSet,
    canonical_form,
    canonicalize,
    paper_canonicalize,
    symmetry_class_size,
)
from repro.core.compare import (
    SuiteComparison,
    compare_suites,
    find_subtest,
    is_subtest,
    subtests,
)
from repro.core.enumerator import (
    EnumerationConfig,
    enumerate_shard,
    enumerate_tests,
)
from repro.core.minimality import (
    CriterionMode,
    MinimalityChecker,
    MinimalityResult,
    perturb_execution,
)
from repro.core.oracle import ExplicitOracle, TestAnalysis
from repro.core.suite import (
    SuiteEntry,
    TestSuite,
    outcome_from_dict,
    outcome_to_dict,
    test_from_dict,
    test_to_dict,
)
from repro.core.synthesis import (
    RESULT_SCHEMA_VERSION,
    OracleSpec,
    SynthesisOptions,
    SynthesisResult,
    synthesize,
)

__all__ = [
    "CanonicalSet",
    "canonical_form",
    "canonicalize",
    "paper_canonicalize",
    "symmetry_class_size",
    "SuiteComparison",
    "compare_suites",
    "find_subtest",
    "is_subtest",
    "subtests",
    "EnumerationConfig",
    "enumerate_tests",
    "enumerate_shard",
    "CriterionMode",
    "MinimalityChecker",
    "MinimalityResult",
    "perturb_execution",
    "ExplicitOracle",
    "TestAnalysis",
    "SuiteEntry",
    "TestSuite",
    "test_to_dict",
    "test_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "RESULT_SCHEMA_VERSION",
    "OracleSpec",
    "SynthesisOptions",
    "SynthesisResult",
    "synthesize",
]
