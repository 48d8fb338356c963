"""Static analysis / lint subsystem.

Three registered pass families over the synthesis stack's inputs, plus
two collection-level checkers:

* **model** — memory-model axioms (:mod:`repro.analysis.model_lint`);
* **litmus** — litmus tests and outcomes (:mod:`repro.analysis.litmus_lint`);
* **pipeline** — CNF headed for the SAT solver
  (:mod:`repro.analysis.pipeline_lint`);
* **difftest** — reproducer corpora and mutant registries
  (:mod:`repro.analysis.difftest_lint`);
* **obs** — :mod:`repro.obs` trace directories
  (:mod:`repro.analysis.obs_lint`).

The semantic checks that need no solver (``MDL010``–``MDL012``,
``LIT011`` and :func:`fr_statically_empty`) read the relational
translator's constant folding or the declared Kodkod bounds, so the
lints judge exactly the formulas the relational oracle solves.

Importing this package registers every pass.  Entry point:
``lint_registry`` (the registry-wide self-check behind ``repro lint``).
"""

from repro.analysis import (  # noqa: F401  (imports register the passes)
    litmus_lint,
    model_lint,
    pipeline_lint,
)
from repro.analysis.diagnostics import (
    DIAGNOSTIC_IDS,
    JSON_SCHEMA_VERSION,
    Diagnostic,
    Report,
    Severity,
    Suppression,
    parse_suppression,
    render_json,
    render_text,
)
from repro.analysis.difftest_lint import (
    lint_corpus,
    lint_mutant_registry,
    lint_mutant_tags,
)
from repro.analysis.litmus_lint import find_duplicate_tests, fr_statically_empty
from repro.analysis.obs_lint import (
    lint_trace_dir,
    lint_trace_events,
    lint_trace_file,
)
from repro.analysis.pipeline_lint import (
    lint_cnf_cache_dir,
    lint_oracle_options,
    lint_warm_compile,
)
from repro.analysis.registry import (
    ClauseLintContext,
    LintPass,
    LitmusLintContext,
    ModelLintContext,
    all_passes,
    passes_for,
    register_pass,
    run_family,
)
from repro.analysis.selfcheck import (
    REGISTRY_SUPPRESSIONS,
    lint_catalog,
    lint_models,
    lint_registry,
)

__all__ = [
    "DIAGNOSTIC_IDS",
    "JSON_SCHEMA_VERSION",
    "Diagnostic",
    "Severity",
    "Suppression",
    "Report",
    "parse_suppression",
    "render_text",
    "render_json",
    "fr_statically_empty",
    "ModelLintContext",
    "LitmusLintContext",
    "ClauseLintContext",
    "LintPass",
    "register_pass",
    "passes_for",
    "all_passes",
    "run_family",
    "find_duplicate_tests",
    "lint_oracle_options",
    "lint_cnf_cache_dir",
    "lint_warm_compile",
    "lint_trace_events",
    "lint_trace_file",
    "lint_trace_dir",
    "lint_corpus",
    "lint_mutant_tags",
    "lint_mutant_registry",
    "REGISTRY_SUPPRESSIONS",
    "lint_models",
    "lint_catalog",
    "lint_registry",
]
