"""Dataflow-style static analysis over model ASTs and the litmus IR.

Two layers, both built on one abstract domain — tuple-set intervals
with Kleene three-valued formula evaluation
(:mod:`repro.analysis.flow.absint`):

* **model passes** (:mod:`repro.analysis.flow.model_pass`) — abstract
  interpretation of each axiom over the probe battery's relation
  bounds, emitting ``MDL010``/``MDL011``/``MDL012`` for statically
  vacuous, unsatisfiable-by-construction, and dead definitions;
* **litmus passes** (:mod:`repro.analysis.flow.applicability`) —
  tests no relaxation applies to (``LIT010``) and statically-singleton
  execution spaces (``LIT011``), plus the ``fr`` emptiness proof the
  difftest ``empty:fr`` mutation consults.

Importing this package registers the flow passes in the lint registry.
"""

from repro.analysis.flow import (  # noqa: F401  (imports register the passes)
    applicability,
    model_pass,
)
from repro.analysis.flow.absint import (
    AbstractEnv,
    Interval,
    Tri,
    UnboundRelation,
    env_from_problem,
    eval_expr,
    eval_formula,
    exact,
    render_expr,
    render_formula,
)
from repro.analysis.flow.applicability import (
    dynamic_intervals,
    fr_statically_empty,
)

__all__ = [
    "Tri",
    "Interval",
    "AbstractEnv",
    "UnboundRelation",
    "exact",
    "env_from_problem",
    "eval_expr",
    "eval_formula",
    "render_expr",
    "render_formula",
    "fr_statically_empty",
    "dynamic_intervals",
]
