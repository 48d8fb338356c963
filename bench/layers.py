"""Per-layer self times for traced benchmark jobs.

A traced job times calls into the public entry point of each pipeline
layer from outside the program: the enumerator's candidate stream, the
criterion check, the relaxations and the oracle are wrapped where
``run_sequential`` and ``MinimalityChecker`` accept them as arguments;
``canonical_form``, ``TestSuite.add`` and the SAT entry points are
patched for the duration of the job only.  The program's code path is
unchanged, which the golden digests of traced jobs confirm.

Each layer keeps one record per job (summed self time plus call count);
there is no span per call.  A layer's self time is its call time minus
the time spent in nested timed calls, so the self times of one job add
up to the part of the job's wall time the layers cover.
"""

from __future__ import annotations

import contextlib
import glob
import os
import statistics
import time
from collections.abc import Callable, Iterable, Iterator

__all__ = [
    "SelfTimer",
    "traced_sequential_job",
    "exec_metrics",
]


class SelfTimer:
    """Summed self time and call count per layer name.

    ``clock`` is injectable so the accounting can be tested with a fake
    clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: layer name -> [self seconds, calls]
        self.records: dict[str, list] = {}
        #: time spent in timed children, one accumulator per open call
        self._stack: list[float] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` with its calls charged to layer ``name``."""
        record = self.records.setdefault(name, [0.0, 0])
        stack = self._stack
        clock = self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record[0] += elapsed - stack.pop()
                record[1] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Re-yield ``iterable``, charging each ``next`` to ``name``."""
        step = self.wrap(name, iter(iterable).__next__)
        while True:
            try:
                item = step()
            except StopIteration:
                return
            yield item

    def seconds(self, name: str) -> float:
        return self.records.get(name, (0.0, 0))[0]

    def calls(self, name: str) -> int:
        return self.records.get(name, (0.0, 0))[1]

    def total(self) -> float:
        return sum(record[0] for record in self.records.values())


class _TimedRelaxation:
    """A relaxation whose ``applications``/``apply`` calls are timed.

    ``applications`` is a generator in the program; the wrapper drains it
    inside the timed call so the work is charged where it happens.
    """

    def __init__(self, inner, timer: SelfTimer):
        self._inner = inner
        self.name = inner.name
        self.applications = timer.wrap(
            "relax.applications",
            lambda test, vocab: list(inner.applications(test, vocab)),
        )
        self.apply = timer.wrap("relax.apply", inner.apply)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


@contextlib.contextmanager
def _patched(timer: SelfTimer):
    """Time the layers the loop reaches through module/class lookups."""
    from repro.core import suite, synthesis
    from repro.relational.solve import ModelFinder
    from repro.sat.solver import Solver

    targets = [
        (synthesis, "canonical_form", "canonicalize"),
        (suite.TestSuite, "add", "merge"),
        (ModelFinder, "assert_formula", "sat.compile"),
        (ModelFinder, "selector_for", "sat.compile"),
        (Solver, "solve", "sat.solve"),
    ]
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, layer in targets:
            setattr(owner, attr, timer.wrap(layer, vars(owner)[attr]))
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def traced_sequential_job(model_name: str, bound: int, oracle: str):
    """Run one sequential synthesis job with every layer timed.

    Returns ``(result, wall_seconds, metrics, records)``: the program's
    :class:`SynthesisResult`, the job's wall time, the per-layer metrics,
    and the raw ``{layer: [self seconds, calls]}`` records.
    """
    from repro.core.enumerator import enumerate_tests
    from repro.core.minimality import MinimalityChecker
    from repro.core.synthesis import (
        OracleSpec,
        SynthesisOptions,
        build_checker,
        run_sequential,
    )
    from repro.models.registry import get_model

    timer = SelfTimer()
    minimal = 0

    start = time.perf_counter()
    model = get_model(model_name)
    opts = SynthesisOptions(bound=bound, oracle_spec=OracleSpec(oracle=oracle))
    # build_checker resolves the spec exactly as synthesize() does; the
    # bench then re-threads its oracle and relaxations through timers.
    plain = build_checker(model, opts.mode, opts.oracle_spec)
    backend = plain.oracle
    backend.analyze = timer.wrap("oracle.analyze", backend.analyze)
    backend.observable = timer.wrap("oracle.observe", backend.observable)
    checker = MinimalityChecker(
        model,
        opts.mode,
        relaxations=tuple(_TimedRelaxation(r, timer) for r in plain.relaxations),
        oracle=backend,
    )
    check = timer.wrap("criterion", checker.check)

    def counted_check(test, axiom=None):
        nonlocal minimal
        outcome = check(test, axiom)
        minimal += outcome.is_minimal
        return outcome

    checker.check = counted_check
    stream = timer.iterate(
        "enumerate",
        enumerate_tests(model.vocabulary, opts.resolved_config(model)),
    )
    traced_opts = SynthesisOptions(
        bound=bound, oracle_spec=opts.oracle_spec, candidates=stream
    )
    with _patched(timer):
        result = run_sequential(model, traced_opts, checker=checker)
    wall = time.perf_counter() - start
    metrics = _sequential_metrics(timer, result, wall, minimal)
    return result, wall, metrics, timer.records


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _sequential_metrics(timer: SelfTimer, result, wall: float, minimal: int) -> dict:
    stats = result.oracle_stats
    enumerate_s = timer.seconds("enumerate")
    analyze_s = timer.seconds("oracle.analyze")
    checks = timer.calls("criterion")
    return {
        "enumerate.s": enumerate_s,
        "enumerate.share": _ratio(enumerate_s, wall),
        "enumerate.candidates": result.candidates,
        "enumerate.candidates_per_s": _ratio(result.candidates, enumerate_s),
        "canonicalize.s": timer.seconds("canonicalize"),
        "canonicalize.unique_ratio": _ratio(
            result.unique_candidates, result.candidates
        ),
        "relax.s": timer.seconds("relax.applications")
        + timer.seconds("relax.apply"),
        "relax.applications": timer.calls("relax.apply"),
        "criterion.s": timer.seconds("criterion"),
        "criterion.checks": checks,
        "criterion.minimal_ratio": _ratio(minimal, checks),
        "oracle.analyze.s": analyze_s,
        "oracle.observe.s": timer.seconds("oracle.observe"),
        "oracle.analyses": stats.get("analyses", 0),
        "oracle.analysis_hit_rate": stats.get("analysis_hit_rate", 0.0),
        "oracle.observe_hit_rate": stats.get("observe_hit_rate", 0.0),
        "oracle.executions": stats.get("executions", 0),
        "oracle.us_per_execution": 1e6 * _ratio(
            analyze_s, stats.get("executions", 0)
        ),
        "sat.compile.s": timer.seconds("sat.compile"),
        "sat.solve.s": timer.seconds("sat.solve"),
        "sat.queries": stats.get("sat_queries", 0),
        "sat.reuse_rate": stats.get("sat_reuse_rate", 0.0),
        "sat.conflicts": stats.get("sat_conflicts", 0),
        "cnf.compile_hit_rate": stats.get("compile_hit_rate", 0.0),
        "merge.s": timer.seconds("merge"),
        "suite.union_tests": len(result.union),
        "trace.coverage": _ratio(timer.total(), wall),
    }


def exec_metrics(trace_dir: str, result, wall: float, sequential_wall: float):
    """Sharded-runtime metrics from a run's own ``trace_dir`` spans.

    Returns ``(metrics, records)``; the records are the driver's
    top-level phase spans (plan, replay, shards, merge) in the same
    ``{name: [seconds, calls]}`` shape as :class:`SelfTimer` records.
    """
    from repro.obs import read_events

    shard_walls = [
        event["wall"]
        for path in glob.glob(os.path.join(trace_dir, "shard-*.jsonl"))
        for event in read_events(path)
        if event.get("ev") == "span" and event.get("name") == "shard"
    ]
    phases: dict[str, list] = {}
    for event in read_events(os.path.join(trace_dir, "driver.jsonl")):
        if event.get("ev") == "span" and event.get("parent") is None:
            phases[event["name"]] = [event["wall"], 1]
    phase_total = sum(seconds for seconds, _ in phases.values())
    metrics = {
        "exec.cpu_s": result.cpu_seconds,
        "exec.cpu_inflation": _ratio(result.cpu_seconds, sequential_wall),
        "exec.shard_imbalance": _ratio(
            max(shard_walls, default=0.0),
            statistics.fmean(shard_walls) if shard_walls else 0.0,
        ),
        "exec.merge_s": phases.get("merge", [0.0])[0],
        "suite.union_tests": len(result.union),
        "trace.coverage": _ratio(phase_total, wall),
    }
    return metrics, phases
