"""Command-line interface.

::

    litmus-synth models
    litmus-synth table2
    litmus-synth synthesize --model tso --bound 4 [--axiom causality]
                            [--mode exact|execution|execution-wa]
                            [--jobs N] [--checkpoint-dir D] [--json]
                            [--oracle explicit|relational] [--cnf-cache-dir D]
                            [--trace-dir D] [--out suite.json]
                            [--server ADDR]
    litmus-synth check --model tso test.litmus
    litmus-synth show --name MP
    litmus-synth show --file test.litmus
    litmus-synth compare --model tso [--bound 5] [--suite suite.json]
                         [--reference owens|cambridge|suite.json] [--json]
    litmus-synth difftest --model tso [--seed 0] [--budget 100]
                          [--mutants TAG ...] [--corpus-dir D] [--jobs N]
                          [--trace-dir D] [--json]
                          [--list-mutants]
    litmus-synth report TRACE_DIR [--json]
    litmus-synth serve (--socket PATH | --port N) [--pool-workers N]
                       [--cnf-cache-dir D] [--trace-dir D]
    litmus-synth submit --server ADDR --model tso --bound 4 [--wait]
                        [synthesis knobs ...] [--json]
    litmus-synth jobs --server ADDR [--status JOB | --cancel JOB |
                      --metrics | --shutdown] [--json]
    litmus-synth lint [--all-models] [--catalog] [--model tso]
                      [--corpus-dir D] [--trace-dir D] [--format text|json]
                      [--suppress ID[:GLOB]] [tests.litmus ...]

File errors are uniformly reported as ``error: <path>: <reason>`` on
stderr with exit status 2, and so are invalid option combinations
(``error: <reason>``), such as a relational oracle for a model without
an Alloy encoding.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

from repro import analysis
from repro.analysis import selfcheck
from repro.core.compare import compare_suites
from repro.core.enumerator import EnumerationConfig
from repro.core.minimality import CriterionMode, MinimalityChecker
from repro.core.synthesis import (
    ORACLES,
    OracleSpec,
    SynthesisOptions,
    synthesize,
)
from repro.litmus.catalog import (
    CATALOG,
    cambridge_power_suite,
    owens_forbidden,
)
from repro.litmus.execution import Outcome
from repro.litmus.format import ParseError, format_test, parse_test
from repro.litmus.test import LitmusTest
from repro.models.registry import available_models, get_model
from repro.relax.applicability import format_table

__all__ = ["add_oracle_args", "main", "oracle_spec_from_args"]


class _CliError(Exception):
    """A user-facing CLI failure: message to stderr, exit status 2."""


def _file_error(path: str, reason: str) -> _CliError:
    """The one file-error shape every subcommand reports:
    ``error: <path>: <reason>`` (printed by :func:`main`, exit 2)."""
    return _CliError(f"{path}: {reason}")


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise _file_error(path, f"cannot read: {exc.strerror or exc}") from exc


def _load_litmus(path: str) -> tuple[LitmusTest, Outcome | None]:
    """Read and parse a .litmus file, mapping failures to clean errors."""
    text = _read_file(path)
    try:
        return parse_test(text)
    except (ParseError, ValueError) as exc:
        raise _file_error(path, str(exc)) from exc


#: payload schema of ``repro models --json`` (a repro.obs.Report
#: envelope around the registry listing).
MODELS_SCHEMA_NAME = "model-list"
MODELS_SCHEMA_VERSION = 1


def _cmd_models(args) -> int:
    from repro.alloy.models import ALLOY_MODELS
    from repro.relax.instruction import relaxations_for

    names = available_models()
    only = getattr(args, "model", None)
    if only is not None:
        if only not in names:
            raise _CliError(
                f"{only}: unknown model (available: {', '.join(names)})"
            )
        names = (only,)
    rows = []
    for name in names:
        model = get_model(name)
        vocab = model.vocabulary
        axioms = model.axiom_names()
        relaxations = [r.name for r in relaxations_for(vocab)]
        rows.append(
            {
                "name": name,
                "full_name": model.full_name,
                "axioms": list(axioms),
                "axiom_count": len(axioms),
                "vmem": vocab.has_vmem,
                "relaxations": relaxations,
                "relaxation_count": len(relaxations),
                "relational": name in ALLOY_MODELS,
            }
        )
    if getattr(args, "json", False):
        from repro.obs import Report

        report = Report(
            schema_name=MODELS_SCHEMA_NAME,
            schema_version=MODELS_SCHEMA_VERSION,
            command="models",
            payload={"models": rows},
        )
        print(json.dumps(report.to_json_dict(), indent=2))
        return 0
    width = max(len(row["name"]) for row in rows) + 2
    print(
        "".ljust(width)
        + f"{'axioms':>6s} {'vmem':>5s} {'relax':>6s} {'sat':>4s}  name"
    )
    for row in rows:
        print(
            row["name"].ljust(width)
            + f"{row['axiom_count']:>6d} "
            + f"{'yes' if row['vmem'] else '-':>5s} "
            + f"{row['relaxation_count']:>6d} "
            + f"{'yes' if row['relational'] else '-':>4s}  "
            + row["full_name"]
        )
    return 0


def _cmd_table2(_args) -> int:
    print(format_table())
    return 0


def add_oracle_args(parser: argparse.ArgumentParser) -> None:
    """The two oracle-configuration flags, exactly one
    :class:`OracleSpec` worth.

    Every subcommand that builds a request adds these through this one
    helper and reads them back through :func:`oracle_spec_from_args`, so
    a daemon submission and a local run parse the same flags into the
    same spec — and therefore the same request fingerprint — by
    construction."""
    parser.add_argument(
        "--oracle",
        default="explicit",
        choices=list(ORACLES),
        help="criterion oracle: explicit enumeration (default) or the "
        "relational SAT pipeline (identical output, paper-faithful path)",
    )
    parser.add_argument(
        "--cnf-cache-dir",
        default=None,
        help="relational oracle only: on-disk CNF compilation cache "
        "shared across workers and runs",
    )


def oracle_spec_from_args(args) -> OracleSpec:
    """The :class:`OracleSpec` an :func:`add_oracle_args` flag set
    describes (the inverse of the parser half of the pair)."""
    return OracleSpec(oracle=args.oracle, cnf_cache_dir=args.cnf_cache_dir)


def _enumeration_config(args, **flags) -> EnumerationConfig:
    """The model's default bounds for ``--bound``, with each given flag
    value replacing its field (``None`` keeps the default).

    The defaults come from :meth:`SynthesisOptions.resolved_config`, the
    one place that gives transistency models their alias axis, so every
    subcommand that synthesizes enumerates the same space."""
    try:
        base = SynthesisOptions(bound=args.bound).resolved_config(
            get_model(args.model)
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    given = {name: value for name, value in flags.items() if value is not None}
    return dataclasses.replace(base, **given)


def _synthesis_options(args) -> SynthesisOptions:
    """Build the options a ``synthesize``-flavoured arg set describes.

    Shared by ``synthesize`` and ``submit`` so the same flags produce the
    same options — and therefore the same request fingerprint, which is
    what lets a local run and a daemon submission dedup-coalesce."""
    config = _enumeration_config(
        args,
        max_threads=args.max_threads,
        max_addresses=args.max_addresses,
        max_deps=args.max_deps,
        max_rmws=args.max_rmws,
        max_aliases=args.max_aliases,
    )
    try:
        return SynthesisOptions(
            bound=args.bound,
            axioms=[args.axiom] if args.axiom else None,
            mode=CriterionMode(args.mode),
            config=config,
            jobs=args.jobs,
            checkpoint_dir=getattr(args, "checkpoint_dir", None),
            oracle_spec=oracle_spec_from_args(args),
            trace_dir=getattr(args, "trace_dir", None),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _warn_diagnostics(findings) -> None:
    for diag in findings:
        print(
            f"warning: {diag.subject}: {diag.message} [{diag.id}]",
            file=sys.stderr,
        )


def _cmd_synthesize(args) -> int:
    from repro.exec import CheckpointError

    model = get_model(args.model)
    options = _synthesis_options(args)
    findings = analysis.lint_oracle_options(options)
    if args.cnf_cache_dir:
        findings += analysis.lint_cnf_cache_dir(args.cnf_cache_dir)
    _warn_diagnostics(findings)
    if args.server:
        from repro.service import Client, ServiceError

        try:
            result = Client(args.server, timeout=args.timeout).synthesize(
                args.model, options
            )
        except ServiceError as exc:
            raise _file_error(args.server, str(exc)) from exc
    else:
        try:
            result = synthesize(model, options)
        except (CheckpointError, ValueError) as exc:
            raise _CliError(str(exc)) from exc
    _warn_diagnostics(
        analysis.lint_warm_compile(result.oracle_stats, subject="oracle")
    )
    if args.json:
        print(json.dumps(result.to_json_dict(), indent=2))
    else:
        print(result.summary())
    if args.verbose and not args.json:
        for entry in result.union:
            print()
            print(entry.pretty())
    if args.out:
        result.union.save(args.out)
        if not args.json:
            print(f"union suite written to {args.out}")
    if args.litmus_dir:
        written = result.union.save_litmus_dir(args.litmus_dir)
        if not args.json:
            print(f"{len(written)} .litmus files written to {args.litmus_dir}")
    return 0


def _cmd_check(args) -> int:
    model = get_model(args.model)
    test, outcome = _load_litmus(args.test)
    checker = MinimalityChecker(model, CriterionMode(args.mode))
    print(test.pretty())
    if outcome is not None:
        observable = checker.oracle.observable(test, outcome)
        status = "ALLOWED" if observable else "FORBIDDEN"
        print(f"recorded outcome {outcome.pretty(test)}: {status}")
    result = checker.check(test)
    if result.is_minimal:
        assert result.witness is not None
        print(f"MINIMAL — witness {result.witness.pretty(test)}")
    else:
        print(
            "NOT MINIMAL "
            f"(forbidden outcomes: {result.forbidden_count}, "
            f"blocked by: {result.blocking})"
        )
    return 0


def _cmd_show(args) -> int:
    if args.file:
        test, outcome = _load_litmus(args.file)
        print(format_test(test, outcome))
        return 0
    if args.name:
        entry = CATALOG.get(args.name)
        if entry is None:
            raise _CliError(f"unknown test {args.name!r}")
        print(format_test(entry.test, entry.forbidden))
        if entry.note:
            print(f"# {entry.note}")
        return 0
    for name, entry in sorted(CATALOG.items()):
        print(f"{name:16s} [{entry.model}] {entry.note}")
    return 0


_DISABLE_RE = re.compile(r"#\s*lint:\s*disable=([\w:*?,.\[\]-]+)")


def _file_suppressions(path: str, text: str) -> list[analysis.Suppression]:
    """``# lint: disable=ID[,ID...]`` comment lines, scoped to the file
    unless the spec carries its own subject glob."""
    out = []
    for match in _DISABLE_RE.finditer(text):
        for spec in match.group(1).split(","):
            spec = spec.strip()
            if not spec:
                continue
            sup = analysis.parse_suppression(
                spec, reason=f"file directive in {path}"
            )
            if sup.subject == "*":
                sup = analysis.Suppression(
                    sup.id, f"test:{path}*", sup.reason
                )
            out.append(sup)
    return out


def _cmd_lint(args) -> int:
    report = analysis.Report()
    try:
        suppressions = [
            analysis.parse_suppression(spec, reason="command line")
            for spec in args.suppress
        ]
    except ValueError as exc:
        raise _CliError(f"bad --suppress value: {exc}") from exc
    suppressions.extend(selfcheck.REGISTRY_SUPPRESSIONS)
    # With no explicit target, lint everything the repository ships.
    default_all = not (args.paths or args.all_models or args.catalog)
    probe = not args.no_probe
    if args.all_models or default_all:
        report.extend(selfcheck.lint_models(probe).diagnostics)
        report.extend(selfcheck.lint_encoding_smoke().diagnostics)
    if args.catalog or default_all:
        report.extend(selfcheck.lint_catalog().diagnostics)
    if default_all:
        report.extend(selfcheck.lint_obs_smoke().diagnostics)
        report.extend(analysis.lint_mutant_registry().diagnostics)
    if args.corpus_dir:
        report.extend(analysis.lint_corpus(args.corpus_dir))
    if args.trace_dir:
        report.extend(analysis.lint_trace_dir(args.trace_dir))
    model = get_model(args.model) if args.model else None
    named: list[tuple[str, LitmusTest]] = []
    for path in args.paths:
        try:
            text = _read_file(path)
            test, outcome = parse_test(text)
        except (_CliError, ParseError, ValueError) as exc:
            report.extend(
                [
                    analysis.Diagnostic(
                        "LIT006",
                        analysis.Severity.ERROR,
                        f"file:{path}",
                        f"cannot load litmus test: {exc}",
                        hint="fix the syntax (see `repro show --name MP` "
                        "for the format) or the path",
                    )
                ]
            )
            continue
        suppressions.extend(_file_suppressions(path, text))
        named.append((path, test))
        ctx = analysis.LitmusLintContext(path, test, outcome=outcome, model=model)
        report.extend(analysis.run_family("litmus", ctx))
    if len(named) > 1:
        report.extend(analysis.find_duplicate_tests(named))
    report = report.apply_suppressions(suppressions)
    if args.format == "json":
        print(analysis.render_json(report))
    else:
        print(analysis.render_text(report))
    return report.exit_code


def _load_suite(path: str):
    """Load a suite JSON file, mapping failures to clean CLI errors."""
    from repro.core.suite import TestSuite

    text = _read_file(path)
    try:
        return TestSuite.from_json(text)
    except (KeyError, TypeError, ValueError) as exc:
        raise _file_error(path, f"not a suite JSON file: {exc}") from exc


def _reference_entries(spec: str):
    """Resolve ``--reference``: a builtin name or a suite JSON path.

    A file-based reference has no per-test names, so entries are
    labelled by position.
    """
    import types

    if spec == "owens":
        return owens_forbidden()
    if spec == "cambridge":
        return cambridge_power_suite()
    suite = _load_suite(spec)
    return [
        types.SimpleNamespace(name=f"{spec}#{i}", test=entry.test)
        for i, entry in enumerate(suite)
    ]


def _cmd_compare(args) -> int:
    model = get_model(args.model)
    reference = _reference_entries(args.reference)
    result = None
    if args.suite:
        synthesized = _load_suite(args.suite)
    else:
        config = _enumeration_config(args, max_addresses=args.max_addresses)
        try:
            options = SynthesisOptions(bound=args.bound, config=config)
        except ValueError as exc:
            raise _CliError(str(exc)) from exc
        result = synthesize(model, options)
        synthesized = result.union
    comparison = compare_suites(reference, synthesized, model)
    if args.json:
        print(json.dumps(comparison.to_json_dict(), indent=2, sort_keys=True))
        return 0
    if result is not None:
        print(result.summary())
    print(comparison.summary())
    return 0


def _cmd_difftest(args) -> int:
    from repro.difftest import CampaignOptions, GeneratorConfig, run_campaign
    from repro.difftest.mutate import mutant_tags

    if args.list_mutants:
        for tag in mutant_tags(get_model(args.model)):
            print(tag)
        return 0
    mutants = tuple(args.mutants)
    findings = analysis.lint_mutant_tags(args.model, mutants)
    if findings:
        for diag in findings:
            print(
                f"error: {diag.subject}: {diag.message} [{diag.id}]",
                file=sys.stderr,
            )
        return 2
    try:
        options = CampaignOptions(
            model=args.model,
            seed=args.seed,
            budget=args.budget,
            mutants=mutants,
            corpus_dir=args.corpus_dir,
            jobs=args.jobs,
            trace_dir=args.trace_dir,
            generator=GeneratorConfig(
                max_events=args.max_events,
                max_threads=args.max_threads,
                max_addresses=args.max_addresses,
                max_deps=args.max_deps,
                max_rmws=args.max_rmws,
            ),
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    report = run_campaign(options)
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())
    return 0 if report.clean else 1


def _cmd_report(args) -> int:
    from repro.obs import (
        TRACE_REPORT_SCHEMA_NAME,
        TRACE_REPORT_SCHEMA_VERSION,
        Report,
        render_trace_text,
        summarize_trace_dir,
    )

    try:
        payload = summarize_trace_dir(args.trace_dir)
    except (OSError, ValueError) as exc:
        raise _file_error(args.trace_dir, str(exc)) from exc
    _warn_diagnostics(
        analysis.lint_warm_compile(
            payload.get("counters", {}), subject=f"trace:{args.trace_dir}"
        )
    )
    if args.json:
        envelope = Report(
            schema_name=TRACE_REPORT_SCHEMA_NAME,
            schema_version=TRACE_REPORT_SCHEMA_VERSION,
            command="report",
            payload=payload,
        )
        print(envelope.to_json())
    else:
        print(render_trace_text(payload), end="")
    return 0


def _cmd_serve(args) -> int:
    import os
    import tempfile

    from repro.service import JobManager, serve

    if (args.socket is None) == (args.port is None):
        raise _CliError("serve needs exactly one of --socket or --port")
    cnf_cache_dir = args.cnf_cache_dir
    if cnf_cache_dir is None and not args.no_cnf_cache:
        # A stable default so the disk cache layer survives daemon
        # restarts — that persistence is the warm-compile story the
        # compile_hit_rate metric (and the SAT009 lint) measures.  The
        # pool appends one subdirectory per model, so a multi-model
        # daemon never mixes fingerprints (SAT008).
        cnf_cache_dir = os.path.join(tempfile.gettempdir(), "repro-serve-cnf")
    if cnf_cache_dir is not None:
        _warn_diagnostics(analysis.lint_cnf_cache_dir(cnf_cache_dir))
    try:
        manager = JobManager(
            workers=args.pool_workers,
            cnf_cache_dir=cnf_cache_dir,
            trace_dir=args.trace_dir,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc

    def ready(address: str) -> None:
        print(
            f"serving on {address} ({args.pool_workers} process worker(s))",
            flush=True,
        )

    try:
        serve(
            manager,
            socket_path=args.socket,
            host=args.host,
            port=args.port,
            ready=ready,
        )
    except OSError as exc:
        raise _file_error(
            args.socket or f"{args.host}:{args.port}",
            f"cannot bind: {exc.strerror or exc}",
        ) from exc
    finally:
        manager.close()
    return 0


def _service_client(args):
    from repro.service import Client

    return Client(args.server, timeout=args.timeout)


def _print_report(report) -> None:
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))


def _print_progress(event: dict) -> None:
    detail = " ".join(
        f"{key}={event[key]}" for key in sorted(event) if key != "phase"
    )
    print(f"progress: {event.get('phase', '?')} {detail}".rstrip(), file=sys.stderr)


def _cmd_submit(args) -> int:
    from repro.service import JobResult, ServiceError, SynthesisRequest

    options = _synthesis_options(args)
    _warn_diagnostics(analysis.lint_oracle_options(options))
    request = SynthesisRequest(model=args.model, options=options)
    client = _service_client(args)
    try:
        if args.wait:
            # progress events go to stderr as they arrive, the result
            # summary to stdout; --json prints the job-result envelope
            report = client.wait(
                "submit",
                None if args.json else _print_progress,
                request=request.to_payload(),
                wait=True,
            )
            if args.json:
                _print_report(report)
                return 0
            job = JobResult.from_payload(report.payload)
            if job.result is None:
                raise _CliError(
                    f"job {job.job_id} finished {job.state}: "
                    f"{job.error or 'no result'}"
                )
            print(job.result.summary())
            return 0
        status, deduped = client.submit(request)
    except ServiceError as exc:
        raise _file_error(args.server, str(exc)) from exc
    if args.json:
        report = status.to_report()
        report.payload["deduped"] = deduped
        _print_report(report)
    else:
        note = " (coalesced onto an identical active job)" if deduped else ""
        print(f"{status.summary()}{note}")
        print(
            f"poll with: repro jobs --server {args.server} "
            f"--status {status.job_id}"
        )
    return 0


def _cmd_jobs(args) -> int:
    from repro.service import ServiceError

    client = _service_client(args)
    try:
        if args.cancel:
            status = client.cancel(args.cancel)
            if args.json:
                _print_report(status.to_report())
            else:
                print(status.summary())
            return 0
        if args.status:
            status = client.status(args.status)
            if args.json:
                _print_report(status.to_report())
            else:
                print(status.summary())
                for key, value in sorted(status.metrics.items()):
                    print(f"  {key} = {value}")
            return 0
        if args.metrics:
            report = client.call("metrics")
            if args.json:
                _print_report(report)
            else:
                for key, value in sorted(
                    report.payload.get("metrics", {}).items()
                ):
                    print(f"{key} = {value}")
            return 0
        if args.shutdown:
            client.shutdown()
            if not args.json:
                print("shutdown requested")
            return 0
        statuses = client.jobs()
    except ServiceError as exc:
        raise _file_error(args.server, str(exc)) from exc
    if args.json:
        from repro.service.protocol import JOB_LIST_SCHEMA_NAME, envelope

        _print_report(
            envelope(
                JOB_LIST_SCHEMA_NAME,
                1,
                {"jobs": [status.to_payload() for status in statuses]},
            )
        )
    else:
        if not statuses:
            print("no jobs")
        for status in statuses:
            print(status.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="litmus-synth",
        description="Synthesize comprehensive memory model litmus test suites",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "models",
        help="list available memory models",
        description="Lists every registered memory model with its axiom "
        "count, transistency (vmem) support, applicable relaxation "
        "count, and whether the relational SAT oracle covers it.",
    )
    p.add_argument(
        "--model",
        default=None,
        help="show only this model (error if unknown)",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable registry listing as a "
        "repro.obs.Report envelope (model-list v1)",
    )
    sub.add_parser("table2", help="print the relaxation applicability matrix")

    def add_request_flags(p: argparse.ArgumentParser) -> None:
        """Flags describing one synthesis request (shared between
        ``synthesize`` and ``submit``, so equal flags build equal
        fingerprints)."""
        p.add_argument("--model", required=True, choices=available_models())
        p.add_argument("--bound", type=int, default=4)
        p.add_argument("--axiom", default=None)
        p.add_argument(
            "--mode",
            default="exact",
            choices=[m.value for m in CriterionMode],
        )
        p.add_argument("--max-threads", type=int, default=4)
        p.add_argument("--max-addresses", type=int, default=3)
        p.add_argument("--max-deps", type=int, default=2)
        p.add_argument("--max-rmws", type=int, default=2)
        p.add_argument(
            "--max-aliases",
            type=int,
            default=None,
            help="virtual->physical alias merges per candidate (default: "
            "1 for models with transistency support, 0 otherwise)",
        )
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes; >1 runs the sharded parallel runtime "
            "(output is identical to --jobs 1)",
        )
        add_oracle_args(p)

    def add_server_flag(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument(
            "--server",
            required=required,
            default=None,
            metavar="ADDR",
            help="synthesis daemon address: a unix socket path or host:port",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="seconds to wait for each answer from the daemon; a "
            "waiting exchange answers once per progress event (default: "
            "no limit)",
        )

    p = sub.add_parser("synthesize", help="synthesize suites for a model")
    add_request_flags(p)
    p.add_argument("--out", default=None, help="write union suite JSON here")
    p.add_argument(
        "--litmus-dir",
        default=None,
        help="write one .litmus text file per synthesized test here",
    )
    p.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist per-shard results here; rerunning with the same "
        "options resumes from completed shards",
    )
    p.add_argument(
        "--trace-dir",
        default=None,
        help="write a repro.obs trace here (driver/shard span timings "
        "plus a deterministic merged stream); render with `repro report`",
    )
    add_server_flag(p, required=False)
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result as a repro.obs.Report "
        "envelope (synthesis-result v4) instead of the text report",
    )
    p.add_argument("-v", "--verbose", action="store_true")

    p = sub.add_parser("check", help="check a .litmus file for minimality")
    p.add_argument("--model", required=True, choices=available_models())
    p.add_argument(
        "--mode",
        default="exact",
        choices=[m.value for m in CriterionMode],
    )
    p.add_argument("test", help="path to a litmus text file")

    p = sub.add_parser("show", help="print catalog tests")
    p.add_argument("--name", default=None)
    p.add_argument("--file", default=None, help="print a .litmus file instead")

    p = sub.add_parser(
        "compare",
        help="compare a suite against a published or saved reference",
        description="Synthesizes a suite (or loads one via --suite) and "
        "reports the Table 4-style subsumption comparison against the "
        "reference.",
    )
    p.add_argument("--model", required=True, choices=available_models())
    p.add_argument("--bound", type=int, default=5)
    p.add_argument("--max-addresses", type=int, default=3)
    p.add_argument(
        "--suite",
        default=None,
        help="compare this saved suite JSON instead of synthesizing one",
    )
    p.add_argument(
        "--reference",
        default="owens",
        help="builtin reference suite (owens, cambridge) or a path to a "
        "suite JSON file",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable comparison instead of text",
    )

    p = sub.add_parser(
        "difftest",
        help="run a differential-testing campaign over both oracles",
        description="Fuzzes seeded random litmus tests through the "
        "explicit and relational oracles plus the minimality criterion, "
        "optionally injecting known-buggy model mutants, and shrinks "
        "every disagreement to a minimal reproducer. Exit status: "
        "0 clean, 1 discrepancies/survivors/stale corpus entries, "
        "2 usage error.",
    )
    p.add_argument("--model", required=True, choices=available_models())
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget",
        type=int,
        default=100,
        help="number of random tests to generate and check",
    )
    p.add_argument(
        "--mutants",
        action="append",
        default=[],
        metavar="TAG",
        help="inject a known-buggy mutant (repeatable; see --list-mutants)",
    )
    p.add_argument(
        "--list-mutants",
        action="store_true",
        help="print the mutant tags the registry advertises and exit",
    )
    p.add_argument(
        "--corpus-dir",
        default=None,
        help="persist shrunken reproducers here and replay them first",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes; output is byte-identical to --jobs 1",
    )
    p.add_argument("--max-events", type=int, default=4)
    p.add_argument("--max-threads", type=int, default=3)
    p.add_argument("--max-addresses", type=int, default=2)
    p.add_argument("--max-deps", type=int, default=1)
    p.add_argument("--max-rmws", type=int, default=1)
    p.add_argument(
        "--trace-dir",
        default=None,
        help="write a repro.obs trace of the campaign here; render "
        "with `repro report`",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable campaign report",
    )

    p = sub.add_parser(
        "report",
        help="render a --trace-dir directory into per-phase tables",
        description="Summarizes a repro.obs trace directory (written by "
        "`synthesize --trace-dir` or `difftest --trace-dir`) into "
        "per-phase and per-shard timing tables plus merged counters.",
    )
    p.add_argument("trace_dir", help="trace directory to render")
    p.add_argument(
        "--json",
        action="store_true",
        help="print the report as a repro.obs.Report envelope "
        "(trace-report v1) instead of text tables",
    )

    p = sub.add_parser(
        "serve",
        help="run the synthesis-as-a-service daemon",
        description="Starts a daemon answering synthesis requests over a "
        "unix socket (--socket) or TCP (--port). Resident workers keep "
        "oracle caches warm across jobs; identical concurrent "
        "submissions coalesce onto one job. Talk to it with "
        "`repro submit`, `repro jobs`, or `synthesize --server`.",
    )
    p.add_argument("--socket", default=None, help="unix socket path to bind")
    p.add_argument("--port", type=int, default=None, help="TCP port to bind")
    p.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p.add_argument(
        "--pool-workers",
        type=int,
        default=1,
        help="resident worker processes (each keeps its own warm "
        "caches and runs jobs in parallel with the others)",
    )
    p.add_argument(
        "--cnf-cache-dir",
        default=None,
        help="base directory for the per-model CNF compilation caches "
        "(default: a stable path under the system temp dir, so the "
        "cache survives daemon restarts)",
    )
    p.add_argument(
        "--no-cnf-cache",
        action="store_true",
        help="disable the default on-disk CNF cache",
    )
    p.add_argument(
        "--trace-dir",
        default=None,
        help="write a repro.obs trace of served jobs here (one span per "
        "job plus per-job oracle counters); render with `repro report`",
    )

    p = sub.add_parser(
        "submit",
        help="submit a synthesis request to a daemon",
        description="Sends one synthesis request to a `repro serve` "
        "daemon and prints the queued job (or, with --wait, the final "
        "result). Identical requests submitted while one is active "
        "coalesce onto the same job.",
    )
    add_request_flags(p)
    add_server_flag(p, required=True)
    p.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print the result",
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable job-status (or, with --wait, "
        "job-result) envelope",
    )

    p = sub.add_parser(
        "jobs",
        help="inspect a daemon's job queue",
        description="Lists a `repro serve` daemon's jobs, or inspects "
        "one (--status), cancels a queued one (--cancel), dumps service "
        "counters (--metrics), or stops the daemon (--shutdown).",
    )
    add_server_flag(p, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--status", default=None, metavar="JOB", help="show one job")
    group.add_argument(
        "--cancel", default=None, metavar="JOB", help="cancel a queued job"
    )
    group.add_argument(
        "--metrics",
        action="store_true",
        help="print service counters (queue depth, dedup hits, worker "
        "warm-cache reuse)",
    )
    group.add_argument(
        "--shutdown", action="store_true", help="ask the daemon to exit"
    )
    p.add_argument(
        "--json",
        action="store_true",
        help="print machine-readable repro.obs.Report envelopes",
    )

    p = sub.add_parser(
        "lint",
        help="lint models, catalog tests, and .litmus files",
        description="With no target, lints every registered model plus "
        "the full catalog (the CI gate). Exit status: 0 clean, "
        "1 warnings, 2 errors.",
    )
    p.add_argument("paths", nargs="*", help=".litmus files to lint")
    p.add_argument(
        "--all-models",
        action="store_true",
        help="lint every registered memory model",
    )
    p.add_argument(
        "--catalog",
        action="store_true",
        help="lint every catalog litmus test",
    )
    p.add_argument(
        "--model",
        default=None,
        choices=available_models(),
        help="model vocabulary to lint the given files against",
    )
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument(
        "--suppress",
        action="append",
        default=[],
        metavar="ID[:GLOB]",
        help="silence a diagnostic id, optionally scoped by subject glob "
        "(repeatable)",
    )
    p.add_argument(
        "--no-probe",
        action="store_true",
        help="skip the tiny-bound axiom satisfiability probes",
    )
    p.add_argument(
        "--corpus-dir",
        default=None,
        help="also replay a difftest reproducer corpus and flag stale "
        "entries (DIF001/DIF002)",
    )
    p.add_argument(
        "--trace-dir",
        default=None,
        help="also lint a repro.obs trace directory for unclosed spans "
        "and mixed schemas (OBS001/OBS002)",
    )

    return parser


_COMMANDS = {
    "models": _cmd_models,
    "table2": _cmd_table2,
    "synthesize": _cmd_synthesize,
    "check": _cmd_check,
    "show": _cmd_show,
    "compare": _cmd_compare,
    "difftest": _cmd_difftest,
    "report": _cmd_report,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "lint": _cmd_lint,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
