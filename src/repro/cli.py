"""Command-line interface mirroring the paper's Figure 3 workflow.

::

    $ kremlin-cc tracking.c            # compile + instrument (validation)
    $ kremlin tracking.c --personality=openmp
    $ kremlin tracking.c --regions     # discovery table instead of a plan
    $ kremlin tracking.c --metrics     # runtime counters on stderr
    $ kremlin trace tracking.c         # Chrome trace_event JSON on stdout
    $ kremlin run tracking.c --parallel  # execute safe loops on a pool
    $ kremlin serve /var/kremlin/store   # profile-store service
    $ kremlin submit tracking.c --port-file /tmp/kremlin.port --plan
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from repro.api import (
    CompileOptions,
    KremlinSession,
    PlanOptions,
    ProfileOptions,
)
from repro.frontend.errors import MiniCError
from repro.hcpa import (
    ProfileFormatError,
    aggregate_profile,
    load_profile,
    save_profile,
)
from repro.instrument import kremlin_cc
from repro.interp.errors import InterpreterError
from repro.ir.printer import print_module
from repro.obs import (
    MetricsRegistry,
    Tracer,
    chrome_trace,
    collecting_metrics,
    render_metrics,
    render_tree,
)
from repro.planner.registry import available_personalities, create_planner
from repro.report import format_flat_profile, format_plan, format_region_table


ENGINES = ("compiled", "tree")


def _check_engine(parser: argparse.ArgumentParser, name: str) -> str:
    """Validate an ``--engine`` value: exit 2 with a suggestion on typos
    instead of letting an unknown name traceback deep in the pipeline."""
    if name in ENGINES:
        return name
    import difflib

    close = difflib.get_close_matches(name, ENGINES, n=1)
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    parser.error(
        f"unknown engine {name!r}: choose from {', '.join(ENGINES)}{hint}"
    )


def _read_source(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def main(argv: list[str] | None = None) -> int:
    """``kremlin``: profile a program and print its parallelism plan."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "fuzz":
        # `kremlin fuzz`: differential fuzzing of the two engines plus the
        # HCPA invariant oracle (see repro.fuzz).
        from repro.fuzz.harness import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "trace":
        # `kremlin trace`: run the full pipeline under a tracer and emit a
        # Chrome trace_event document (load in about:tracing or Perfetto).
        return _trace_main(argv[1:])
    if argv and argv[0] == "check":
        # `kremlin check`: static dependence analysis + lint, no execution.
        return _check_main(argv[1:])
    if argv and argv[0] == "run":
        # `kremlin run`: execute a program, optionally running its safe
        # loops on the parallel backend (see repro.parallel).
        return _run_main(argv[1:])
    if argv and argv[0] == "serve":
        # `kremlin serve`: the profile-store service (see repro.service).
        return _serve_main(argv[1:])
    if argv and argv[0] == "submit":
        # `kremlin submit`: profile locally, submit to a running server.
        return _submit_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="kremlin",
        description=(
            "Profile a serial MiniC program with hierarchical critical path "
            "analysis and print an ordered parallelism plan."
        ),
    )
    parser.add_argument(
        "sources",
        nargs="*",
        metavar="source",
        help="MiniC source file(s) (omit when planning --from-profile)",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="profile multiple sources in N parallel worker processes",
    )
    parser.add_argument(
        "--personality",
        default="openmp",
        choices=available_personalities(),
        help="planner personality (default: openmp)",
    )
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--limit", type=int, default=None, help="show only the first N regions"
    )
    parser.add_argument(
        "--regions",
        action="store_true",
        help="print the full region discovery table instead of a plan",
    )
    parser.add_argument(
        "--exclude",
        default="",
        help="comma-separated region ids to exclude before planning",
    )
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="limit the profiled region depth (paper's depth window flag)",
    )
    parser.add_argument(
        "--engine",
        default="compiled",
        help=(
            "execution engine: compiled (AOT codegen, default) or tree "
            "(reference)"
        ),
    )
    parser.add_argument(
        "--compression",
        action="store_true",
        help="also print trace compression statistics",
    )
    parser.add_argument(
        "--flat",
        action="store_true",
        help="also print a classic gprof-style flat profile",
    )
    parser.add_argument(
        "--save-profile",
        metavar="PATH",
        default=None,
        help="write the parallelism profile to a JSON file",
    )
    parser.add_argument(
        "--format",
        default="table",
        choices=["table", "csv", "markdown"],
        help="plan output format (default: table)",
    )
    parser.add_argument(
        "--dot",
        metavar="PATH",
        default=None,
        help="write the dynamic region graph (plan highlighted) as DOT",
    )
    parser.add_argument(
        "--curve",
        action="store_true",
        help="also print the speedup-vs-cores curve for the plan",
    )
    parser.add_argument(
        "--from-profile",
        metavar="PATH",
        default=None,
        help="plan from a previously saved profile instead of running",
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="pretty",
        choices=["json", "pretty"],
        default=None,
        help=(
            "collect runtime self-profiling counters and print them to "
            "stderr (optionally as JSON)"
        ),
    )
    options = parser.parse_args(argv)
    _check_engine(parser, options.engine)

    if options.jobs < 1:
        parser.error("--jobs must be >= 1")
    if options.from_profile is not None:
        return _plan_from_profile(options)
    if not options.sources:
        parser.error("a source file (or --from-profile) is required")
    if len(options.sources) > 1 and (options.save_profile or options.dot):
        parser.error(
            "--save-profile/--dot write a single output file and cannot be "
            "combined with multiple sources"
        )

    # Workers never print: each source renders to (code, stdout, stderr)
    # strings and the parent emits them in input order, so --jobs output is
    # byte-identical to a serial run.
    if options.jobs > 1 and len(options.sources) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel.nesting import mark_pool_worker

        jobs = min(options.jobs, len(options.sources))
        with ProcessPoolExecutor(
            max_workers=jobs, initializer=mark_pool_worker
        ) as pool:
            rendered = list(
                pool.map(
                    _render_source_job,
                    [(options, path) for path in options.sources],
                )
            )
    else:
        rendered = [
            _render_source_job((options, path)) for path in options.sources
        ]

    status = 0
    multiple = len(options.sources) > 1
    for path, (code, out, err) in zip(options.sources, rendered):
        if multiple:
            print(f"== {path} ==")
        sys.stdout.write(out)
        sys.stderr.write(err)
        status = status or code
    return status


def _render_source_job(job: tuple) -> tuple[int, str, str]:
    """Analyze one source; returns (exit code, stdout text, stderr text).
    Module-level and picklable-argument so it can run in a worker process."""
    options, path = job
    out, err = io.StringIO(), io.StringIO()
    code = _render_source(options, path, out, err)
    return code, out.getvalue(), err.getvalue()


def _build_session(options, path: str, **obs) -> KremlinSession:
    return KremlinSession(
        compile_options=CompileOptions(filename=path),
        profile_options=ProfileOptions(
            entry=options.entry,
            max_depth=options.max_depth,
            engine=getattr(options, "engine", "compiled"),
        ),
        plan_options=PlanOptions(personality=options.personality),
        **obs,
    )


def _render_source(options, path: str, out, err) -> int:
    # Metrics are collected per source with a fresh registry so --jobs
    # workers report exactly their own counters; the registry is installed
    # for the whole body so profile serialization is counted too.
    metrics = (
        MetricsRegistry() if getattr(options, "metrics", None) else None
    )
    if metrics is not None:
        with collecting_metrics(metrics):
            code = _render_source_inner(options, path, out, err)
        print(f"-- metrics: {path} --", file=err)
        if options.metrics == "json":
            print(json.dumps(metrics.to_dict(), sort_keys=True), file=err)
        else:
            print(render_metrics(metrics), file=err)
        return code
    return _render_source_inner(options, path, out, err)


def _render_source_inner(options, path: str, out, err) -> int:
    try:
        source = _read_source(path)
        report = _build_session(options, path).analyze(source)
        if options.exclude:
            excluded = {int(x) for x in options.exclude.split(",") if x.strip()}
            report.plan = create_planner(options.personality).plan(
                report.aggregated, frozenset(excluded)
            )
    except (MiniCError, InterpreterError, OSError, ValueError) as error:
        print(f"kremlin: error: {error}", file=err)
        return 1

    if options.save_profile:
        save_profile(report.profile, options.save_profile)

    if options.dot:
        from repro.report import dynamic_region_dot

        with open(options.dot, "w", encoding="utf-8") as handle:
            handle.write(
                dynamic_region_dot(report.aggregated, report.plan.region_ids)
            )

    if options.regions:
        print(report.render_regions(), file=out)
    elif options.format == "csv":
        from repro.report import plan_to_csv

        print(plan_to_csv(report.plan), end="", file=out)
    elif options.format == "markdown":
        from repro.report import plan_to_markdown

        print(plan_to_markdown(report.plan), file=out)
    else:
        print(report.render_plan(options.limit), file=out)
    if options.flat:
        print(file=out)
        print(format_flat_profile(report.aggregated), file=out)
    if options.compression:
        print(file=out)
        print(f"trace compression: {report.compression}", file=out)
    if options.curve:
        from repro.exec_model import format_curve, speedup_curve, upperbound_curve

        print(file=out)
        print("Speedup vs cores for this plan:", file=out)
        print(
            format_curve(
                speedup_curve(report.profile, report.plan.region_ids),
                upperbound_curve(report.profile, report.plan.region_ids),
            ),
            file=out,
        )
    return 0


def _plan_from_profile(options) -> int:
    """Plan from a saved parallelism profile (no compile, no run)."""
    try:
        profile = load_profile(options.from_profile)
        aggregated = aggregate_profile(profile)
        excluded = frozenset(
            int(x) for x in options.exclude.split(",") if x.strip()
        )
        plan = create_planner(options.personality).plan(aggregated, excluded)
        plan.program_name = profile.program_name
    except (ProfileFormatError, OSError, ValueError) as error:
        print(f"kremlin: error: {error}", file=sys.stderr)
        return 1
    if options.regions:
        print(format_region_table(aggregated))
    else:
        print(format_plan(plan, options.limit))
    if options.flat:
        print()
        print(format_flat_profile(aggregated))
    return 0


def _run_main(argv: list[str]) -> int:
    """``kremlin run``: execute a program, optionally in parallel.

    Without ``--parallel`` this is a plain serial run: compile, execute,
    print the program's output. With ``--parallel`` the analyzed plan's
    SAFE_DOALL / SAFE_WITH_REDUCTION loops are chunked over a process
    pool (see docs/PARALLEL.md); output stays byte-identical to serial —
    any divergence or failure falls back to the serial result — and a
    measured-vs-predicted speedup report is printed to stderr.
    """
    parser = argparse.ArgumentParser(
        prog="kremlin run",
        description=(
            "Execute a MiniC program. With --parallel, run its statically "
            "safe loops chunked over a process pool and report measured "
            "vs predicted speedup."
        ),
    )
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument(
        "--parallel",
        action="store_true",
        help="execute SAFE_DOALL plan loops on the parallel backend",
    )
    parser.add_argument(
        "--workers",
        "--parallel-workers",
        dest="workers",
        type=int,
        default=2,
        help="total parallel lanes, master included (default: 2)",
    )
    parser.add_argument(
        "--mode",
        default="fork",
        choices=["fork", "inline"],
        help=(
            "chunk transport: fork = process pool (default), inline = "
            "in-process (deterministic, for debugging)"
        ),
    )
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--engine",
        default="compiled",
        help="execution engine: compiled (default) or tree",
    )
    parser.add_argument(
        "--personality",
        default="openmp",
        choices=available_personalities(),
        help="planner personality used to pick loops (default: openmp)",
    )
    parser.add_argument(
        "--allow-float-reductions",
        action="store_true",
        help=(
            "parallelize float reductions despite reassociation "
            "(result may differ in low bits; see docs/PARALLEL.md)"
        ),
    )
    parser.add_argument(
        "--no-report",
        action="store_true",
        help="suppress the measured-vs-predicted report on stderr",
    )
    options = parser.parse_args(argv)
    _check_engine(parser, options.engine)
    if options.workers < 1:
        parser.error("--workers must be >= 1")

    try:
        source = _read_source(options.source)
    except OSError as error:
        print(f"kremlin: error: {error}", file=sys.stderr)
        return 1

    if not options.parallel:
        from repro.interp import Interpreter

        try:
            program = kremlin_cc(source, options.source)
            interp = Interpreter(program, engine=options.engine)
            result = interp.run(options.entry)
        except (MiniCError, InterpreterError) as error:
            print(f"kremlin: error: {error}", file=sys.stderr)
            return 1
        for line in result.output:
            print(line)
        return 0

    from repro.api import ParallelOptions

    session = KremlinSession(
        compile_options=CompileOptions(filename=options.source),
        profile_options=ProfileOptions(
            entry=options.entry, engine=options.engine
        ),
        plan_options=PlanOptions(personality=options.personality),
        execute_options=ParallelOptions(
            workers=options.workers,
            mode=options.mode,
            allow_float_reductions=options.allow_float_reductions,
        ),
    )
    try:
        report = session.execute(source)
    except (MiniCError, InterpreterError, ValueError) as error:
        print(f"kremlin: error: {error}", file=sys.stderr)
        return 1

    outcome = report.outcome
    result = (
        outcome.parallel_result if outcome.executed else outcome.serial_result
    )
    for line in result.output:
        print(line)
    if not options.no_report:
        print(report.comparison.render(), file=sys.stderr)
        if outcome.fallback:
            print(
                f"kremlin run: serial fallback: {outcome.fallback_reason}",
                file=sys.stderr,
            )
        if outcome.mismatch is not None:
            print(
                "kremlin run: parallel result mismatched serial "
                f"(serial stands): {outcome.mismatch}",
                file=sys.stderr,
            )
        for refused in outcome.refused:
            print(
                f"kremlin run: refused {refused.region_name} "
                f"({refused.location}): {refused.reason}",
                file=sys.stderr,
            )
    return 0


def _serve_main(argv: list[str]) -> int:
    """``kremlin serve``: run the profile-store service.

    Accepts concurrent ``compile``, ``check``, ``profile-submit``,
    ``plan``, and ``query-summary`` requests as versioned JSON envelopes
    over TCP, backed by a sharded on-disk profile store (see
    docs/SERVICE.md). Runs until interrupted.
    """
    parser = argparse.ArgumentParser(
        prog="kremlin serve",
        description=(
            "Serve the Kremlin pipeline over TCP: typed compile/check/"
            "profile-submit/plan/query-summary requests against a sharded "
            "on-disk profile store."
        ),
    )
    parser.add_argument("store", help="profile store directory (created)")
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (0 = ephemeral)"
    )
    parser.add_argument(
        "--workers", type=int, default=4, help="session worker threads"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="store shard count (first open pins it; default 8)",
    )
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help='write "host port" here once bound (for scripts)',
    )
    parser.add_argument(
        "--metrics",
        nargs="?",
        const="pretty",
        choices=["json", "pretty"],
        default=None,
        help="print server counters to stderr on shutdown",
    )
    options = parser.parse_args(argv)
    if options.workers < 1:
        parser.error("--workers must be >= 1")

    import asyncio

    from repro.service.server import KremlinServer
    from repro.service.store import ProfileStore, ProfileStoreError

    try:
        store = (
            ProfileStore(options.store, shards=options.shards)
            if options.shards is not None
            else ProfileStore(options.store)
        )
    except (ProfileStoreError, OSError, ValueError) as error:
        print(f"kremlin serve: error: {error}", file=sys.stderr)
        return 1
    server = KremlinServer(
        store, host=options.host, port=options.port, workers=options.workers
    )

    async def _serve() -> None:
        host, port = await server.start()
        print(
            f"kremlin serve: listening on {host}:{port}, "
            f"store at {options.store} ({store.shards} shards)",
            file=sys.stderr,
        )
        if options.port_file:
            with open(options.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{host} {port}\n")
        await server.serve_forever()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("kremlin serve: interrupted, shutting down", file=sys.stderr)
    if options.metrics:
        print("-- metrics: kremlin serve --", file=sys.stderr)
        if options.metrics == "json":
            print(
                json.dumps(server.metrics.to_dict(), sort_keys=True),
                file=sys.stderr,
            )
        else:
            print(render_metrics(server.metrics), file=sys.stderr)
    return 0


def _submit_main(argv: list[str]) -> int:
    """``kremlin submit``: profile programs locally, submit the profiles
    to a running ``kremlin serve``, and (optionally) ask it to plan over
    everything it has seen for each program."""
    parser = argparse.ArgumentParser(
        prog="kremlin submit",
        description=(
            "Profile MiniC program(s) locally and submit the parallelism "
            "profiles to a running kremlin serve instance."
        ),
    )
    parser.add_argument(
        "sources", nargs="*", help="MiniC source file(s) to profile + submit"
    )
    parser.add_argument(
        "--profile",
        action="append",
        default=None,
        metavar="PATH",
        help="submit an already-saved profile JSON file (repeatable)",
    )
    parser.add_argument("--host", default="127.0.0.1", help="server address")
    parser.add_argument("--port", type=int, default=None, help="server port")
    parser.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help='read "host port" from a kremlin serve --port-file',
    )
    parser.add_argument(
        "--plan",
        action="store_true",
        help="after submitting, print the server's merged plan per program",
    )
    parser.add_argument(
        "--personality",
        default="openmp",
        choices=available_personalities(),
        help="planner personality for --plan (default: openmp)",
    )
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="limit the profiled region depth",
    )
    parser.add_argument(
        "--engine",
        default="compiled",
        help="execution engine: compiled (default) or tree",
    )
    options = parser.parse_args(argv)
    _check_engine(parser, options.engine)
    if not options.sources and not options.profile:
        parser.error("nothing to submit: pass source file(s) or --profile")
    host, port = options.host, options.port
    if options.port_file:
        try:
            with open(options.port_file, "r", encoding="utf-8") as handle:
                host, port = handle.read().split()
            port = int(port)
        except (OSError, ValueError) as error:
            print(
                f"kremlin submit: bad --port-file: {error}", file=sys.stderr
            )
            return 1
    if port is None:
        parser.error("--port (or --port-file) is required")

    from repro.hcpa.serialize import profile_to_json
    from repro.service.client import KremlinClient, ServiceError
    from repro.service.protocol import ProtocolError

    documents: list[tuple[str, dict]] = []
    for path in options.profile or []:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                documents.append((path, json.load(handle)))
        except (OSError, ValueError) as error:
            print(f"kremlin submit: error: {error}", file=sys.stderr)
            return 1
    for path in options.sources:
        try:
            source = _read_source(path)
            session = _build_session(options, path)
            profile, _ = session.profile(session.compile(source))
        except (MiniCError, InterpreterError, OSError, ValueError) as error:
            print(f"kremlin submit: error: {path}: {error}", file=sys.stderr)
            return 1
        documents.append((path, profile_to_json(profile)))

    status = 0
    try:
        with KremlinClient(host, port) as client:
            acks: dict[str, object] = {}
            for path, document in documents:
                try:
                    ack = client.submit(document)
                except ServiceError as error:
                    print(
                        f"kremlin submit: rejected {path}: {error}",
                        file=sys.stderr,
                    )
                    status = 1
                    continue
                acks[ack.program_key] = ack
                print(
                    f"{path}: submitted as {ack.program_key[:12]} "
                    f"(shard {ack.shard}, run {ack.runs})"
                )
            if options.plan:
                for key, ack in acks.items():
                    try:
                        plan = client.plan(
                            key, personality=options.personality
                        )
                    except ServiceError as error:
                        print(
                            f"kremlin submit: plan failed for "
                            f"{ack.program_name}: {error}",
                            file=sys.stderr,
                        )
                        status = 1
                        continue
                    print(_render_plan_response(plan))
    except (OSError, ProtocolError) as error:
        print(
            f"kremlin submit: cannot reach server at {host}:{port}: {error}",
            file=sys.stderr,
        )
        return 1
    return status


def _render_plan_response(plan) -> str:
    """Text table for a typed PlanResponse (server-side merged plan)."""
    lines = [
        f"{plan.program_name}: merged plan over {plan.runs} run(s) "
        f"({plan.personality} personality, {len(plan.items)} regions)"
    ]
    for rank, item in enumerate(plan.items, start=1):
        lines.append(
            f"{rank:>2}  {item.name:<20} {item.location:<24} "
            f"SP {item.self_parallelism:>7.1f}  "
            f"cov {item.coverage * 100.0:>5.1f}%  "
            f"{item.classification:<9} est x{item.est_speedup:.2f}"
        )
    return "\n".join(lines)


def _check_main(argv: list[str]) -> int:
    """``kremlin check``: run the static analyzer and lint standalone.

    Compiles each source (no execution), prints per-loop DOALL-safety
    verdicts and lint diagnostics rendered like compiler errors. Exit
    status 1 on compile errors, 2 when any ERROR-severity diagnostic
    fires, 0 otherwise.
    """
    from repro.analysis import Severity
    from repro.frontend.source import SourceFile

    parser = argparse.ArgumentParser(
        prog="kremlin check",
        description=(
            "Statically analyze a MiniC program: loop dependence "
            "classification, DOALL-safety verdicts, and lint diagnostics."
        ),
    )
    parser.add_argument("sources", nargs="+", help="MiniC source file(s)")
    parser.add_argument(
        "--no-verdicts",
        action="store_true",
        help="print only lint diagnostics, not the per-loop verdict table",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named lint rule(s) (repeatable)",
    )
    parser.add_argument(
        "--summaries",
        action="store_true",
        help="print the interprocedural mod/ref summary of every function",
    )
    parser.add_argument(
        "--cost",
        action="store_true",
        help=(
            "print the static cost bounds (trip / work / self-parallelism "
            "intervals) of every loop region"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit --summaries/--cost sections as JSON instead of text",
    )
    options = parser.parse_args(argv)

    status = 0
    for path in options.sources:
        try:
            source = _read_source(path)
            program = kremlin_cc(source, path)
        except (MiniCError, OSError) as error:
            print(f"kremlin: error: {error}", file=sys.stderr)
            status = max(status, 1)
            continue
        analysis = program.analysis
        assert analysis is not None
        if options.rule:
            from repro.analysis import LintContext, run_lint

            context = LintContext(
                module=program.module,
                reaching={
                    name: fa.reaching
                    for name, fa in analysis.functions.items()
                },
                dependences={
                    name: fa.loops
                    for name, fa in analysis.functions.items()
                },
            )
            diagnostics = run_lint(context, options.rule)
        else:
            diagnostics = analysis.diagnostics
        if not options.no_verdicts and not options.json:
            print(f"{path}: static loop verdicts")
            loops = program.regions.loops()
            if not loops:
                print("  (no loops)")
            for region in loops:
                print(
                    f"  {region.name:<24} {region.location:<24} "
                    f"{region.verdict}"
                )
            if diagnostics:
                print()
        if options.summaries or options.cost:
            from repro.analysis.static_cost import costs_to_json
            from repro.analysis.summaries import summaries_to_json

            if options.json:
                document: dict = {"file": path}
                if options.summaries:
                    document["summaries"] = summaries_to_json(
                        analysis.summaries
                    )
                if options.cost:
                    document["costs"] = costs_to_json(analysis.costs)
                print(json.dumps(document, indent=2))
            else:
                if options.summaries:
                    print(f"{path}: interprocedural mod/ref summaries")
                    for name in sorted(analysis.summaries):
                        summary = analysis.summaries[name]
                        print(f"  {name}: {summary.describe()}")
                if options.cost:
                    print(f"{path}: static loop cost bounds")
                    costs = analysis.costs
                    if not costs:
                        print("  (no loop regions)")
                    for region_id in sorted(costs):
                        cost = costs[region_id]
                        print(
                            f"  {cost.name:<24} {cost.location:<24} "
                            f"trip {cost.trip.render()} "
                            f"work {cost.work.render()} "
                            f"sp {cost.render_sp()}"
                        )
        source_file = SourceFile(path, source)
        for diagnostic in diagnostics:
            if not options.json:
                # --json keeps stdout a clean document stream; the exit
                # code still reflects ERROR-severity findings.
                print(diagnostic.render(source_file))
            if diagnostic.severity is Severity.ERROR:
                status = max(status, 2)
    return status


def _trace_main(argv: list[str]) -> int:
    """``kremlin trace``: self-profile one analysis run.

    Emits a Chrome ``trace_event`` JSON document (open in ``about:tracing``
    or https://ui.perfetto.dev) with one complete event per pipeline stage
    and the runtime counters attached as counter/metadata events.
    """
    parser = argparse.ArgumentParser(
        prog="kremlin trace",
        description=(
            "Profile the Kremlin pipeline itself while analyzing a program "
            "and emit a Chrome trace_event JSON document."
        ),
    )
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument(
        "--personality",
        default="openmp",
        choices=available_personalities(),
        help="planner personality (default: openmp)",
    )
    parser.add_argument("--entry", default="main", help="entry function")
    parser.add_argument(
        "--max-depth",
        type=int,
        default=None,
        help="limit the profiled region depth",
    )
    parser.add_argument(
        "--engine",
        default="compiled",
        help="execution engine to trace: compiled (default) or tree",
    )
    parser.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        default=None,
        help="write the trace JSON here instead of stdout",
    )
    parser.add_argument(
        "--pretty",
        action="store_true",
        help="also print the human-readable span tree to stderr",
    )
    options = parser.parse_args(argv)
    _check_engine(parser, options.engine)

    tracer = Tracer()
    metrics = MetricsRegistry()
    session = KremlinSession(
        compile_options=CompileOptions(filename=options.source),
        profile_options=ProfileOptions(
            entry=options.entry,
            max_depth=options.max_depth,
            engine=options.engine,
        ),
        plan_options=PlanOptions(personality=options.personality),
        tracer=tracer,
        metrics=metrics,
    )
    try:
        source = _read_source(options.source)
        session.analyze(source)
    except (MiniCError, InterpreterError, OSError, ValueError) as error:
        print(f"kremlin: error: {error}", file=sys.stderr)
        return 1

    document = chrome_trace(tracer, metrics)
    document.setdefault("otherData", {})["engine"] = options.engine
    text = json.dumps(document, sort_keys=True)
    print(
        f"kremlin trace: spans produced by the {options.engine!r} engine",
        file=sys.stderr,
    )
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(
            f"wrote {len(document['traceEvents'])} trace events "
            f"to {options.output}",
            file=sys.stderr,
        )
    else:
        print(text)
    if options.pretty:
        print(render_tree(tracer), file=sys.stderr)
    return 0


def main_cc(argv: list[str] | None = None) -> int:
    """``kremlin-cc``: compile and instrument, reporting program structure."""
    parser = argparse.ArgumentParser(
        prog="kremlin-cc",
        description="Compile a MiniC program with Kremlin instrumentation.",
    )
    parser.add_argument("source", help="MiniC source file")
    parser.add_argument(
        "--dump-ir", action="store_true", help="print the instrumented IR"
    )
    parser.add_argument(
        "--dump-regions", action="store_true", help="print the region tree"
    )
    options = parser.parse_args(argv)

    try:
        source = _read_source(options.source)
        program = kremlin_cc(source, options.source)
    except (MiniCError, OSError) as error:
        print(f"kremlin-cc: error: {error}", file=sys.stderr)
        return 1

    regions = program.regions
    functions = len(program.module.functions)
    loops = len(regions.loops())
    print(
        f"{options.source}: {functions} functions, {loops} loops, "
        f"{len(regions)} static regions"
    )
    if options.dump_regions:
        print(regions.format_tree())
    if options.dump_ir:
        print(print_module(program.module))
    return 0


if __name__ == "__main__":
    sys.exit(main())
