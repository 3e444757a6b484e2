"""The parallel execution backend: run a plan's safe loops on a pool.

``ParallelExecutor.execute`` closes Kremlin's loop: it runs the program
serially (ground truth + baseline timing), rewrites it with
:mod:`repro.parallel.transform`, runs the rewritten program with a
*policy* attached to the interpreter, and verifies the final states are
identical.  The policy is what ``__kremlin_fork``/``__kremlin_join``
dispatch to:

* **fork** — take the site and counted trip (and the site's free
  locals) as arguments, partition the trip into ``(lo, hi]`` chunks,
  snapshot global state, ship chunks 1.. to pool workers with their
  bounds and the locals as entry arguments (reduction cells reset to
  their identity), and return chunk 0's bound to the master's masked
  loop.
* **join** — collect worker outcomes (each returns only the site's
  write set) and three-way merge them, comparing with
  :func:`same_value`: an element a worker changed against the fork
  snapshot is applied in place; two writers disagreeing on one
  element, or any unexpected scalar write, aborts. Reduction partials
  fold into the master's cell in chunk order.

Every failure path — a refused transform, a worker crash, a merge
conflict, an interpreter fault in the rewritten program — degrades to
the already-computed serial result (*fail-safe serial fallback*), with
the reason recorded on the outcome.  A post-run state mismatch is also
recorded (and the serial state remains the answer): the fuzz
differential lane turns that field into a hard failure.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from concurrent.futures import Future, ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.instrument.compile import CompiledProgram, kremlin_cc
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import Interpreter, RunResult
from repro.obs.metrics import get_metrics, metrics_enabled
from repro.obs.trace import get_tracer
from repro.parallel.nesting import (
    effective_workers,
    in_pool_worker,
    mark_pool_worker,
)
from repro.parallel.partition import partition_iterations
from repro.parallel.reduction import combine_partials, identity_for
from repro.parallel.transform import (
    RefusedSite,
    SiteSpec,
    TransformResult,
    plan_transform,
)
from repro.parallel.worker import (
    ChunkTask,
    execute_chunk,
    run_chunk,
    warm_worker,
)

#: pool start methods we accept (inline = no pool, chunks run in-process)
MODES = ("fork", "spawn", "inline")

#: below this trip count a loop entry is not worth dispatching: the
#: master's masked loop just claims everything (chunk setup would cost
#: more than it saves, and a 0/1-iteration entry cannot be split anyway)
MIN_TRIP = 2


class ParallelAbort(Exception):
    """Chunked execution cannot proceed safely; fall back to serial."""


def same_value(a, b) -> bool:
    """Exact equality of interpreter values: agrees with ``repr``
    equality on int, float and None (NaN equals NaN, ``-0.0`` differs
    from ``0.0``, ``1`` from ``1.0``) with no tolerance to hide real
    divergence."""
    if type(a) is not type(b):
        return False
    if a == b:
        return a != 0 or math.copysign(1.0, a) == math.copysign(1.0, b)
    return a != a and b != b


@dataclass(frozen=True)
class ParallelOptions:
    """Knobs for :class:`ParallelExecutor` (frozen, like the session
    option dataclasses)."""

    workers: int = 2
    engine: str = "compiled"
    mode: str = "fork"
    entry: str = "main"
    max_instructions: int | None = None
    allow_float_reductions: bool = False


@dataclass
class SiteStats:
    """Measured behaviour of one executed site."""

    spec: SiteSpec
    entries: int = 0
    dispatched_chunks: int = 0
    worker_seconds: float = 0.0


@dataclass
class ExecutionOutcome:
    """Everything one ``execute()`` call learned."""

    filename: str
    engine: str
    workers: int
    mode: str
    serial_result: RunResult
    serial_seconds: float
    serial_scalars: dict
    serial_arrays: dict
    sites: tuple[SiteSpec, ...] = ()
    refused: tuple[RefusedSite, ...] = ()
    transformed_source: str | None = None
    parallel_result: RunResult | None = None
    parallel_seconds: float | None = None
    parallel_scalars: dict = field(default_factory=dict)
    parallel_arrays: dict = field(default_factory=dict)
    #: parallel execution did not complete; serial result stands
    fallback: bool = False
    fallback_reason: str | None = None
    #: parallel execution completed but disagreed with serial — a bug in
    #: the analyzer, the transform, or the merge. Serial result stands.
    mismatch: str | None = None
    site_stats: list[SiteStats] = field(default_factory=list)

    @property
    def dispatched_chunks(self) -> int:
        return sum(stats.dispatched_chunks for stats in self.site_stats)

    @property
    def worker_busy_seconds(self) -> float:
        return sum(stats.worker_seconds for stats in self.site_stats)

    @property
    def executed(self) -> bool:
        """True when a parallel run completed and matched serial."""
        return (
            self.parallel_result is not None
            and not self.fallback
            and self.mismatch is None
        )

    @property
    def measured_speedup(self) -> float:
        if not self.executed or not self.parallel_seconds:
            return 1.0
        if self.serial_seconds <= 0.0:
            return 1.0
        return self.serial_seconds / self.parallel_seconds

    @property
    def output_identical(self) -> bool:
        if self.parallel_result is None:
            return False
        return self.parallel_result.output == self.serial_result.output and (
            same_value(self.parallel_result.value, self.serial_result.value)
        )

    @property
    def utilization(self) -> float:
        """Worker busy time over the pool's wall-clock capacity."""
        if not self.parallel_seconds or self.workers <= 1:
            return 0.0
        return self.worker_busy_seconds / (
            self.parallel_seconds * (self.workers - 1)
        )


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class _InlineTransport:
    """Chunks run sequentially in-process on a second interpreter over
    the executor's compiled transformed program: no pool, no pickling,
    no second compile, full parallel-semantics coverage. This is what
    the fuzz lane uses."""

    interp: Interpreter | None = None

    def submit(self, task: ChunkTask) -> Future:
        future: Future = Future()
        try:
            future.set_result(execute_chunk(self.interp, task))
        except Exception as exc:  # re-raised at result(), like a pool's
            future.set_exception(exc)
        return future

    def warm(self, program, engine, max_instructions) -> None:
        self.interp = Interpreter(
            program, engine=engine, max_instructions=max_instructions
        )
        self.interp.prepare()

    def close(self) -> None:
        pass


class _PoolTransport:
    def __init__(self, workers: int, mode: str):
        context = multiprocessing.get_context(mode)
        self.pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=mark_pool_worker,
        )
        self.workers = workers

    def submit(self, task: ChunkTask):
        return self.pool.submit(run_chunk, self.program, task)

    def warm(self, program, engine, max_instructions) -> None:
        self.program = (
            program.source, program.filename, engine, max_instructions
        )
        # best-effort: one warmup task per worker slot so most workers
        # compile (and codegen) the program before the timed run
        futures = [
            self.pool.submit(warm_worker, *self.program)
            for _ in range(self.workers)
        ]
        for future in futures:
            future.result()

    def close(self) -> None:
        self.pool.shutdown(wait=True)


# ----------------------------------------------------------------------
# The fork/join policy
# ----------------------------------------------------------------------


@dataclass
class _PendingEntry:
    site: SiteSpec
    trip: int
    chunks: list[tuple[int, int]]
    futures: list
    ship_scalars: dict
    snapshot_arrays: dict
    start: float


class _ExecutorPolicy:
    """Installed on the master interpreter as ``_parallel_policy``."""

    def __init__(
        self,
        sites: tuple[SiteSpec, ...],
        transport,
        workers: int,
        stats: dict[int, SiteStats],
    ):
        self.sites = {site.index: site for site in sites}
        self.transport = transport
        self.workers = workers
        self.stats = stats
        self.stack: list[_PendingEntry] = []

    def fork(self, interp, site_index: int, trip: int, env: tuple) -> int:
        """Dispatch chunks 1.. of one site entry; return the master's
        upper bound (its chunk is ``(0, hi]``)."""
        site = self.sites[site_index]
        stats = self.stats[site.index]
        stats.entries += 1
        if trip < MIN_TRIP or self.workers < 2:
            chunks = [(0, trip)]
        else:
            chunks = partition_iterations(trip, min(self.workers, trip))
        futures: list = []
        ship_scalars: dict = {}
        snapshot_arrays: dict = {}
        if len(chunks) > 1:
            # every array is copied: workers read any of them, and a pool
            # pickles the task after submit returns, while the master's
            # masked loop is already writing
            snapshot_arrays = {
                name: list(storage.data)
                for name, storage in interp.state.arrays.items()
            }
            ship_scalars = dict(interp.state.scalars)
            for spec in site.reductions:
                ship_scalars[spec.name] = identity_for(
                    spec.op, ship_scalars[spec.name]
                )
            for lo, hi in chunks[1:]:
                futures.append(
                    self.transport.submit(
                        ChunkTask(
                            site=site.index,
                            lo=lo,
                            hi=hi,
                            env=env,
                            scalars=ship_scalars,
                            arrays=snapshot_arrays,
                            writes=site.writes,
                        )
                    )
                )
            stats.dispatched_chunks += len(futures)
        self.stack.append(
            _PendingEntry(
                site=site,
                trip=trip,
                chunks=chunks,
                futures=futures,
                ship_scalars=ship_scalars,
                snapshot_arrays=snapshot_arrays,
                start=time.perf_counter(),
            )
        )
        return chunks[0][1]

    def join(self, interp) -> None:
        entry = self.stack.pop()
        outcomes = []
        for future in entry.futures:
            try:
                outcomes.append(future.result())
            except ParallelAbort:
                raise
            except Exception as exc:
                raise ParallelAbort(f"worker chunk failed: {exc}") from exc
        _merge(interp.state, entry, outcomes)
        end = time.perf_counter()
        stats = self.stats[entry.site.index]
        tracer = get_tracer()
        tracer.record_span(
            "parallel.entry",
            entry.start,
            end,
            site=entry.site.region_name,
            chunks=len(entry.chunks),
            trip=entry.trip,
        )
        for outcome in outcomes:
            stats.worker_seconds += outcome.seconds
            tracer.record_span(
                "parallel.chunk",
                entry.start,
                entry.start + outcome.seconds,
                site=entry.site.region_name,
                worker=outcome.pid,
                lo=outcome.lo,
                hi=outcome.hi,
            )
        if metrics_enabled():
            metrics = get_metrics()
            metrics.counter("parallel.entries").inc()
            metrics.counter("parallel.chunks").inc(len(entry.futures))
            for outcome in outcomes:
                metrics.histogram("parallel.chunk_seconds").record(
                    outcome.seconds
                )


def _merge(state, entry: _PendingEntry, outcomes) -> None:
    """Three-way merge of worker outcomes into the master's run state,
    one pass per worker over the site's write set.

    A worker element that differs from the fork snapshot is applied
    unless the live element (the master's, or an earlier worker's)
    already differs from both. A write set missing an array loses its
    writes, which the final comparison with serial records as a mismatch.
    """
    reduction_ops = {spec.name: spec.op for spec in entry.site.reductions}
    partials: dict[str, list] = {name: [] for name in reduction_ops}
    for outcome in outcomes:
        for name in entry.site.writes:
            snapshot = entry.snapshot_arrays[name]
            live = state.arrays[name].data
            for index, value in enumerate(outcome.arrays[name]):
                before = snapshot[index]
                if value is before or same_value(value, before):
                    continue
                held = live[index]
                if not (same_value(held, before) or same_value(held, value)):
                    raise ParallelAbort(
                        f"conflicting writes to {name}[{index}] "
                        f"({held!r} vs {value!r})"
                    )
                live[index] = value
        for name, value in outcome.scalars.items():
            if same_value(value, entry.ship_scalars.get(name)):
                continue
            if name in reduction_ops:
                partials[name].append(value)
                continue
            raise ParallelAbort(f"unexpected worker write to scalar '{name}'")
    for name, op in reduction_ops.items():
        state.scalars[name] = combine_partials(
            op, state.scalars[name], partials[name]
        )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


def _state_snapshot(interp: Interpreter) -> tuple[dict, dict]:
    arrays = {
        name: list(storage.data)
        for name, storage in interp.state.arrays.items()
    }
    return dict(interp.state.scalars), arrays


def _diff_states(
    serial: tuple[dict, dict], parallel: tuple[dict, dict]
) -> str | None:
    serial_scalars, serial_arrays = serial
    parallel_scalars, parallel_arrays = parallel
    for name in sorted(set(serial_scalars) | set(parallel_scalars)):
        left = serial_scalars.get(name)
        right = parallel_scalars.get(name)
        if not same_value(left, right):
            return f"global {name}: serial={left!r} parallel={right!r}"
    for name in sorted(set(serial_arrays) | set(parallel_arrays)):
        left_arr = serial_arrays.get(name, [])
        right_arr = parallel_arrays.get(name, [])
        if len(left_arr) != len(right_arr):
            return f"array {name}: length differs"
        for index, (lv, rv) in enumerate(zip(left_arr, right_arr)):
            if not same_value(lv, rv):
                return (
                    f"array {name}[{index}]: "
                    f"serial={lv!r} parallel={rv!r}"
                )
    return None


class ParallelExecutor:
    """Owns a (persistent) chunk transport and runs programs through the
    serial/parallel/verify sequence. Reusable across programs; ``close()``
    (or use as a context manager) shuts the pool down."""

    def __init__(
        self,
        options: ParallelOptions = ParallelOptions(),
        compiler=None,
    ):
        if options.mode not in MODES:
            raise ValueError(
                f"unknown mode {options.mode!r}; expected one of {MODES}"
            )
        workers = effective_workers(options.workers)
        mode = options.mode
        # nested-pool guard: inside a pool worker (bench sweeps under
        # --jobs) never fan out a second pool
        if workers < 2 or in_pool_worker():
            workers = 1
            mode = "inline"
        self.options = options
        self.workers = workers
        self.mode = mode
        #: ``(source, filename) -> CompiledProgram`` used for the
        #: transformed source; KremlinSession injects its compile cache
        #: here so re-executing a plan skips the recompile
        self.compiler = compiler or (
            lambda source, filename: kremlin_cc(
                source, filename, analyze=False
            )
        )
        self._transport = None

    # -- lifecycle ------------------------------------------------------

    def transport(self):
        if self._transport is None:
            if self.mode == "inline":
                self._transport = _InlineTransport()
            else:
                self._transport = _PoolTransport(
                    max(1, self.workers - 1), self.mode
                )
        return self._transport

    def close(self) -> None:
        if self._transport is not None:
            self._transport.close()
            self._transport = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- execution ------------------------------------------------------

    def execute(
        self, program: CompiledProgram, plan=None
    ) -> ExecutionOutcome:
        """Run ``program`` serially and (when the transform accepts at
        least one site) in chunked-parallel form, verify, and report."""
        options = self.options
        tracer = get_tracer()

        with tracer.span("parallel.serial", engine=options.engine):
            serial_interp = Interpreter(
                program,
                engine=options.engine,
                max_instructions=options.max_instructions,
            )
            serial_interp.prepare()
            serial_start = time.perf_counter()
            serial_result = serial_interp.run(options.entry)
            serial_seconds = time.perf_counter() - serial_start
        serial_scalars, serial_arrays = _state_snapshot(serial_interp)

        outcome = ExecutionOutcome(
            filename=program.filename,
            engine=options.engine,
            workers=self.workers,
            mode=self.mode,
            serial_result=serial_result,
            serial_seconds=serial_seconds,
            serial_scalars=serial_scalars,
            serial_arrays=serial_arrays,
        )

        try:
            transform = plan_transform(
                program,
                plan,
                allow_float_reductions=options.allow_float_reductions,
            )
        except Exception as exc:  # a transform bug must never lose the run
            outcome.fallback = True
            outcome.fallback_reason = f"transform failed: {exc}"
            self._count_fallback()
            return outcome
        outcome.sites = transform.sites
        outcome.refused = transform.refused
        if not transform.has_sites:
            outcome.fallback = True
            outcome.fallback_reason = "no executable sites"
            return outcome
        outcome.transformed_source = transform.source

        try:
            rewritten = self.compiler(transform.source, program.filename)
        except Exception as exc:
            outcome.fallback = True
            outcome.fallback_reason = f"transformed program rejected: {exc}"
            self._count_fallback()
            return outcome

        transport = self.transport()
        # Prepare the chunk interpreter (inline) or pre-compile the
        # transformed source in each pool worker before timing the
        # parallel run (excluded from measured speedup; see
        # docs/PARALLEL.md "Methodology").
        try:
            transport.warm(rewritten, options.engine, options.max_instructions)
        except Exception as exc:
            outcome.fallback = True
            outcome.fallback_reason = f"pool warmup failed: {exc}"
            self._count_fallback()
            return outcome

        stats = {
            site.index: SiteStats(spec=site) for site in transform.sites
        }
        policy = _ExecutorPolicy(
            sites=transform.sites,
            transport=transport,
            workers=self.workers,
            stats=stats,
        )
        parallel_interp = Interpreter(
            rewritten,
            engine=options.engine,
            max_instructions=options.max_instructions,
        )
        parallel_interp._parallel_policy = policy
        parallel_interp.prepare()
        try:
            with tracer.span(
                "parallel.run", workers=self.workers, mode=self.mode
            ):
                parallel_start = time.perf_counter()
                parallel_result = parallel_interp.run(options.entry)
                parallel_seconds = time.perf_counter() - parallel_start
        except (ParallelAbort, InterpreterError) as exc:
            outcome.fallback = True
            outcome.fallback_reason = f"parallel run aborted: {exc}"
            outcome.site_stats = list(stats.values())
            self._count_fallback()
            return outcome

        outcome.parallel_result = parallel_result
        outcome.parallel_seconds = parallel_seconds
        outcome.site_stats = list(stats.values())
        parallel_state = _state_snapshot(parallel_interp)
        outcome.parallel_scalars, outcome.parallel_arrays = parallel_state

        mismatch = _diff_states(
            (serial_scalars, serial_arrays), parallel_state
        )
        if mismatch is None and not outcome.output_identical:
            mismatch = (
                "result differs: serial value="
                f"{serial_result.value!r} output lines="
                f"{len(serial_result.output)} vs parallel value="
                f"{parallel_result.value!r} output lines="
                f"{len(parallel_result.output)}"
            )
        if mismatch is not None:
            outcome.mismatch = mismatch
            if metrics_enabled():
                get_metrics().counter("parallel.mismatches").inc()
        if metrics_enabled():
            get_metrics().gauge("parallel.utilization").set(
                outcome.utilization
            )
        return outcome

    def execute_source(
        self, source: str, filename: str = "<input>", plan=None
    ) -> ExecutionOutcome:
        return self.execute(kremlin_cc(source, filename), plan)

    @staticmethod
    def _count_fallback() -> None:
        if metrics_enabled():
            get_metrics().counter("parallel.fallbacks").inc()
