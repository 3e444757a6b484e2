"""Cross-engine differential execution of one MiniC program.

One call to :func:`run_differential` compiles a program once and runs it
through the full engine matrix:

* ``tree`` vs the AOT ``compiled`` engine, unprofiled — same value,
  output, instruction count, and total cost;
* ``tree`` vs the compiled engine under the KremLib profiler, with
  metrics collection off and on, at every configured depth window — same
  run results *and* byte-identical serialized parallelism profiles (the
  fused fast path must be exact, not approximately right, and its
  counters must not change what it computes);
* profiled vs unprofiled — the profiler must not perturb execution;

then hands every profile to the invariant oracle
(:mod:`repro.fuzz.oracle`), and finally runs the serial-vs-parallel lane:
the program's statically safe loops are chunked through the parallel
backend (:mod:`repro.parallel`, in-process transport) and the final state
must be identical to the serial run — the lane that makes SAFE_DOALL
verdicts falsifiable.

Any mismatch raises :class:`DifferentialFailure` with a category the
harness uses to name corpus reproducers. A program that fails identically
under every engine (e.g. a generator artifact tripping the instruction
budget) raises :class:`ProgramInvalid` instead — that is a skip, not a
finding.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.frontend.errors import MiniCError
from repro.hcpa.serialize import profile_to_json
from repro.hcpa.summaries import ParallelismProfile
from repro.instrument.compile import kremlin_cc
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import Interpreter, RunResult
from repro.kremlib.profiler import KremlinProfiler
from repro.obs.metrics import collecting_metrics

#: depth windows every program is profiled under: unlimited plus the
#: paper's depth-window flag (exercises the untracked-region paths)
DEFAULT_MAX_DEPTHS: tuple[int | None, ...] = (None, 2)

#: performance engines checked against the tree reference
FAST_ENGINES: tuple[str, ...] = ("compiled",)

#: profiled lanes as (engine, metrics on): every fast engine, plus the
#: compiled engine with metrics collection on, whose generated code
#: differs from the metrics-off code only by counter increments
PROFILED_LANES: tuple[tuple[str, bool], ...] = tuple(
    (engine, False) for engine in FAST_ENGINES
) + (("compiled", True),)

#: instruction budget per run — generated programs are tiny; anything
#: hitting this is a runaway and gets skipped, not reported
DEFAULT_MAX_INSTRUCTIONS = 3_000_000

#: lanes for the serial-vs-parallel differential (master + 2 chunk lanes)
PARALLEL_LANE_WORKERS = 3


class DifferentialFailure(AssertionError):
    """An observable difference between engine configurations, or an
    invariant violation in a produced profile."""

    def __init__(self, category: str, message: str):
        super().__init__(f"[{category}] {message}")
        self.category = category
        self.message = message


class ProgramInvalid(Exception):
    """The program fails the same way everywhere — unusable as an input."""


@dataclass
class DifferentialOutcome:
    """Everything one clean differential run produced."""

    source: str
    result: RunResult
    #: max_depth -> profile (from the last profiled lane; all identical)
    profiles: dict = field(default_factory=dict)
    checks: int = 0
    #: static-SP intervals the oracle hard-checked against dynamic values
    static_sp_checked: int = 0

    @property
    def profile(self) -> ParallelismProfile:
        """The unlimited-depth profile."""
        return self.profiles[None]


def _canon(result: RunResult) -> tuple:
    """Comparable image of a run result. ``repr`` for the value and output
    so NaN compares equal to itself across engines."""
    return (
        repr(result.value),
        tuple(result.output),
        result.instructions_retired,
        result.total_cost,
    )


def _describe(result: RunResult) -> str:
    return (
        f"value={result.value!r} outputs={len(result.output)} "
        f"instr={result.instructions_retired} cost={result.total_cost}"
    )


def _run_one(
    program,
    engine: str,
    profiled: bool,
    max_depth,
    max_instructions,
    metrics: bool = False,
):
    """Run one configuration (under a fresh metrics registry when
    ``metrics``); returns (result, serialized_profile, profile, error).
    Exactly one of (result, error) is set."""
    with collecting_metrics() if metrics else nullcontext():
        observer = (
            KremlinProfiler(program, max_depth=max_depth)
            if profiled
            else None
        )
        interp = Interpreter(
            program,
            observer=observer,
            max_instructions=max_instructions,
            engine=engine,
        )
        try:
            result = interp.run("main")
        except (
            InterpreterError,
            ValueError,
            ZeroDivisionError,
            OverflowError,
        ) as error:
            return None, None, None, f"{type(error).__name__}: {error}"
    if not profiled:
        return result, None, None, None
    profile = observer.profile
    serialized = json.dumps(profile_to_json(profile), sort_keys=True)
    return result, serialized, profile, None


def run_differential(
    source: str,
    filename: str = "<fuzz>",
    max_depths: tuple[int | None, ...] = DEFAULT_MAX_DEPTHS,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
    oracle: bool = True,
    parallel: bool = True,
) -> DifferentialOutcome:
    """Run the full differential + oracle check matrix over one program.

    Returns a :class:`DifferentialOutcome` on success; raises
    :class:`DifferentialFailure` on any mismatch and
    :class:`ProgramInvalid` for unusable inputs.
    """
    try:
        program = kremlin_cc(source, filename)
    except MiniCError as error:
        raise ProgramInvalid(f"does not compile: {error}") from error

    checks = 0

    # Plain runs: tree is the reference.
    tree_result, _, _, tree_error = _run_one(
        program, "tree", False, None, max_instructions
    )
    fast_result = None
    for engine in FAST_ENGINES:
        fast_result, _, _, fast_error = _run_one(
            program, engine, False, None, max_instructions
        )
        if tree_error is not None or fast_error is not None:
            if tree_error == fast_error:
                raise ProgramInvalid(f"both engines fail: {tree_error}")
            raise DifferentialFailure(
                "crash-mismatch",
                f"tree: {tree_error or 'ok'} vs {engine}: {fast_error or 'ok'}",
            )
        if _canon(tree_result) != _canon(fast_result):
            raise DifferentialFailure(
                "result-mismatch",
                f"plain run diverged: tree {_describe(tree_result)} "
                f"vs {engine} {_describe(fast_result)}",
            )
        checks += 1

    outcome = DifferentialOutcome(source=source, result=fast_result)

    for max_depth in max_depths:
        tag = "unlimited" if max_depth is None else f"max_depth={max_depth}"
        tree_prof_result, tree_serial, _, tree_error = _run_one(
            program, "tree", True, max_depth, max_instructions
        )
        if tree_error is None and _canon(tree_prof_result) != _canon(tree_result):
            raise DifferentialFailure(
                "observer-perturbation",
                f"profiling changed execution ({tag}): "
                f"plain {_describe(tree_result)} "
                f"vs profiled {_describe(tree_prof_result)}",
            )
        for engine, metrics in PROFILED_LANES:
            prof_result, serial, profile, fast_error = _run_one(
                program, engine, True, max_depth, max_instructions, metrics
            )
            if metrics:
                engine = f"{engine}+metrics"
            if tree_error is not None or fast_error is not None:
                if tree_error == fast_error:
                    raise ProgramInvalid(
                        f"both engines fail profiled: {tree_error}"
                    )
                raise DifferentialFailure(
                    "crash-mismatch",
                    f"profiled ({tag}) tree: {tree_error or 'ok'} "
                    f"vs {engine}: {fast_error or 'ok'}",
                )
            if _canon(tree_prof_result) != _canon(prof_result):
                raise DifferentialFailure(
                    "result-mismatch",
                    f"profiled run ({tag}) diverged: "
                    f"tree {_describe(tree_prof_result)} "
                    f"vs {engine} {_describe(prof_result)}",
                )
            if tree_serial != serial:
                raise DifferentialFailure(
                    "profile-mismatch",
                    f"serialized profiles differ ({tag}, {engine}): "
                    f"{_first_profile_diff(tree_serial, serial)}",
                )
            outcome.profiles[max_depth] = profile
            checks += 3

    if oracle:
        from repro.fuzz.oracle import run_oracle

        counters: dict = {}
        checks += run_oracle(
            outcome.profiles, program=program, counters=counters
        )
        outcome.static_sp_checked = counters.get("static-sp", 0)

    if parallel:
        checks += _run_parallel_lane(program, max_instructions)

    outcome.checks = checks
    return outcome


def _run_parallel_lane(program, max_instructions: int) -> int:
    """Serial-vs-parallel lane: transform the program's statically safe
    loops, execute them chunked (in-process, deterministic), and demand a
    final state identical to the serial run.

    This makes the static verdicts *falsifiable*: a loop the analyzer
    called SAFE_DOALL that diverges when actually chunked is a finding
    (``parallel-mismatch``), as is a transform that breaks compilation
    (``parallel-transform``) or a merge that detects conflicting writes
    inside a verdict-accepted loop. Programs with no accepted sites are
    still one check — the transform's vet ran and refused them cleanly.
    The 4x budget covers the counting pass plus the re-executed chunks;
    blowing it anyway is a skip, not a finding.
    """
    from repro.parallel.executor import ParallelExecutor, ParallelOptions

    options = ParallelOptions(
        workers=PARALLEL_LANE_WORKERS,
        engine="compiled",
        mode="inline",
        max_instructions=max_instructions * 4,
    )
    try:
        with ParallelExecutor(options) as executor:
            outcome = executor.execute(program)
    except InterpreterError as error:
        raise ProgramInvalid(
            f"parallel lane over budget: {error}"
        ) from error
    if outcome.mismatch is not None:
        raise DifferentialFailure(
            "parallel-mismatch",
            f"parallel execution diverged from serial: {outcome.mismatch}",
        )
    if outcome.fallback:
        reason = outcome.fallback_reason or ""
        if "instruction budget" in reason:
            return 1  # runaway under the 4x budget: skip, not a finding
        if reason == "no executable sites":
            return 1  # vet refused everything — a legitimate outcome
        if reason.startswith("transform failed") or reason.startswith(
            "transformed program rejected"
        ):
            raise DifferentialFailure(
                "parallel-transform",
                f"loop transform broke the program: {reason}",
            )
        raise DifferentialFailure(
            "parallel-mismatch",
            f"parallel execution aborted on a verdict-accepted loop: "
            f"{reason}",
        )
    return 1 + outcome.dispatched_chunks


def _first_profile_diff(a: str, b: str) -> str:
    """Human-oriented pointer at the first divergence of two profiles."""
    data_a, data_b = json.loads(a), json.loads(b)
    for key in sorted(set(data_a) | set(data_b)):
        if data_a.get(key) != data_b.get(key):
            va, vb = data_a.get(key), data_b.get(key)
            if key == "dictionary":
                for index, (ea, eb) in enumerate(zip(va, vb)):
                    if ea != eb:
                        return f"dictionary[{index}]: {ea} vs {eb}"
                return f"dictionary length {len(va)} vs {len(vb)}"
            return f"{key}: {str(va)[:120]} vs {str(vb)[:120]}"
    return "profiles differ"
