"""The ``kremlin fuzz`` driver.

Generates seeded random MiniC programs, pushes each one through the full
differential + oracle matrix (:mod:`repro.fuzz.differential`), and turns
every failure into a minimal, permanent regression test:

* the failing program is shrunk (:mod:`repro.fuzz.shrink`) under a
  predicate that demands *the same failure category*, so the reproducer
  still witnesses the original bug, not some other artifact;
* the shrunk source is written to the corpus directory
  (``tests/fuzz/corpus/`` by default) with a header recording the seed,
  category, and first failure message;
* ``tests/fuzz/test_corpus_replay.py`` replays every corpus file on every
  test run, so a bug found once can never quietly return.

Iteration ``i`` of a run uses program seed ``base_seed + i``; any failure
is reproducible in isolation with ``kremlin fuzz --seed <that> -n 1``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.differential import (
    DEFAULT_MAX_INSTRUCTIONS,
    DifferentialFailure,
    ProgramInvalid,
    run_differential,
)
from repro.fuzz.generator import GeneratorConfig, generate_program
from repro.fuzz.oracle import OracleViolation
from repro.fuzz.shrink import DEFAULT_BUDGET, shrink_source

#: default corpus location, relative to the repo root / current directory
DEFAULT_CORPUS_DIR = Path("tests") / "fuzz" / "corpus"


@dataclass
class FuzzFailure:
    """One program that broke the differential or the oracle."""

    seed: int
    category: str
    message: str
    source: str
    shrunk: str
    corpus_path: Path | None = None

    @property
    def shrunk_lines(self) -> int:
        return len(self.shrunk.strip().splitlines())


@dataclass
class FuzzStats:
    """Aggregate counters for one fuzzing run."""

    iterations: int = 0
    passed: int = 0
    skipped: int = 0
    checks: int = 0
    #: static-SP intervals hard-checked against dynamic HCPA values
    static_sp_checked: int = 0
    shrink_evals: int = 0
    failures: list[FuzzFailure] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def programs_per_second(self) -> float:
        if self.elapsed <= 0.0:
            return 0.0
        return self.iterations / self.elapsed


def _failure_category(error: Exception) -> str:
    if isinstance(error, DifferentialFailure):
        return error.category
    if isinstance(error, OracleViolation):
        return f"oracle-{error.invariant}"
    return type(error).__name__


def _same_failure_predicate(category: str, max_instructions: int):
    """Shrink predicate: the candidate must fail with the same category."""

    def predicate(text: str) -> bool:
        try:
            run_differential(text, max_instructions=max_instructions)
        except (DifferentialFailure, OracleViolation) as error:
            return _failure_category(error) == category
        except ProgramInvalid:
            return False
        return False

    return predicate


class FuzzHarness:
    """Drive generate → differential → oracle → shrink → corpus."""

    def __init__(
        self,
        seed: int = 0,
        iterations: int = 100,
        corpus_dir: Path | str | None = DEFAULT_CORPUS_DIR,
        config: GeneratorConfig | None = None,
        max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
        shrink_budget: int = DEFAULT_BUDGET,
        keep_going: bool = False,
        out=None,
    ):
        self.seed = seed
        self.iterations = iterations
        self.corpus_dir = Path(corpus_dir) if corpus_dir is not None else None
        self.config = config
        self.max_instructions = max_instructions
        self.shrink_budget = shrink_budget
        self.keep_going = keep_going
        self.out = out if out is not None else sys.stdout
        self._shrink_evals = 0

    def _say(self, message: str) -> None:
        print(message, file=self.out)

    def run(self) -> FuzzStats:
        stats = FuzzStats()
        self._shrink_evals = 0
        started = time.perf_counter()
        for offset in range(self.iterations):
            program_seed = self.seed + offset
            stats.iterations += 1
            source = generate_program(program_seed, self.config)
            try:
                outcome = run_differential(
                    source, max_instructions=self.max_instructions
                )
            except ProgramInvalid:
                stats.skipped += 1
                continue
            except (DifferentialFailure, OracleViolation) as error:
                failure = self._handle_failure(program_seed, source, error)
                stats.failures.append(failure)
                if not self.keep_going:
                    break
                continue
            stats.passed += 1
            stats.checks += outcome.checks
            stats.static_sp_checked += outcome.static_sp_checked
        stats.elapsed = time.perf_counter() - started
        stats.shrink_evals = self._shrink_evals
        self._record_metrics(stats)
        return stats

    def _record_metrics(self, stats: FuzzStats) -> None:
        from repro.obs.metrics import get_metrics, metrics_enabled

        if not metrics_enabled():
            return
        registry = get_metrics()
        registry.counter("fuzz.programs").inc(stats.iterations)
        registry.counter("fuzz.passed").inc(stats.passed)
        registry.counter("fuzz.skipped").inc(stats.skipped)
        registry.counter("fuzz.failures").inc(len(stats.failures))
        registry.counter("fuzz.checks").inc(stats.checks)
        registry.counter("fuzz.static_sp_checked").inc(
            stats.static_sp_checked
        )
        registry.counter("fuzz.shrink_evals").inc(stats.shrink_evals)
        registry.gauge("fuzz.programs_per_second").set(
            round(stats.programs_per_second, 2)
        )

    def _handle_failure(
        self, program_seed: int, source: str, error: Exception
    ) -> FuzzFailure:
        category = _failure_category(error)
        message = str(error)
        self._say(f"seed {program_seed}: FAIL {message}")
        self._say("shrinking ...")
        base_predicate = _same_failure_predicate(
            category, self.max_instructions
        )

        def predicate(text: str) -> bool:
            self._shrink_evals += 1
            return base_predicate(text)

        shrunk = shrink_source(
            source,
            predicate,
            budget=self.shrink_budget,
        )
        failure = FuzzFailure(
            seed=program_seed,
            category=category,
            message=message,
            source=source,
            shrunk=shrunk,
        )
        self._say(
            f"shrunk {len(source.splitlines())} -> "
            f"{failure.shrunk_lines} lines"
        )
        if self.corpus_dir is not None:
            failure.corpus_path = self._write_corpus(failure)
            self._say(f"reproducer written to {failure.corpus_path}")
        return failure

    def _write_corpus(self, failure: FuzzFailure) -> Path:
        self.corpus_dir.mkdir(parents=True, exist_ok=True)
        path = self.corpus_dir / f"seed{failure.seed:05d}-{failure.category}.c"
        first_line = failure.message.splitlines()[0] if failure.message else ""
        header = (
            f"// fuzz reproducer: seed={failure.seed} "
            f"category={failure.category}\n"
            f"// {first_line}\n"
            f"// replay: kremlin fuzz --seed {failure.seed} --iterations 1\n"
        )
        path.write_text(header + failure.shrunk)
        return path


def fuzz_main(argv=None) -> int:
    """Entry point for ``kremlin fuzz``."""
    parser = argparse.ArgumentParser(
        prog="kremlin fuzz",
        description=(
            "Differentially fuzz the tree and compiled engines and check "
            "every produced profile against the HCPA invariant oracle."
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed (iteration i uses seed+i)"
    )
    parser.add_argument(
        "--iterations", "-n", type=int, default=100,
        help="number of programs to generate (default: 100)",
    )
    parser.add_argument(
        "--corpus-dir", default=str(DEFAULT_CORPUS_DIR),
        help="where shrunk reproducers are written "
        "(default: tests/fuzz/corpus); 'none' disables",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="keep fuzzing after a failure instead of stopping",
    )
    parser.add_argument(
        "--max-instructions", type=int, default=DEFAULT_MAX_INSTRUCTIONS,
        help="per-run instruction budget; runaways are skipped",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=DEFAULT_BUDGET,
        help="max differential runs spent shrinking one failure",
    )
    parser.add_argument(
        "--require-static-sp", action="store_true",
        help="fail unless at least one static-SP interval was checked "
        "against its dynamic HCPA value (guards the oracle lane itself)",
    )
    options = parser.parse_args(argv)

    corpus_dir = (
        None if options.corpus_dir.lower() == "none" else options.corpus_dir
    )
    harness = FuzzHarness(
        seed=options.seed,
        iterations=options.iterations,
        corpus_dir=corpus_dir,
        max_instructions=options.max_instructions,
        shrink_budget=options.shrink_budget,
        keep_going=options.keep_going,
    )
    stats = harness.run()

    print(
        f"fuzz: {stats.iterations} programs "
        f"({stats.passed} passed, {stats.skipped} skipped, "
        f"{len(stats.failures)} failed), "
        f"{stats.checks} checks "
        f"({stats.static_sp_checked} static-SP intervals) "
        f"in {stats.elapsed:.1f}s "
        f"({stats.programs_per_second:.1f} programs/s, "
        f"{stats.shrink_evals} shrink evals) "
        f"[base seed {options.seed}]"
    )
    for failure in stats.failures:
        where = failure.corpus_path or "<not written>"
        print(
            f"  seed {failure.seed}: [{failure.category}] "
            f"{failure.shrunk_lines}-line reproducer at {where}"
        )
    if options.require_static_sp and stats.static_sp_checked == 0:
        print(
            "fuzz: error: no static-SP interval was ever checked "
            "(--require-static-sp)",
            file=sys.stderr,
        )
        return 1
    return 0 if stats.ok else 1
