"""Chunk execution in a pool worker (or inline, for tests and fuzzing).

The payload crossing the process boundary is deliberately plain data
(dicts, lists, numbers): the transformed *source text* and a
:class:`ChunkTask` holding the global state the chunk starts from, the
chunk entry's arguments (its bounds and the site's free locals) and the
site's write set, the only arrays the outcome carries back.  Each pool
worker keeps one prepared interpreter per (source hash, engine, budget);
every :meth:`~repro.interp.interpreter.Interpreter.run` starts from
fresh run state, so successive chunks reuse it, skip compile and codegen
entirely, and pass their shipped globals into ``run``.  The inline
transport calls :func:`execute_chunk` on an interpreter over the program
the executor already compiled.
"""
from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass

from repro.instrument.compile import kremlin_cc
from repro.interp.interpreter import Interpreter


@dataclass(frozen=True)
class ChunkTask:
    """One ``(lo, hi]`` chunk of one site, with its starting state."""

    site: int
    lo: int
    hi: int
    #: the site's free locals, in the chunk entry's parameter order
    env: tuple
    scalars: dict
    arrays: dict
    #: the site's write set: the arrays the outcome returns
    writes: tuple[str, ...]


@dataclass(frozen=True)
class ChunkOutcome:
    """A worker's result: final global scalars, the written arrays and
    execution stats."""

    site: int
    lo: int
    hi: int
    scalars: dict
    arrays: dict
    seconds: float
    instructions: int
    pid: int


#: per-pool-worker prepared interpreters, keyed by (source hash, engine,
#: budget); workers are reused across chunks, so every chunk after the
#: first is compile- and codegen-free
_PROGRAM_CACHE: dict[tuple, Interpreter] = {}


def _prepared(
    source: str, filename: str, engine: str, max_instructions: int | None
) -> Interpreter:
    digest = hashlib.sha256(source.encode()).hexdigest()
    key = (digest, engine, max_instructions)
    interp = _PROGRAM_CACHE.get(key)
    if interp is None:
        # the transformed program was already analyzed pre-transform;
        # workers only execute
        program = kremlin_cc(source, filename, analyze=False)
        interp = Interpreter(
            program, engine=engine, max_instructions=max_instructions
        )
        interp.prepare()
        _PROGRAM_CACHE[key] = interp
    return interp


def warm_worker(
    source: str,
    filename: str,
    engine: str = "compiled",
    max_instructions: int | None = None,
) -> int:
    """Compile and prepare ``source`` in this worker (pool warmup), so
    the first timed chunk pays no codegen; returns the pid."""
    _prepared(source, filename, engine, max_instructions)
    return os.getpid()


def run_chunk(program: tuple, task: ChunkTask) -> ChunkOutcome:
    """Pool entry: execute ``task`` on this worker's prepared interpreter
    for ``program``, the ``(source, filename, engine, max_instructions)``
    it was warmed with."""
    return execute_chunk(_prepared(*program), task)


def execute_chunk(interp: Interpreter, task: ChunkTask) -> ChunkOutcome:
    """Execute one chunk of one site on ``interp`` (prepared over the
    transformed program) and return the resulting state.

    The chunk's run starts from the shipped globals (reduction cells
    arrive pre-reset to their identity) and calls the site's outlined
    ``__kremlin_chunkN(lo, hi, env...)`` entry point.
    """
    start = time.perf_counter()
    result = interp.run(
        f"__kremlin_chunk{task.site}",
        (task.lo, task.hi, *task.env),
        scalars=task.scalars,
        arrays=task.arrays,
    )
    elapsed = time.perf_counter() - start
    state = interp.state
    return ChunkOutcome(
        site=task.site,
        lo=task.lo,
        hi=task.hi,
        scalars=state.scalars,
        arrays={name: state.arrays[name].data for name in task.writes},
        seconds=elapsed,
        instructions=result.instructions_retired,
        pid=os.getpid(),
    )
