"""Chunk execution in a pool worker (or inline, for tests and fuzzing).

The payload crossing the process boundary is deliberately plain data
(dicts, lists, numbers): the transformed *source text*, the global
state the chunk starts from, and the chunk entry's arguments (its bounds
and the site's free locals).  Each worker process keeps one prepared
interpreter per (source hash, engine, budget); every
:meth:`~repro.interp.interpreter.Interpreter.run` starts from fresh run
state, so successive chunks of the same program reuse it, skip compile
and codegen entirely, and pass their shipped globals into ``run``.
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
    """Everything a worker needs to run one ``(lo, hi]`` chunk."""

    source: str
    filename: str
    site: int
    lo: int
    hi: int
    #: the site's free locals, in the chunk entry's parameter order
    env: tuple
    engine: str
    scalars: dict
    arrays: dict
    max_instructions: int | None = None


@dataclass(frozen=True)
class ChunkOutcome:
    """A worker's result: final global state plus execution stats."""

    site: int
    lo: int
    hi: int
    scalars: dict
    arrays: dict
    seconds: float
    instructions: int
    pid: int


#: per-process prepared interpreters, keyed by (source hash, engine,
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


def run_chunk(task: ChunkTask) -> ChunkOutcome:
    """Execute one chunk of one site and return the resulting state.

    The chunk's run starts from the shipped globals (reduction cells
    arrive pre-reset to their identity) and calls the site's outlined
    ``__kremlin_chunkN(lo, hi, env...)`` entry point.
    """
    interp = _prepared(
        task.source, task.filename, task.engine, task.max_instructions
    )
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
        arrays={name: storage.data for name, storage in state.arrays.items()},
        seconds=elapsed,
        instructions=result.instructions_retired,
        pid=os.getpid(),
    )
