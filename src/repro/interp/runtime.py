"""Runtime support for the AOT compiled engine.

:class:`CompiledEngine` owns one interpreter instance's bindings of the
cached :class:`~repro.interp.codegen.CodegenUnit`: it builds the exec
environment (instance-scoped names like ``cells``/``interp``/``counts``
and the ``_go_*``/``_ga_*``/``_gid_*`` global-array bindings; for the
fused flavor, the profiler itself and its per-run state containers),
executes the unit's code object to materialize the generated functions,
and drives entry-point calls through the observer's run lifecycle
(``on_run_start``/``on_run_end``).

Code objects are compiled once per program (cached on the program by
:func:`~repro.interp.codegen.codegen_unit`); per-interpreter preparation
is just a dict build plus ``exec`` of precompiled code.
"""

from __future__ import annotations

import time

from repro.interp.codegen import codegen_unit
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import ArrayStorage, RunResult


def _slow_index(index, size: int, span) -> int:
    """Out-of-line index check, same semantics as interpreter._check_index."""
    if not isinstance(index, int):
        raise InterpreterError(f"non-integer array index {index!r}", span)
    if index < 0 or index >= size:
        raise InterpreterError(
            f"array index {index} out of bounds (size {size})", span
        )
    return index


class CompiledEngine:
    """Executes the AOT-compiled functions for one Interpreter."""

    def __init__(self, interp):
        self.interp = interp
        # Shared mutable [instructions_retired, total_cost]; generated code
        # flushes into it at returns (plain) or block boundaries (fused).
        self.counts = [interp.instructions_retired, interp.total_cost]
        self._fns: dict | None = None
        self._env: dict | None = None
        self.unit = None
        #: wall-clock seconds spent in prepare() (codegen + env binding);
        #: near-zero on unit-cache hits. The bench harness records it.
        self.codegen_seconds = 0.0
        self._frames_cell = None

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Bind the cached codegen unit to this interpreter (idempotent)."""
        if self._fns is not None:
            return
        start = time.perf_counter()
        interp = self.interp
        observer = interp.observer
        env: dict = {
            "counts": self.counts,
            "cells": interp.globals_scalar,
            "interp": interp,
            "InterpreterError": InterpreterError,
            "ArrayStorage": ArrayStorage,
            "_slow_index": _slow_index,
            # Pin hot builtins into module scope: LOAD_GLOBAL hits beat
            # the globals-then-builtins miss chain.
            "int": int,
            "float": float,
            "type": type,
            "len": len,
            "abs": abs,
            "isinstance": isinstance,
            "max": max,
            "zip": zip,
            "id": id,
            "tuple": tuple,
            "sorted": sorted,
        }
        if observer is None:
            unit = codegen_unit(
                interp.program, "plain", interp.max_instructions
            )
        else:
            # The Interpreter only routes KremlinProfiler observers here.
            from repro.kremlib.profiler import ProfilerError, _ActiveRegion
            from repro.kremlib.shadow import _compute_ts, resolve_entry
            from repro.obs.metrics import get_metrics, metrics_enabled

            metrics_on = metrics_enabled()
            unit = codegen_unit(
                interp.program,
                "fused",
                interp.max_instructions,
                observer.max_depth,
                metrics_on,
            )
            # The profiler resets these containers in place each run, so
            # binding them once here stays valid.
            env.update(
                {
                    "stack": observer.stack,
                    "cps": observer.cps,
                    "prefix_memo": observer.prefix_memo,
                    "memo_high": observer.memo_high,
                    "mem_shadow": observer.mem_shadow,
                    "prof": observer,
                    "_ActiveRegion": _ActiveRegion,
                    "ProfilerError": ProfilerError,
                    "_resolve": resolve_entry,
                    "_cts": _compute_ts,
                }
            )
            if metrics_on:
                registry = get_metrics()
                self._frames_cell = registry.counter("shadow.frames").cell
                env.update(
                    {
                        "_mfp": registry.counter("fastpath.known_hits").cell,
                        "_mres": registry.counter(
                            "fastpath.entry_resolutions"
                        ).cell,
                        "_mev": registry.counter(
                            "shadow.stale_evictions"
                        ).cell,
                        "_mcell": registry.counter(
                            "shadow.cell_writes"
                        ).cell,
                        "_mfr": self._frames_cell,
                    }
                )
        env.update(unit.program_env)
        for name in unit.array_globals:
            storage = interp.globals_array[name]
            env[f"_go_{name}"] = storage
            env[f"_ga_{name}"] = storage.data
            env[f"_gid_{name}"] = id(storage)
        exec(unit.code, env)  # noqa: S102 - our own generated module
        self.unit = unit
        self._env = env
        self._fns = {
            name: env[f"_mc_{name}"]
            for name in interp.module.functions
        }
        self.codegen_seconds = time.perf_counter() - start

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, entry: str, args: tuple) -> RunResult:
        interp = self.interp
        observer = interp.observer
        self.prepare()
        counts = self.counts
        counts[0] = interp.instructions_retired
        counts[1] = interp.total_cost
        if observer is not None:
            observer.on_run_start(interp)
            if self._frames_cell is not None:
                self._frames_cell[0] += 1
        function = interp.module.function(entry)
        fn = self._fns[entry]
        if len(args) != len(function.params):
            raise InterpreterError(
                f"{entry}() expects {len(function.params)} arguments, "
                f"got {len(args)}"
            )
        if observer is None:
            value = fn(*args, 0)
        else:
            # Entry-point shadow parameters start unwritten, exactly like
            # the tree profiler's fresh shadow frame.
            value = fn(*args, *([None] * len(function.params)), 0)
        interp.instructions_retired = counts[0]
        interp.total_cost = counts[1]
        if observer is not None:
            observer.on_run_end(interp)
        return RunResult(
            value=value,
            output=list(interp.output),
            instructions_retired=interp.instructions_retired,
            total_cost=interp.total_cost,
        )
