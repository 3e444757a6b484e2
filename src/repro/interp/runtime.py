"""Runtime support for the AOT compiled engine.

:class:`CompiledEngine` owns one interpreter instance's bindings of the
cached :class:`~repro.interp.codegen.CodegenUnit`. ``prepare()`` builds
the exec environment (``interp``, the program-scoped names and, for the
fused flavor, the profiler itself and its run-state containers) and
executes the unit's code object to materialize the generated functions.
``run()`` only executes: it rebinds the per-run names (``cells``,
``counts`` and the ``_go_*``/``_ga_*``/``_gid_*`` global-array
bindings) to the run's :class:`~repro.interp.interpreter.RunState` and
calls the entry function. Generated code reads those names as module
globals at call time, so rebinding them is all a fresh run needs; the
run lifecycle itself (state, observer hooks, result) is
:meth:`Interpreter.run`'s.

Code objects are compiled once per program (cached on the program by
:func:`~repro.interp.codegen.codegen_unit`); per-interpreter preparation
is just a dict build plus ``exec`` of precompiled code.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.interp.codegen import lookup_unit
from repro.interp.errors import InterpreterError
from repro.interp.interpreter import ArrayStorage


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
        self._fns: dict | None = None
        self._env: dict | None = None
        self.unit = None
        #: whether prepare() found its unit cached (no codegen ran)
        self.cache_hit: bool | None = None
        self._frames_cell = None

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------

    def prepare(self) -> None:
        """Bind the cached codegen unit to this interpreter (idempotent)."""
        if self._fns is not None:
            return
        interp = self.interp
        observer = interp.observer
        env: dict = {
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
            "range": range,
            "id": id,
            "tuple": tuple,
            "sorted": sorted,
        }
        if observer is None:
            unit, self.cache_hit = lookup_unit(
                interp.program, "plain", interp.max_instructions
            )
        else:
            # The Interpreter only routes KremlinProfiler observers here.
            from repro.kremlib.profiler import ProfilerError, _ActiveRegion
            from repro.kremlib.shadow import call_shadows
            from repro.obs.metrics import get_metrics, metrics_enabled

            metrics_on = metrics_enabled()
            unit, self.cache_hit = lookup_unit(
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
                    "mem_shadow": observer.mem_shadow,
                    "prof": observer,
                    "_ActiveRegion": _ActiveRegion,
                    "ProfilerError": ProfilerError,
                    "_call_shadows": call_shadows,
                    "_bisect": bisect_right,
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
        exec(unit.code, env)  # noqa: S102 - our own generated module
        self.unit = unit
        self._env = env
        self._fns = {
            name: env[f"_mc_{name}"]
            for name in interp.module.functions
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(self, function, args: tuple, state):
        """Call the generated ``function`` on ``state``; returns its value."""
        env = self._env
        env["cells"] = state.scalars
        env["counts"] = state.counts
        for name in self.unit.array_globals:
            storage = state.arrays[name]
            env[f"_go_{name}"] = storage
            env[f"_ga_{name}"] = storage.data
            env[f"_gid_{name}"] = id(storage)
        fn = self._fns[function.name]
        if self.interp.observer is None:
            return fn(*args, 0)
        if self._frames_cell is not None:
            self._frames_cell[0] += 1
        # Entry-point shadow parameters start unwritten, exactly like the
        # tree profiler's fresh shadow frame.
        return fn(*args, *([None] * len(function.params)), 0)
