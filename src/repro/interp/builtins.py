"""Builtin (libc-flavoured) functions available to MiniC programs.

All builtins are deterministic; ``srand``/``rand``/``randf`` use a fixed
linear congruential generator held in the run state, so every run, profiled
or not, repeats bit-for-bit. Costs are latencies in the machine cost model; see
:mod:`repro.instrument.costs` for the rest of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

# Parameter/return type tags. 'num' accepts int or float and 'same' returns
# the promoted operand type; 'str' accepts only string literals (print).
ParamTag = str


@dataclass(frozen=True)
class BuiltinSpec:
    name: str
    params: tuple[ParamTag, ...]
    returns: str  # 'int' | 'float' | 'void' | 'same'
    cost: int
    impl: Callable
    variadic: bool = False  # extra 'num'/'str' args allowed (print, fork)


class _LcgState:
    """Deterministic rand(): glibc-style LCG, fixed seed unless srand'd."""

    def __init__(self, seed: int = 12345):
        self.state = seed & 0x7FFFFFFF

    def next_int(self) -> int:
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state

    def seed(self, value: int) -> None:
        self.state = value & 0x7FFFFFFF


def _impl_print(runtime, *args):
    pieces = []
    for arg in args:
        if isinstance(arg, float):
            pieces.append(f"{arg:.6g}")
        else:
            pieces.append(str(arg))
    runtime.state.output.append(" ".join(pieces))
    return None


def _wrap_math(fn: Callable[[float], float]) -> Callable:
    def impl(_runtime, x):
        return fn(float(x))

    return impl


def _impl_pow(_runtime, base, exponent):
    return math.pow(float(base), float(exponent))


def _impl_abs(_runtime, x):
    return abs(x)


def _impl_min(_runtime, a, b):
    return a if a < b else b


def _impl_max(_runtime, a, b):
    return a if a > b else b


def _impl_srand(runtime, seed):
    runtime.state.rng.seed(int(seed))
    return None


def _impl_rand(runtime):
    return runtime.state.rng.next_int()


def _impl_randf(runtime):
    return runtime.state.rng.next_int() / 2147483648.0


def _impl_kremlin_fork(runtime, site, trip, *env):
    """Chunk-dispatch rendezvous emitted by the parallel-loop transform.

    ``__kremlin_fork(site, trip, env...)`` returns the upper bound of the
    master's own chunk ``(0, hi]``. A
    :class:`~repro.parallel.executor.ParallelExecutor` installs a policy
    object on the interpreter (``_parallel_policy``) whose ``fork`` method
    partitions ``trip``, dispatches worker chunks with ``env`` as their
    arguments and returns the master's bound. Without a policy — a
    transformed program run like any other program, or a rewritten site
    reached *inside* a worker chunk — fork degrades to serial semantics:
    the masked master loop claims every iteration.
    """
    policy = getattr(runtime, "_parallel_policy", None)
    if policy is not None:
        return policy.fork(runtime, site, trip, env)
    return trip


def _impl_kremlin_join(runtime):
    """Merge rendezvous paired with ``__kremlin_fork`` (no-op when serial)."""
    policy = getattr(runtime, "_parallel_policy", None)
    if policy is not None:
        policy.join(runtime)
    return None


_MATH_COST = 20
_TRANSCENDENTAL_COST = 30

BUILTINS: dict[str, BuiltinSpec] = {
    spec.name: spec
    for spec in [
        BuiltinSpec("sqrt", ("num",), "float", _MATH_COST, _wrap_math(math.sqrt)),
        BuiltinSpec("fabs", ("num",), "float", 2, _wrap_math(abs)),
        BuiltinSpec("exp", ("num",), "float", _TRANSCENDENTAL_COST, _wrap_math(math.exp)),
        BuiltinSpec("log", ("num",), "float", _TRANSCENDENTAL_COST, _wrap_math(math.log)),
        BuiltinSpec("sin", ("num",), "float", _TRANSCENDENTAL_COST, _wrap_math(math.sin)),
        BuiltinSpec("cos", ("num",), "float", _TRANSCENDENTAL_COST, _wrap_math(math.cos)),
        BuiltinSpec("floor", ("num",), "float", 2, _wrap_math(math.floor)),
        BuiltinSpec("ceil", ("num",), "float", 2, _wrap_math(math.ceil)),
        BuiltinSpec("pow", ("num", "num"), "float", _TRANSCENDENTAL_COST, _impl_pow),
        BuiltinSpec("abs", ("num",), "same", 1, _impl_abs),
        BuiltinSpec("min", ("num", "num"), "same", 1, _impl_min),
        BuiltinSpec("max", ("num", "num"), "same", 1, _impl_max),
        BuiltinSpec("srand", ("num",), "void", 5, _impl_srand),
        BuiltinSpec("rand", (), "int", 10, _impl_rand),
        BuiltinSpec("randf", (), "float", 12, _impl_randf),
        BuiltinSpec("print", (), "void", 1, _impl_print, variadic=True),
        # Parallel-loop rendezvous points (emitted only by the
        # repro.parallel transform, never written by hand; see
        # docs/PARALLEL.md). Serial cost 1: the transformed program's
        # profile is not compared against the original's.
        BuiltinSpec(
            "__kremlin_fork", ("num", "num"), "int", 1, _impl_kremlin_fork,
            variadic=True,
        ),
        BuiltinSpec("__kremlin_join", (), "void", 1, _impl_kremlin_join),
    ]
}


def is_builtin(name: str) -> bool:
    return name in BUILTINS
