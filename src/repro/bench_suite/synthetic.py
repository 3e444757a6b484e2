"""Synthetic workload generator with ground-truth parallelism labels.

Generates MiniC programs as a sequence of *phases*, each drawn from a small
vocabulary of loop shapes whose parallelism class is known by construction:

* ``doall``       — independent element updates (SP ≈ iteration count)
* ``reduction``   — associative accumulation (parallel after breaking)
* ``serial``      — a loop-carried scalar recurrence (SP ≈ 1)
* ``wavefront``   — a 2-D dependence lattice (DOACROSS, SP ≈ n/2)
* ``histogram``   — data-dependent element accumulation (parallel after
  breaking)

Used by the validation tests to measure discovery accuracy on programs the
test author did not hand-pick, and available to users as a harness for
experimenting with planner personalities on controlled workloads.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

PHASE_KINDS = ("doall", "reduction", "serial", "wavefront", "histogram")

#: Parallelism class each phase kind must exhibit: (min_sp_fraction_of_n,
#: max_sp_fraction_of_n) where n is the phase's iteration count.
EXPECTED_SP_RANGE = {
    "doall": (0.70, 2.0),
    "reduction": (0.70, 2.5),
    "serial": (0.0, 0.10),
    "wavefront": (0.05, 0.70),
    "histogram": (0.70, 2.5),
}


@dataclass(frozen=True)
class Phase:
    """One generated loop phase and its ground truth."""

    index: int
    kind: str
    iterations: int
    region_name: str  # the phase loop's region name after compilation


@dataclass
class SyntheticProgram:
    """A generated program plus its ground-truth phase labels."""

    source: str
    phases: list[Phase] = field(default_factory=list)
    seed: int = 0


def _phase_code(kind: str, index: int, n: int, columns: int) -> str:
    array = f"data{index}"
    if kind == "doall":
        return f"""
void phase{index}() {{
  for (int i = 0; i < {n}; i++) {{
    {array}[i] = {array}[i] * 1.5 + (float) i * 0.25;
  }}
}}"""
    if kind == "reduction":
        return f"""
void phase{index}() {{
  float s = 0.0;
  for (int i = 0; i < {n}; i++) {{
    s += {array}[i] * 0.5 + 1.0;
  }}
  sinks[{index}] = s;
}}"""
    if kind == "serial":
        return f"""
void phase{index}() {{
  float x = 1.0;
  for (int i = 0; i < {n}; i++) {{
    x = x * 0.999 + {array}[i] * 0.0001;
  }}
  sinks[{index}] = x;
}}"""
    if kind == "wavefront":
        return f"""
void phase{index}() {{
  for (int i = 1; i < {columns}; i++) {{
    for (int j = 1; j < {columns}; j++) {{
      grid{index}[i][j] = grid{index}[i][j]
          + 0.3 * grid{index}[i - 1][j] + 0.3 * grid{index}[i][j - 1];
    }}
  }}
}}"""
    if kind == "histogram":
        return f"""
void phase{index}() {{
  for (int i = 0; i < {n}; i++) {{
    hist{index}[(i * 13 + 5) % 32] += 1;
  }}
}}"""
    raise ValueError(f"unknown phase kind {kind!r}")


def _phase_globals(kind: str, index: int, n: int, columns: int) -> str:
    if kind == "wavefront":
        return f"float grid{index}[{columns}][{columns}];"
    if kind == "histogram":
        return f"int hist{index}[32];"
    return f"float data{index}[{n}];"


def generate_program(
    n_phases: int = 5,
    seed: int = 0,
    iterations: int = 256,
    kinds: tuple[str, ...] = PHASE_KINDS,
) -> SyntheticProgram:
    """Generate a deterministic synthetic program with ``n_phases`` phases.

    ``seed`` selects the phase mix; the generated code is pure MiniC with
    one function per phase (so every phase loop is ``phaseK#loop1``) and a
    main that initializes and runs them in order.
    """
    rng = random.Random(seed)
    columns = max(8, int(iterations ** 0.5))

    phases: list[Phase] = []
    globals_parts: list[str] = [f"float sinks[{max(n_phases, 1)}];"]
    function_parts: list[str] = []
    for index in range(n_phases):
        kind = rng.choice(list(kinds))
        n = iterations
        effective_iterations = (columns - 1) if kind == "wavefront" else n
        globals_parts.append(_phase_globals(kind, index, n, columns))
        function_parts.append(_phase_code(kind, index, n, columns))
        phases.append(
            Phase(
                index=index,
                kind=kind,
                iterations=effective_iterations,
                region_name=f"phase{index}#loop1",
            )
        )

    init_lines = []
    for phase in phases:
        if phase.kind == "wavefront":
            init_lines.append(
                f"  for (int i = 0; i < {columns}; i++)\n"
                f"    for (int j = 0; j < {columns}; j++)\n"
                f"      grid{phase.index}[i][j] = (float) ((i * 7 + j) % 9);"
            )
        elif phase.kind == "histogram":
            pass  # zero-initialized
        else:
            init_lines.append(
                f"  for (int i = 0; i < {iterations}; i++)\n"
                f"    data{phase.index}[i] = (float) (i % 17) * 0.5;"
            )

    calls = "\n".join(f"  phase{p.index}();" for p in phases)
    source = (
        "// synthetic workload (seed "
        + str(seed)
        + ")\n"
        + "\n".join(globals_parts)
        + "\n"
        + "\n".join(function_parts)
        + "\n\nint main() {\n"
        + "\n".join(init_lines)
        + "\n"
        + calls
        + "\n  return (int) sinks[0];\n}\n"
    )
    return SyntheticProgram(source=source, phases=phases, seed=seed)
