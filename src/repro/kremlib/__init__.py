"""KremLib: the Kremlin runtime profiling library.

The paper links instrumented binaries against KremLib, which implements
hierarchical critical path analysis with:

* a two-level dynamically-allocated **shadow memory** whose every location
  holds one availability time *per active region depth*, tagged with the
  writing region's instance id so stale times from exited sibling regions
  read as zero (§4.2);
* **shadow register tables** for locals (fast path, one per activation);
* a **control-dependence stack** whose entries' times only increase, so
  reads consult only the top (§4.1);
* the **induction/reduction update rule** that ignores the old-value operand
  of updates the static analyzer flagged (§4.1);
* per-region **work and critical-path accounting**, summarized into the
  online compression dictionary at every region exit (§4.4).

Here KremLib is an :class:`~repro.interp.ExecutionObserver` attached to the
IR interpreter; the combination of instrumented module + interpreter +
profiler is the paper's "instrumented binary".
"""

from repro.kremlib.profiler import KremlinProfiler, profile_program
from repro.kremlib.shadow import ShadowFrame

__all__ = ["KremlinProfiler", "ShadowFrame", "profile_program"]
