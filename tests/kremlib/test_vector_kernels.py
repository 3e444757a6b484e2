"""Vectorized shadow kernels: numpy folds must be invisible in profiles.

``fold_max_into`` (:mod:`repro.kremlib.shadow`) replaces chains of
pairwise ``max`` operations in wide segments with one numpy reduction. The contract is absolute byte-identity: a profile
produced with vectorization at any threshold serializes to exactly the
same JSON as the scalar path on every engine — the threshold is a pure
performance knob.
"""

from __future__ import annotations

import json

import pytest

from repro import kremlin_cc
from repro.hcpa.serialize import profile_to_json
from repro.interp.interpreter import Interpreter
from repro.kremlib import shadow
from repro.kremlib.profiler import KremlinProfiler

numpy = pytest.importorskip("numpy")

ENGINES = ("tree", "compiled")

# A wide basic block: one segment retires far more than
# DEFAULT_VECTOR_THRESHOLD shadow events, so thresholds 1-8 all force the
# vector form, plus a loop-carried chain so timestamps are non-trivial.
WIDE_SOURCE = """
int a[16];
int main() {
  int t0 = 3; int t1 = t0 + 1; int t2 = t1 * 2; int t3 = t2 - t0;
  int t4 = t3 + t1; int t5 = t4 * t2; int t6 = t5 - t3; int t7 = t6 + t4;
  int t8 = t7 + t5; int t9 = t8 - t6; int s = t9 + t7;
  for (int i = 0; i < 16; i++) {
    a[i] = s + i;
    s = s + a[i];
  }
  return s;
}
"""


@pytest.fixture
def threshold():
    """Let a test pick thresholds; always restore the ambient one."""
    previous = shadow.set_vector_threshold(None)
    shadow.set_vector_threshold(previous)

    def _set(value):
        shadow.set_vector_threshold(value)

    yield _set
    shadow.set_vector_threshold(previous)


def _profile(engine: str) -> tuple[object, str]:
    program = kremlin_cc(WIDE_SOURCE, "wide.c")
    observer = KremlinProfiler(program)
    result = Interpreter(program, observer=observer, engine=engine).run(
        "main"
    )
    return result, json.dumps(
        profile_to_json(observer.profile), sort_keys=True
    )


class TestKernels:
    def test_fold_max_into_matches_pairwise_max(self):
        # ``cps`` has spare capacity past the current depth ``dp``;
        # event vectors are always exactly ``dp`` long.
        cps = [5, 0, 9, 2, 100]
        vectors = ([1, 7, 3, 4], [6, 2, 8, 1], [0, 0, 10, 9])
        expected = [
            max(cps[d], *(v[d] for v in vectors)) for d in range(4)
        ] + [100]
        shadow.fold_max_into(cps, vectors, 4)
        assert cps == expected
        assert all(type(value) is int for value in cps)

    def test_fold_max_into_depth_zero_is_noop(self):
        cps = [1, 2]
        shadow.fold_max_into(cps, ([], []), 0)
        assert cps == [1, 2]

    def test_kernels_survive_int64_overflow(self):
        """Values past int64 fall back to the exact scalar path."""
        huge = 2**80
        cps = [0, 0]
        shadow.fold_max_into(cps, ([huge, 1], [1, huge]), 2)
        assert cps == [huge, huge]

    def test_threshold_override_round_trips(self, threshold):
        previous = shadow.set_vector_threshold(3)
        try:
            assert shadow.vector_threshold() == 3
        finally:
            restored = shadow.set_vector_threshold(previous)
            assert restored == 3

    def test_threshold_zero_disables(self, threshold):
        threshold(0)
        assert shadow.vector_threshold() == 0


class TestByteIdentity:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_vectorized_profile_identical_to_scalar(
        self, engine, threshold
    ):
        threshold(0)
        scalar_result, scalar_profile = _profile(engine)
        for value in (2, 8):
            threshold(value)
            result, profile = _profile(engine)
            assert result.value == scalar_result.value
            assert result.instructions_retired == (
                scalar_result.instructions_retired
            )
            assert profile == scalar_profile, (engine, value)

    def test_vector_form_is_actually_emitted(self, threshold):
        """Guard against the threshold silently never triggering."""
        from repro.interp.codegen import build_unit

        threshold(2)
        program = kremlin_cc(WIDE_SOURCE, "wide.c")
        unit = build_unit(program, "fused", vector_threshold=2)
        assert "_vmax(" in unit.source
        scalar = build_unit(program, "fused", vector_threshold=0)
        assert "_vmax(" not in scalar.source
