"""Property: chunked-parallel execution is indistinguishable from serial.

Every generated program runs through the inline parallel executor (the
deterministic in-process transport — same chunking, masking, and merge
code as the pool, minus process shipping) across both engines and
1/2/4 workers. The executor's own verification is the oracle: final
scalar/array state, return value, and output must match the serial run
exactly (``outcome.mismatch is None``). A ``slow_parallel``-marked subset
re-checks a sample on a real process pool.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.parallel.executor import ParallelExecutor, ParallelOptions

ENGINES = ("tree", "compiled")

all_engines = pytest.mark.parametrize("engine", ENGINES)
all_workers = pytest.mark.parametrize("workers", [1, 2, 4])


def execute(source, workers, engine="compiled", mode="inline"):
    options = ParallelOptions(workers=workers, engine=engine, mode=mode)
    with ParallelExecutor(options) as executor:
        return executor.execute_source(source, "prop.c")


def assert_verified(outcome):
    """The executor's serial-vs-parallel verification must be clean; a
    fallback is acceptable (serial stands), a mismatch never is."""
    assert outcome.mismatch is None, outcome.mismatch
    if outcome.executed:
        assert (
            outcome.parallel_result.value == outcome.serial_result.value
        )
        assert outcome.output_identical


# a doall write loop feeding a reduction loop, sizes and constants drawn
# by hypothesis (trip counts below, at, and above the worker count)
TEMPLATE = """
int data[{size}];
int total;

int main() {{
  int i;
  total = {seed};
  for (i = 0; i < {trip}; i = i + 1) {{
    data[i] = i * {mult} + {offset};
  }}
  for (i = 0; i < {trip}; i = i + 1) {{
    total = total {op} data[i];
  }}
  print(total);
  return total;
}}
"""


class TestParallelEqualsSerial:
    @all_engines
    @all_workers
    @given(
        trip=st.integers(min_value=0, max_value=40),
        mult=st.integers(min_value=-9, max_value=9),
        offset=st.integers(min_value=-5, max_value=5),
        seed=st.integers(min_value=-100, max_value=100),
        op=st.sampled_from(["+", "-"]),
    )
    @settings(max_examples=8, deadline=None)
    def test_doall_then_reduction(
        self, engine, workers, trip, mult, offset, seed, op
    ):
        source = TEMPLATE.format(
            size=max(trip, 1),
            trip=trip,
            mult=mult,
            offset=offset,
            seed=seed,
            op=op,
        )
        outcome = execute(source, workers, engine)
        assert_verified(outcome)
        expected = seed
        for i in range(trip):
            value = i * mult + offset
            expected = expected + value if op == "+" else expected - value
        assert outcome.serial_result.value == expected

    @all_workers
    @given(
        trip=st.integers(min_value=2, max_value=30),
        factors=st.lists(
            st.integers(min_value=-3, max_value=3), min_size=0, max_size=4
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_product_reduction(self, workers, trip, factors):
        writes = "".join(
            f"  vals[{i}] = {f};\n" for i, f in enumerate(factors[:trip])
        )
        source = f"""
        int vals[{trip}];
        int prod;

        int main() {{
          int i;
          prod = 1;
          for (i = 0; i < {trip}; i = i + 1) {{ vals[i] = i - 2; }}
        {writes}
          for (i = 0; i < {trip}; i = i + 1) {{
            prod = prod * vals[i];
          }}
          return prod;
        }}
        """
        outcome = execute(source, workers)
        assert_verified(outcome)


# one program containing a safe reduction loop AND a loop the static
# verdict refuses (loop-carried dependence): the backend must chunk the
# first and leave the second strictly serial, in the same run
MIXED_SAFETY = """
int squares[48];
int prefix[48];
int total;

int main() {
  int i;
  for (i = 0; i < 48; i = i + 1) {
    squares[i] = i * i;
  }
  for (i = 0; i < 48; i = i + 1) {
    total = total + squares[i];
  }
  for (i = 1; i < 48; i = i + 1) {
    prefix[i] = prefix[i - 1] + squares[i];
  }
  print(total);
  print(prefix[47]);
  return total;
}
"""


class TestMixedSafetyProgram:
    @all_engines
    @all_workers
    def test_reduction_chunks_while_refused_loop_stays_serial(
        self, engine, workers
    ):
        outcome = execute(MIXED_SAFETY, workers, engine)
        assert_verified(outcome)
        accepted = {site.region_name for site in outcome.sites}
        assert accepted == {"main#loop1", "main#loop2"}
        expected = sum(i * i for i in range(48))
        assert outcome.serial_result.value == expected
        if workers > 1:
            assert outcome.dispatched_chunks > 0
        assert outcome.serial_arrays["prefix"][47] == sum(
            i * i for i in range(1, 48)
        )


@pytest.mark.slow_parallel
class TestPoolSample:
    """The same properties on a real process pool (one sample per shape)."""

    @all_engines
    def test_mixed_safety_program_on_a_pool(self, engine):
        outcome = execute(MIXED_SAFETY, workers=2, engine=engine, mode="fork")
        assert_verified(outcome)
        assert outcome.executed
        assert outcome.dispatched_chunks > 0
