"""The loop-outlining transform: acceptance, vetting, and refusals."""

import pytest

from repro.instrument import kremlin_cc
from repro.parallel.transform import plan_transform

DOALL_AND_REDUCTION = """
int out[64];
int total;

int main() {
  int i;
  for (i = 0; i < 64; i = i + 1) {
    out[i] = i * 3;
  }
  for (i = 0; i < 64; i = i + 1) {
    total = total + out[i];
  }
  return total;
}
"""


#: big enough that the openmp personality's work filters keep the loops
#: (min_instance_work), so the plan actually contains them
PLAN_SCALE_SOURCE = """
int out[2048];
int total;

int main() {
  int i;
  for (i = 0; i < 2048; i = i + 1) {
    out[i] = i * 3;
  }
  for (i = 0; i < 2048; i = i + 1) {
    total = total + out[i];
  }
  return total;
}
"""


def transform(source, filename="test.c", **kwargs):
    return plan_transform(kremlin_cc(source, filename), **kwargs)


class TestAcceptance:
    def test_accepts_doall_and_reduction_sites(self):
        result = transform(DOALL_AND_REDUCTION)
        assert result.has_sites
        assert len(result.sites) == 2
        assert not result.refused
        doall, reduction = result.sites
        assert doall.verdict == "doall" and not doall.reductions
        assert reduction.verdict == "reduction(total)"
        assert [(r.name, r.op) for r in reduction.reductions] == [
            ("total", "+")
        ]

    def test_rewritten_source_has_the_runtime_protocol(self):
        result = transform(DOALL_AND_REDUCTION)
        assert "__kremlin_join();" in result.source
        for site in result.sites:
            assert site.chunk_function == f"__kremlin_chunk{site.index}"
            # the rendezvous passes by value: fork takes the site and trip
            # and returns the master's bound; chunks take theirs as
            # parameters
            assert (
                f"int __kremlin_hi = __kremlin_fork({site.index}, "
                "__kremlin_trip);" in result.source
            )
            assert (
                f"void {site.chunk_function}(int __kremlin_lo, "
                "int __kremlin_hi)" in result.source
            )
        # the rewrite declares no global of its own
        from repro.frontend.parser import parse_program

        rewritten = parse_program(result.source, "test.c")
        assert [g.name for g in rewritten.globals] == ["out", "total"]

    def test_free_locals_travel_as_fork_arguments_and_chunk_parameters(self):
        result = transform(
            """
            int grid[4][8];
            int main() {
              int i;
              int j;
              float scale;
              scale = 0.5;
              for (i = 0; i < 4; i = i + 1) {
                for (j = 0; j < 8; j = j + 1) { grid[i][j] = i * scale + j; }
              }
              return grid[3][7];
            }
            """
        )
        assert [s.region_name for s in result.sites] == ["main#loop1"]
        assert result.sites[0].index == 0
        # the outer site's free locals, sorted by name
        assert "__kremlin_fork(0, __kremlin_trip, j, scale);" in result.source
        assert (
            "void __kremlin_chunk0(int __kremlin_lo, int __kremlin_hi, "
            "int j, float scale)" in result.source
        )

    def test_rewritten_source_still_compiles_and_runs_serially(self):
        result = transform(DOALL_AND_REDUCTION)
        from repro.interp import Interpreter

        rewritten = kremlin_cc(result.source, "test.c", analyze=False)
        # without a policy, fork returns the whole trip as the master's
        # bound, which makes the transformed program equivalent to the
        # original
        run = Interpreter(rewritten, engine="compiled").run("main")
        assert run.value == sum(i * 3 for i in range(64))


class TestReductionOperator:
    """The combining operator is read off the analyzer's update."""

    @pytest.mark.parametrize(
        "update, op",
        [
            ("acc = acc + a[i];", "+"),
            ("acc += a[i];", "+"),
            ("acc = acc - a[i];", "+"),
            ("acc -= a[i];", "+"),
            ("acc = acc * a[i];", "*"),
            ("acc *= a[i];", "*"),
            ("acc = a[i] & acc;", "&"),
            ("acc = acc | a[i];", "|"),
            ("acc = acc ^ a[i];", "^"),
        ],
    )
    def test_global_cell_operator(self, update, op):
        result = transform(
            f"""
            int a[16];
            int acc;
            int main() {{
              int i;
              for (i = 0; i < 16; i = i + 1) {{ a[i] = i + 1; }}
              for (i = 0; i < 16; i = i + 1) {{ {update} }}
              return acc;
            }}
            """
        )
        assert [s.region_name for s in result.sites] == [
            "main#loop1",
            "main#loop2",
        ]
        assert [(r.name, r.op) for r in result.sites[1].reductions] == [
            ("acc", op)
        ]

    def test_reduction_through_a_call_has_no_visible_update(self):
        from pathlib import Path

        example = Path(__file__).parents[2] / "examples" / "call_in_loop.c"
        result = transform(example.read_text(), "call_in_loop.c")
        assert [r.reason for r in result.refused] == [
            "reduction 'total' has no visible update"
        ]


class TestRefusals:
    def test_non_canonical_loop_refused(self):
        result = transform(
            """
            int a[8];
            int main() {
              int i;
              i = 0;
              while (i < 8) { a[i] = i; i = i + 1; }
              return a[3];
            }
            """
        )
        assert not result.sites
        assert [r.reason for r in result.refused] == [
            "not a canonical counted for-loop"
        ]

    def test_effect_free_loop_refused(self):
        # no global writes: nothing to parallelize, and accepting it would
        # let the site be called from inside another site's masked loop
        # (the policy-reentry hole documented in docs/PARALLEL.md)
        result = transform(
            """
            int main() {
              int i;
              int s;
              s = 0;
              for (i = 0; i < 8; i = i + 1) { int t; t = i * 2; }
              return s;
            }
            """
        )
        assert not result.sites
        assert [r.reason for r in result.refused] == [
            "loop has no global side effects"
        ]

    def test_local_shadowing_a_read_global_refused(self):
        # the loop reads main's local k; an outlined chunk would read the
        # global k instead, and chunked runs would diverge from serial
        result = transform(
            """
            int k = 3;
            int out[64];
            int main() {
              int i;
              int k;
              k = 5;
              for (i = 0; i < 64; i = i + 1) { out[i] = i * k; }
              return out[63];
            }
            """
        )
        assert not result.sites
        assert [r.reason for r in result.refused] == [
            "free variable 'k' shadows a global"
        ]

    def test_live_out_scalar_named_in_single_quotes(self):
        result = transform(
            """
            int a[16];
            int main() {
              int i;
              int sum;
              sum = 0;
              for (i = 0; i < 16; i = i + 1) { a[i] = i; sum = sum + i; }
              return sum;
            }
            """
        )
        assert [r.reason for r in result.refused] == [
            "loop-written scalar 'sum' is live after the loop"
        ]

    def test_secondary_induction_named_in_single_quotes(self):
        result = transform(
            """
            int a[64];
            int main() {
              int i;
              int j;
              j = 0;
              for (i = 0; i < 16; i = i + 1) { a[j] = i; j = j + 2; }
              return a[2];
            }
            """
        )
        assert [r.reason for r in result.refused] == [
            "secondary induction variable 'j' advances in the body"
        ]

    def test_float_reduction_refused_by_default(self):
        source = """
        double a[8];
        double s;
        int main() {
          int i;
          for (i = 0; i < 8; i = i + 1) { a[i] = i * 0.5; }
          for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }
          return 0;
        }
        """
        result = transform(source)
        assert len(result.sites) == 1  # the doall write loop
        assert len(result.refused) == 1
        assert "bit-exactness" in result.refused[0].reason

    def test_float_reduction_accepted_when_allowed(self):
        source = """
        double a[8];
        double s;
        int main() {
          int i;
          for (i = 0; i < 8; i = i + 1) { a[i] = i * 0.5; }
          for (i = 0; i < 8; i = i + 1) { s = s + a[i]; }
          return 0;
        }
        """
        result = transform(source, allow_float_reductions=True)
        assert len(result.sites) == 2
        assert not result.refused
        assert result.sites[1].reductions[0].is_float

    def test_unsafe_verdict_is_not_even_a_candidate(self):
        # geometric step: the analyzer already calls it unsafe, so the
        # transform neither accepts nor lists it as refused
        result = transform(
            """
            int a[64];
            int main() {
              int i;
              for (i = 1; i < 64; i = i * 2) { a[i] = i; }
              return a[4];
            }
            """
        )
        assert not result.sites
        assert not result.refused
        assert result.source is None

    def test_source_already_using_the_prefix_refused_wholesale(self):
        result = transform(
            """
            int __kremlin_x;
            int main() { return 0; }
            """
        )
        assert not result.sites
        assert result.refused
        assert "__kremlin prefix" in result.refused[0].reason


class TestPlanIntegration:
    def test_plan_items_drive_candidate_order(self):
        from repro import KremlinSession

        session = KremlinSession()
        report = session.analyze(PLAN_SCALE_SOURCE)
        executable = [item for item in report.plan if item.executable]
        assert executable, "plan should mark the safe loops executable"
        result = plan_transform(report.program, report.plan)
        assert {site.region_id for site in result.sites} >= {
            item.region.id for item in executable
        }
