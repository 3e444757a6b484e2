"""KremLib runtime mechanics: region stack, tags, depth limiting, shadow."""

import pytest

from repro.instrument.compile import kremlin_cc
from repro.interp.interpreter import Interpreter
from repro.kremlib.profiler import KremlinProfiler, ProfilerError, profile_program
from repro.kremlib.shadow import ShadowFrame, resolve_entry
from tests.conftest import compile_source, profile_source, region_profile


class TestRegionStackDiscipline:
    def test_regions_balance_on_normal_exit(self):
        program = compile_source(
            "int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; }"
        )
        profile, _ = profile_program(program)
        assert profile.root_char is not None

    def test_regions_balance_with_break_continue_return(self):
        program = compile_source(
            """
            int f(int n) {
              for (int i = 0; i < n; i++) {
                if (i == 3) return i;
                if (i % 2 == 0) continue;
              }
              return 0;
            }
            int main() {
              int s = f(10);
              for (int i = 0; i < 10; i++) {
                if (i == 5) break;
                s += i;
              }
              return s;
            }
            """
        )
        profile, run = profile_program(program)
        assert run.value == 3 + 0 + 1 + 2 + 3 + 4
        assert profile.root_entry.static_id == program.regions.function_region("main").id

    def test_do_while_regions_balance(self):
        program = compile_source(
            "int main() { int i = 0; do { i++; } while (i < 5); return i; }"
        )
        profile, _ = profile_program(program)
        counts = profile.char_counts()
        bodies = [
            counts[c]
            for c, e in enumerate(profile.dictionary.entries)
            if profile.regions.region(e.static_id).is_body
        ]
        assert sum(bodies) == 5

    def test_profiler_not_finished_raises(self):
        program = compile_source("int main() { return 0; }")
        profiler = KremlinProfiler(program)
        with pytest.raises(ProfilerError, match="not completed"):
            _ = profiler.profile


class TestDynamicRegionCounts:
    def test_iteration_counts_recorded(self):
        _, profile, aggregated = profile_source(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 7; i++) {
                for (int j = 0; j < 3; j++) { s += 1; }
              }
              return s;
            }
            """
        )
        outer = region_profile(aggregated, "main#loop1")
        inner = region_profile(aggregated, "main#loop2")
        assert outer.instances == 1
        assert outer.average_iterations == 7
        assert inner.instances == 7
        assert inner.average_iterations == 3

    def test_dynamic_region_count(self):
        _, profile, _ = profile_source(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 10; i++) { s += i; }
              return s;
            }
            """
        )
        # regions: main (1), loop (1), body (10)
        assert profile.dynamic_region_count == 12

    def test_zero_iteration_loop(self):
        _, profile, aggregated = profile_source(
            """
            int main() {
              int s = 0;
              for (int i = 0; i < 0; i++) { s += i; }
              return s;
            }
            """
        )
        loop = region_profile(aggregated, "main#loop1")
        assert loop.instances == 1
        assert loop.average_iterations == 0
        assert loop.self_parallelism == pytest.approx(1.0, abs=0.5)


class TestShadowTagSemantics:
    def test_resolve_identity_fast_path(self):
        tags = (1, 2, 3)
        entry = ([5, 6, 7], tags)
        assert resolve_entry(entry, tags) == ([5, 6, 7], 3)

    def test_resolve_prefix(self):
        entry = ([5, 6, 7], (1, 2, 3))
        times, valid = resolve_entry(entry, (1, 2, 99))
        assert valid == 2

    def test_resolve_stale(self):
        entry = ([5, 6, 7], (9, 9, 9))
        assert resolve_entry(entry, (1, 2, 3)) is None

    def test_resolve_none(self):
        assert resolve_entry(None, (1,)) is None

    def test_shorter_current_stack(self):
        entry = ([5, 6, 7], (1, 2, 3))
        times, valid = resolve_entry(entry, (1,))
        assert valid == 1

    def test_sibling_region_values_read_as_zero(self):
        """A value produced by iteration k must read as time 0 inside
        iteration k+1 (fresh region instance) — the §4.2 tag rule. If tags
        leaked, the *body* cp of each iteration would grow unboundedly."""
        _, profile, aggregated = profile_source(
            """
            float acc;
            int main() {
              float x = 0.0;
              for (int i = 0; i < 50; i++) {
                x = x + 2.0;      // loop-carried (no break: x read below)
                acc = acc + x;    // but acc is not a reduction either
              }
              return (int) acc;
            }
            """
        )
        entries = profile.dictionary.entries
        body_cps = [
            e.cp
            for e in entries
            if profile.regions.region(e.static_id).is_body
        ]
        # every body instance must have a small, bounded local cp
        assert body_cps and max(body_cps) <= 30


class TestShadowFrame:
    def test_register_table_size(self):
        frame = ShadowFrame(8)
        assert len(frame.registers) == 8
        assert frame.control == []


class TestDepthLimiting:
    """The paper's command-line flag limiting profiled region depth."""

    SOURCE = """
    float a[32];
    int main() {
      for (int i = 0; i < 8; i++) {
        for (int j = 0; j < 32; j++) {
          a[j] = a[j] + (float) (i + j);
        }
      }
      return (int) a[5];
    }
    """

    def test_unlimited_matches_default(self):
        program = compile_source(self.SOURCE)
        full, _ = profile_program(program)
        limited, _ = profile_program(program, max_depth=64)
        assert full.root_entry.work == limited.root_entry.work

    def test_depth_limited_regions_fall_back_to_serial(self):
        program = compile_source(self.SOURCE)
        profile, _ = profile_program(program, max_depth=2)
        assert profile.max_depth == 2
        # Regions deeper than the window report cp == work (serial).
        for entry in profile.dictionary.entries:
            region = profile.regions.region(entry.static_id)
            # depth: main=1, loop1=2, body=3, loop2=4, ...
            if region.name in ("main#loop1.body", "main#loop2"):
                assert entry.cp == entry.work

    def test_depth_limit_preserves_work_accounting(self):
        program = compile_source(self.SOURCE)
        full, _ = profile_program(program)
        limited, _ = profile_program(program, max_depth=1)
        assert full.total_work == limited.total_work

    def test_shallow_regions_unaffected_by_limit(self):
        program = compile_source(self.SOURCE)
        full, _ = profile_program(program, max_depth=None)
        limited, _ = profile_program(program, max_depth=3)
        # main (depth 1) and loop1 (depth 2) summaries must be identical.
        def summary(profile, name):
            for entry in profile.dictionary.entries:
                if profile.regions.region(entry.static_id).name == name:
                    return (entry.work, entry.cp)
            raise AssertionError(name)

        assert summary(full, "main#loop1") == summary(limited, "main#loop1")


class TestProfileReproducibility:
    def test_profiles_are_deterministic(self):
        source = """
        float data[64];
        int main() {
          srand(5);
          for (int i = 0; i < 64; i++) data[i] = randf();
          float s = 0.0;
          for (int i = 0; i < 64; i++) s += data[i];
          return (int) (s * 10.0);
        }
        """
        program1 = compile_source(source)
        program2 = compile_source(source)
        profile1, run1 = profile_program(program1)
        profile2, run2 = profile_program(program2)
        assert run1.value == run2.value
        assert len(profile1.dictionary) == len(profile2.dictionary)
        assert [
            (e.static_id, e.work, e.cp, e.children)
            for e in profile1.dictionary.entries
        ] == [
            (e.static_id, e.work, e.cp, e.children)
            for e in profile2.dictionary.entries
        ]

    @pytest.mark.parametrize("max_depth", [None, 2])
    @pytest.mark.parametrize("engine", ["compiled", "tree"])
    def test_reused_profiler_keeps_each_run_profile(self, engine, max_depth):
        # One interpreter and one profiler, run twice: the first profile
        # must not change under the second run, and the second must equal
        # a fresh profiler's.
        import json

        from repro.hcpa.serialize import profile_to_json

        program = compile_source(
            """
            int data[32];
            int f(int n) { int s = 0; for (int i = 0; i < n; i++) s += data[i]; return s; }
            int main() {
              for (int i = 0; i < 32; i++) data[i] = i * 3;
              int t = 0;
              for (int k = 0; k < 4; k++) {
                if (k % 2 == 0) t += f(32); else t -= f(16);
              }
              return t;
            }
            """
        )

        def dump(profile):
            return json.dumps(profile_to_json(profile), sort_keys=True)

        profiler = KremlinProfiler(program, max_depth=max_depth)
        interp = Interpreter(program, observer=profiler, engine=engine)
        interp.run("main")
        first = profiler.profile
        first_dump = dump(first)
        interp.run("main")
        fresh, _ = profile_program(program, max_depth=max_depth, engine=engine)
        assert dump(first) == first_dump
        assert dump(profiler.profile) == dump(fresh) == first_dump
