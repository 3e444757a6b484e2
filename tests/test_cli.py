"""CLI tests (kremlin / kremlin-cc entry points)."""

import pytest

from repro.cli import main, main_cc

TRACKING_LITE = """
float a[1024];
float acc;

void scale(int n) {
  for (int i = 0; i < n; i++) {
    a[i] = a[i] * 2.0 + 1.0;
  }
}

int main() {
  for (int rep = 0; rep < 10; rep++) {
    scale(1024);
  }
  float s = 0.0;
  for (int i = 0; i < 1024; i++) { s += a[i]; }
  acc = s;
  return 0;
}
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(TRACKING_LITE)
    return str(path)


class TestKremlinCli:
    def test_default_plan_output(self, source_file, capsys):
        assert main([source_file]) == 0
        out = capsys.readouterr().out
        assert "Parallelism plan" in out
        assert "Self-P" in out
        assert "prog.c" in out

    def test_personality_flag(self, source_file, capsys):
        assert main([source_file, "--personality=gprof"]) == 0
        out = capsys.readouterr().out
        assert "gprof personality" in out

    def test_regions_flag(self, source_file, capsys):
        assert main([source_file, "--regions"]) == 0
        out = capsys.readouterr().out
        assert "scale#loop1" in out
        assert "Total-P" in out

    def test_limit_flag(self, source_file, capsys):
        assert main([source_file, "--limit", "1"]) == 0

    def test_compression_flag(self, source_file, capsys):
        assert main([source_file, "--compression"]) == 0
        out = capsys.readouterr().out
        assert "trace compression" in out

    def test_exclude_flag(self, source_file, capsys):
        assert main([source_file]) == 0
        first = capsys.readouterr().out
        # grab the top region's id via the library instead of parsing
        from repro import CompileOptions, KremlinSession

        report = KremlinSession(
            compile_options=CompileOptions(filename="prog.c")
        ).analyze(TRACKING_LITE)
        top = report.plan[0]
        assert top.location in first
        assert main([source_file, f"--exclude={top.static_id}"]) == 0
        excluded = capsys.readouterr().out
        assert f"{len(report.plan) - 1} regions" in excluded
        assert top.location not in excluded

    def test_engine_flag_accepts_each_engine(self, source_file, capsys):
        for engine in ("compiled", "tree"):
            assert main([source_file, f"--engine={engine}"]) == 0
            assert "Parallelism plan" in capsys.readouterr().out

    def test_unknown_engine_exits_2_with_suggestion(self, source_file, capsys):
        with pytest.raises(SystemExit) as caught:
            main([source_file, "--engine=compield"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'compield'" in err
        assert "did you mean 'compiled'?" in err

    @pytest.mark.parametrize("subcommand", [[], ["run"], ["submit"], ["trace"]])
    def test_removed_bytecode_engine_exits_2(
        self, subcommand, source_file, capsys
    ):
        with pytest.raises(SystemExit) as caught:
            main([*subcommand, source_file, "--engine=bytecode"])
        assert caught.value.code == 2
        err = capsys.readouterr().err
        assert "unknown engine 'bytecode': choose from compiled, tree" in err

    def test_missing_file_fails_cleanly(self, capsys):
        assert main(["/nonexistent/prog.c"]) == 1
        assert "error" in capsys.readouterr().err

    def test_syntax_error_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.c"
        bad.write_text("int main( {")
        assert main([str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_max_depth_flag(self, source_file, capsys):
        assert main([source_file, "--max-depth", "2"]) == 0

    def test_curve_flag(self, source_file, capsys):
        assert main([source_file, "--curve"]) == 0
        out = capsys.readouterr().out
        assert "Speedup vs cores" in out
        assert "upper bound" in out

    def test_flat_profile_flag(self, source_file, capsys):
        assert main([source_file, "--flat"]) == 0
        out = capsys.readouterr().out
        assert "Flat profile" in out
        assert "scale" in out

    def test_save_and_replan_from_profile(self, source_file, tmp_path, capsys):
        profile_path = str(tmp_path / "saved.json")
        assert main([source_file, "--save-profile", profile_path]) == 0
        first = capsys.readouterr().out
        assert main(["--from-profile", profile_path]) == 0
        second = capsys.readouterr().out
        # Planning from the saved profile reproduces the plan table rows.
        assert first.splitlines()[2:] == second.splitlines()[2:]

    def test_from_profile_with_personality(self, source_file, tmp_path, capsys):
        profile_path = str(tmp_path / "saved.json")
        assert main([source_file, "--save-profile", profile_path]) == 0
        capsys.readouterr()
        assert main(["--from-profile", profile_path, "--personality=gprof"]) == 0
        assert "gprof personality" in capsys.readouterr().out

    def test_from_profile_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["--from-profile", str(bad)]) == 1
        assert "error" in capsys.readouterr().err

    def test_no_source_no_profile_errors(self, capsys):
        import pytest as _pytest

        with _pytest.raises(SystemExit):
            main([])


class TestKremlinFuzzSubcommand:
    def test_fuzz_dispatch_runs_harness(self, capsys):
        assert main([
            "fuzz", "--seed", "0", "--iterations", "2", "--corpus-dir", "none",
        ]) == 0
        out = capsys.readouterr().out
        assert "fuzz: 2 programs" in out
        assert "[base seed 0]" in out


class TestKremlinCcCli:
    def test_reports_structure(self, source_file, capsys):
        assert main_cc([source_file]) == 0
        out = capsys.readouterr().out
        assert "2 functions" in out
        assert "3 loops" in out

    def test_dump_regions(self, source_file, capsys):
        assert main_cc([source_file, "--dump-regions"]) == 0
        out = capsys.readouterr().out
        assert "#0 function scale" in out

    def test_dump_ir(self, source_file, capsys):
        assert main_cc([source_file, "--dump-ir"]) == 0
        out = capsys.readouterr().out
        assert "func main" in out
        assert "region_enter" in out

    def test_error_path(self, capsys):
        assert main_cc(["/nonexistent.c"]) == 1


UNSAFE_SOURCE = """
int hist[16];
int keys[64];
int main() {
  for (int i = 0; i < 64; i++) {
    hist[keys[i]] += 1;
  }
  return 0;
}
"""

CLEAN_SOURCE = """
float a[64];
int main() {
  for (int i = 0; i < 64; i++) { a[i] = (float) i; }
  return (int) a[5];
}
"""


class TestKremlinCheck:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.c"
        path.write_text(CLEAN_SOURCE)
        assert main(["check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "static loop verdicts" in out
        assert "doall" in out

    def test_error_diagnostics_exit_two(self, tmp_path, capsys):
        path = tmp_path / "unsafe.c"
        path.write_text(UNSAFE_SOURCE)
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr().out
        assert "unsafe" in out
        assert "error:" in out
        assert "[loop-carried-dependence]" in out

    def test_compile_error_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( { return 0; }")
        assert main(["check", str(path)]) == 1
        assert "broken.c" in capsys.readouterr().err

    def test_missing_file_exits_one(self, capsys):
        assert main(["check", "/no/such/file.c"]) == 1

    def test_rule_filter(self, tmp_path, capsys):
        path = tmp_path / "unsafe.c"
        path.write_text(UNSAFE_SOURCE)
        assert main(["check", str(path), "--rule", "write-never-read"]) == 0
        out = capsys.readouterr().out
        assert "[loop-carried-dependence]" not in out

    def test_no_verdicts_flag(self, tmp_path, capsys):
        path = tmp_path / "clean.c"
        path.write_text(CLEAN_SOURCE)
        assert main(["check", str(path), "--no-verdicts"]) == 0
        out = capsys.readouterr().out
        assert "static loop verdicts" not in out

    def test_multiple_sources(self, tmp_path, capsys):
        clean = tmp_path / "clean.c"
        clean.write_text(CLEAN_SOURCE)
        unsafe = tmp_path / "unsafe.c"
        unsafe.write_text(UNSAFE_SOURCE)
        # Worst exit status wins across files.
        assert main(["check", str(clean), str(unsafe)]) == 2
        out = capsys.readouterr().out
        assert "clean.c" in out and "unsafe.c" in out
