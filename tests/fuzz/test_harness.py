"""The fuzz harness end to end, including the planted-bug acceptance test."""

import io

import pytest

from repro.fuzz.differential import run_differential, DifferentialFailure
from repro.fuzz.harness import FuzzHarness, fuzz_main
from repro.interp import diskcache
from repro.interp.codegen import _FusedFunctionEmitter


def test_clean_run_over_seed_range(tmp_path):
    out = io.StringIO()
    harness = FuzzHarness(
        seed=0, iterations=8, corpus_dir=tmp_path / "corpus", out=out
    )
    stats = harness.run()
    assert stats.ok
    assert stats.iterations == 8
    assert stats.passed + stats.skipped == 8
    assert stats.checks > 0
    assert not list((tmp_path / "corpus").glob("*.c")) or stats.failures


@pytest.fixture
def planted_fastpath_bug(monkeypatch):
    """Inject an off-by-one into the compiled engine's fused cost
    accounting — the exact class of bug the differential fuzzer exists to
    catch: results stay identical, only the compiled engine's profile
    drifts. The disk cache is off for the duration: it keys on the
    emitter's file bytes, not on this patch, and would otherwise serve
    cached good units."""
    original = _FusedFunctionEmitter._sym_event

    def buggy(self, lines, cost, *args, **kwargs):
        return original(self, lines, cost + 1, *args, **kwargs)

    monkeypatch.setattr(_FusedFunctionEmitter, "_sym_event", buggy)
    previous = dict(diskcache._configured)
    diskcache.configure(enabled=False)
    yield buggy
    diskcache.configure(**previous)


def test_planted_fastpath_bug_is_caught_and_shrunk(
    planted_fastpath_bug, tmp_path
):
    """Acceptance criterion: a deliberately injected fast-path mutation is
    detected, auto-shrunk to a tiny reproducer, and written to the corpus."""
    corpus = tmp_path / "corpus"
    harness = FuzzHarness(
        seed=0, iterations=20, corpus_dir=corpus, out=io.StringIO()
    )
    stats = harness.run()

    assert not stats.ok
    failure = stats.failures[0]
    assert failure.category == "profile-mismatch"
    assert failure.shrunk_lines <= 30
    assert failure.corpus_path is not None and failure.corpus_path.exists()
    written = failure.corpus_path.read_text()
    assert written.startswith("// fuzz reproducer:")
    assert f"seed={failure.seed}" in written

    # The written reproducer still witnesses the bug on its own.
    body = "\n".join(
        line for line in written.splitlines() if not line.startswith("//")
    )
    with pytest.raises(DifferentialFailure) as info:
        run_differential(body)
    assert info.value.category == "profile-mismatch"


def test_keep_going_collects_multiple_failures(planted_fastpath_bug):
    harness = FuzzHarness(
        seed=0, iterations=6, corpus_dir=None, keep_going=True,
        shrink_budget=5, out=io.StringIO(),
    )
    stats = harness.run()
    assert len(stats.failures) >= 2


def test_fuzz_main_exit_codes(tmp_path, capsys):
    assert fuzz_main([
        "--seed", "0", "--iterations", "3",
        "--corpus-dir", str(tmp_path / "c"),
    ]) == 0
    summary = capsys.readouterr().out
    assert "fuzz: 3 programs" in summary


def test_fuzz_main_reports_failure_exit(planted_fastpath_bug, tmp_path, capsys):
    code = fuzz_main([
        "--seed", "0", "--iterations", "5", "--shrink-budget", "30",
        "--corpus-dir", str(tmp_path / "c"),
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "profile-mismatch" in out
