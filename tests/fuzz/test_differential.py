"""The differential runner: clean passes, skip paths, and failure shapes."""

import json

import pytest

from repro.fuzz.differential import (
    DifferentialFailure,
    ProgramInvalid,
    run_differential,
)
from repro.hcpa.serialize import profile_to_json

CLEAN = """
int square(int n) { return (n * n) % 97; }
int main() {
  int total = 0;
  for (int i = 0; i < 10; i++) {
    total = (total + square(i)) % 97;
  }
  return total;
}
"""


def test_clean_program_passes_whole_matrix():
    outcome = run_differential(CLEAN)
    assert outcome.result.value == sum(i * i % 97 for i in range(10)) % 97
    # plain diff + (results, perturbation, profiles) per depth window +
    # oracle groups
    assert outcome.checks >= 10
    assert set(outcome.profiles) == {None, 2}


def test_profiles_are_per_depth_window():
    outcome = run_differential(CLEAN)
    unlimited = outcome.profiles[None]
    windowed = outcome.profiles[2]
    assert unlimited.max_depth is None
    assert windowed.max_depth == 2
    # Same total work either way; the window only coarsens attribution.
    assert unlimited.total_work == windowed.total_work
    assert outcome.profile is unlimited


def test_noncompiling_program_is_invalid_not_a_failure():
    with pytest.raises(ProgramInvalid, match="does not compile"):
        run_differential("int main() { return undeclared; }")


def test_symmetric_crash_is_invalid_not_a_failure():
    # Tiny budget: both engines abort identically -> unusable input, not
    # an engine divergence.
    with pytest.raises(ProgramInvalid, match="both engines fail"):
        run_differential(CLEAN, max_instructions=5)


def test_profile_mismatch_reports_first_divergence(monkeypatch):
    """Corrupting one engine's serialized profile must surface as a
    profile-mismatch naming the first differing dictionary entry."""
    from repro.fuzz import differential as module

    real = module._run_one
    def skewed(program, engine, profiled, max_depth, max_instructions,
               metrics=False):
        result, serialized, profile, error = real(
            program, engine, profiled, max_depth, max_instructions, metrics
        )
        if profiled and engine == "compiled" and error is None:
            data = json.loads(serialized)
            data["dictionary"][0]["cp"] += 1
            serialized = json.dumps(data, sort_keys=True)
        return result, serialized, profile, error

    monkeypatch.setattr(module, "_run_one", skewed)
    with pytest.raises(DifferentialFailure) as info:
        run_differential(CLEAN, oracle=False)
    assert info.value.category == "profile-mismatch"
    assert "dictionary[0]" in str(info.value)


def test_oracle_flag_controls_oracle_checks():
    with_oracle = run_differential(CLEAN, oracle=True)
    without = run_differential(CLEAN, oracle=False)
    assert with_oracle.checks > without.checks


def test_serialized_profile_is_deterministic():
    first = run_differential(CLEAN).profile
    second = run_differential(CLEAN).profile
    assert json.dumps(profile_to_json(first), sort_keys=True) == json.dumps(
        profile_to_json(second), sort_keys=True
    )
