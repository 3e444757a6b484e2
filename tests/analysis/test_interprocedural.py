"""Golden corpus: call-bearing loops under interprocedural summaries.

Each case is one canonical caller/callee shape with an exact expected
verdict. Like the dependence-classifier corpus these are deliberately
brittle: a summary-computation change that moves any verdict must update
the expectation here and explain why.
"""

from repro.analysis.dependence import analyze_function_dependences
from repro.analysis.verdict import Verdict
from tests.conftest import compile_source


def loop_infos(source, name="main"):
    program = compile_source(source)
    function = program.module.function(name)
    return analyze_function_dependences(function, program.module)


def single_loop(source, name="main"):
    infos = loop_infos(source, name)
    assert len(infos) == 1, f"expected one loop in {name}, got {len(infos)}"
    return infos[0]


DISJOINT_WRITES = """
int src[64];
int dst[64];

void blur(int i) {
  dst[i] = src[i] + src[i + 1];
}

int main() {
  for (int i = 0; i < 63; i++) {
    blur(i);
  }
  return 0;
}
"""

REDUCTION_THROUGH_CALL = """
float acc;

void bump(float v) {
  acc = acc + v;
}

int main() {
  for (int i = 0; i < 64; i++) {
    bump(1.5);
  }
  return 0;
}
"""

RECURSIVE_WITH_EFFECTS = """
int count;

int probe(int n) {
  count = count + 1;
  if (n <= 1) { return 0; }
  return 1 + probe(n / 2);
}

int main() {
  for (int i = 1; i < 64; i++) {
    count = count + probe(i);
  }
  return 0;
}
"""

PURE_RECURSIVE = """
int out[32];

int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}

int main() {
  for (int i = 0; i < 32; i++) {
    out[i] = fib(i);
  }
  return 0;
}
"""

ALIASED_ARRAY_PARAMS = """
int a[64];

void shift(int p[], int q[], int i) {
  p[i] = q[i + 1];
}

int main() {
  for (int i = 0; i < 63; i++) {
    shift(a, a, i);
  }
  return 0;
}
"""

CARRIED_THROUGH_CALL = """
int a[64];

void smear(int i) {
  a[i] = a[i - 1] + 1;
}

int main() {
  for (int i = 1; i < 64; i++) {
    smear(i);
  }
  return 0;
}
"""


class TestInterproceduralVerdicts:
    def test_disjoint_callee_writes_is_doall(self):
        info = single_loop(DISJOINT_WRITES)
        assert info.verdict.verdict is Verdict.SAFE_DOALL

    def test_reduction_through_call(self):
        info = single_loop(REDUCTION_THROUGH_CALL)
        assert info.verdict.verdict is Verdict.SAFE_WITH_REDUCTION
        assert "acc" in info.verdict.reduction_vars

    def test_recursive_callee_with_effects_bails_out(self):
        info = single_loop(RECURSIVE_WITH_EFFECTS)
        assert info.verdict.verdict is Verdict.UNSAFE
        descriptions = [w.description for w in info.verdict.witnesses]
        assert any("cannot be summarized" in d for d in descriptions)
        assert any("probe" in d for d in descriptions)

    def test_pure_recursive_callee_stays_safe(self):
        info = single_loop(PURE_RECURSIVE)
        assert info.verdict.verdict is Verdict.SAFE_DOALL

    def test_aliased_array_params_not_doall(self):
        # shift(a, a, i) rebinds to a[i] = a[i+1]: a carried
        # anti-dependence the summary must not lose to the two
        # distinct parameter names.
        info = single_loop(ALIASED_ARRAY_PARAMS)
        assert info.verdict.verdict is not Verdict.SAFE_DOALL

    def test_carried_dependence_through_call_not_doall(self):
        info = single_loop(CARRIED_THROUGH_CALL)
        assert info.verdict.verdict is not Verdict.SAFE_DOALL


class TestUpgradeOverPurity:
    def test_purity_only_analysis_was_unsafe(self):
        """The before/after pair the whole feature exists for."""
        program = compile_source(DISJOINT_WRITES)
        function = program.module.function("main")
        # Before: no interprocedural facts, so the call stays opaque.
        before = analyze_function_dependences(
            function, program.module, summaries={}
        )
        assert before[0].verdict.verdict is Verdict.UNSAFE
        [witness] = before[0].verdict.witnesses
        assert witness.kind == "impure-call"
        assert witness.description == (
            "call to 'blur' cannot be summarized (no summary)"
        )
        after = analyze_function_dependences(function, program.module)
        assert after[0].verdict.verdict is Verdict.SAFE_DOALL


class TestWitnessChainsThroughCalls:
    def test_chain_names_call_site_and_callee_effect(self):
        info = single_loop(CARRIED_THROUGH_CALL)
        chains = [
            hop
            for witness in info.verdict.witnesses
            for hop, _span in witness.chain
        ]
        assert any("call to 'smear'" in hop for hop in chains), chains
        assert any("'smear'" in hop and "@a" in hop for hop in chains), chains

    def test_chain_spans_point_into_source(self):
        info = single_loop(CARRIED_THROUGH_CALL)
        spans = [
            span
            for witness in info.verdict.witnesses
            for _hop, span in witness.chain
        ]
        assert spans and all(span is not None for span in spans)
