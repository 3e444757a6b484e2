"""Oracle tests: MiniC kernels vs reference Python implementations.

Each kernel is implemented twice — once in MiniC (run through the full
compile+interpret pipeline) and once directly in Python — and their outputs
are compared elementwise. This validates the end-to-end numeric semantics
(lowering, addressing, coercions, builtins) far more thoroughly than
spot-check return values.
"""

import math

import pytest

from repro.instrument import kremlin_cc
from repro.interp import Interpreter


def run_and_read(source: str, arrays: dict[str, int]):
    """Run a program and return {name: list} for the requested globals."""
    program = kremlin_cc(source, "oracle.c")
    interpreter = Interpreter(program)
    result = interpreter.run()
    out = {"__ret__": result.value}
    for name in arrays:
        out[name] = list(interpreter.state.arrays[name].data)
    return out


class TestStencilOracle:
    N = 20

    def test_jacobi_sweeps(self):
        source = f"""
        float u[{self.N}][{self.N}];
        float v[{self.N}][{self.N}];
        int main() {{
          for (int i = 0; i < {self.N}; i++)
            for (int j = 0; j < {self.N}; j++)
              u[i][j] = (float) ((i * 13 + j * 7) % 11);
          for (int sweep = 0; sweep < 3; sweep++) {{
            for (int i = 1; i < {self.N} - 1; i++)
              for (int j = 1; j < {self.N} - 1; j++)
                v[i][j] = 0.25 * (u[i-1][j] + u[i+1][j] + u[i][j-1] + u[i][j+1]);
            for (int i = 1; i < {self.N} - 1; i++)
              for (int j = 1; j < {self.N} - 1; j++)
                u[i][j] = v[i][j];
          }}
          return 0;
        }}
        """
        got = run_and_read(source, {"u": self.N * self.N})

        n = self.N
        u = [[float((i * 13 + j * 7) % 11) for j in range(n)] for i in range(n)]
        v = [[0.0] * n for _ in range(n)]
        for _ in range(3):
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    v[i][j] = 0.25 * (
                        u[i - 1][j] + u[i + 1][j] + u[i][j - 1] + u[i][j + 1]
                    )
            for i in range(1, n - 1):
                for j in range(1, n - 1):
                    u[i][j] = v[i][j]
        expected = [u[i][j] for i in range(n) for j in range(n)]
        assert got["u"] == pytest.approx(expected)


class TestSortOracle:
    def test_insertion_sort(self):
        values = [(i * 37 + 11) % 100 for i in range(40)]
        writes = "\n".join(
            f"  data[{i}] = {v};" for i, v in enumerate(values)
        )
        source = f"""
        int data[40];
        int main() {{
        {writes}
          for (int i = 1; i < 40; i++) {{
            int key = data[i];
            int j = i - 1;
            while (j >= 0 && data[j] > key) {{
              data[j + 1] = data[j];
              j--;
            }}
            data[j + 1] = key;
          }}
          return data[0];
        }}
        """
        got = run_and_read(source, {"data": 40})
        assert got["data"] == sorted(values)
        assert got["__ret__"] == min(values)


class TestHistogramOracle:
    def test_histogram_and_prefix(self):
        source = """
        int keys[200];
        int hist[16];
        int prefix[16];
        int main() {
          for (int i = 0; i < 200; i++) {
            keys[i] = (i * i + 3 * i) % 16;
            hist[keys[i]] += 1;
          }
          prefix[0] = hist[0];
          for (int b = 1; b < 16; b++) {
            prefix[b] = prefix[b - 1] + hist[b];
          }
          return prefix[15];
        }
        """
        got = run_and_read(source, {"hist": 16, "prefix": 16})
        keys = [(i * i + 3 * i) % 16 for i in range(200)]
        hist = [0] * 16
        for key in keys:
            hist[key] += 1
        prefix = []
        total = 0
        for count in hist:
            total += count
            prefix.append(total)
        assert got["hist"] == hist
        assert got["prefix"] == prefix
        assert got["__ret__"] == 200


class TestNumericsOracle:
    def test_newton_sqrt_matches_python(self):
        source = """
        float results[20];
        int main() {
          for (int k = 1; k <= 20; k++) {
            float target = (float) k * 3.5;
            float x = target;
            for (int it = 0; it < 12; it++) {
              x = 0.5 * (x + target / x);
            }
            results[k - 1] = x;
          }
          return 0;
        }
        """
        got = run_and_read(source, {"results": 20})
        for k in range(1, 21):
            target = k * 3.5
            x = target
            for _ in range(12):
                x = 0.5 * (x + target / x)
            assert got["results"][k - 1] == pytest.approx(x, rel=1e-12)
            assert got["results"][k - 1] == pytest.approx(math.sqrt(target), rel=1e-6)

    def test_horner_polynomial(self):
        coeffs = [3.0, -1.0, 0.5, 2.0, -0.25]
        coeff_writes = "\n".join(
            f"  c[{i}] = {v};" for i, v in enumerate(coeffs)
        )
        source = f"""
        float c[5];
        float out[16];
        int main() {{
        {coeff_writes}
          for (int i = 0; i < 16; i++) {{
            float x = (float) i * 0.25 - 2.0;
            float acc = c[0];
            for (int k = 1; k < 5; k++) {{
              acc = acc * x + c[k];
            }}
            out[i] = acc;
          }}
          return 0;
        }}
        """
        got = run_and_read(source, {"out": 16})
        for i in range(16):
            x = i * 0.25 - 2.0
            acc = coeffs[0]
            for k in range(1, 5):
                acc = acc * x + coeffs[k]
            assert got["out"][i] == pytest.approx(acc, rel=1e-12)


class TestGcdOracle:
    def test_euclid(self):
        source = """
        int out[25];
        int main() {
          int idx = 0;
          for (int a = 12; a < 17; a++) {
            for (int b = 8; b < 13; b++) {
              int x = a * 9;
              int y = b * 6;
              while (y != 0) {
                int t = y;
                y = x % y;
                x = t;
              }
              out[idx] = x;
              idx++;
            }
          }
          return 0;
        }
        """
        got = run_and_read(source, {"out": 25})
        expected = [
            math.gcd(a * 9, b * 6)
            for a in range(12, 17)
            for b in range(8, 13)
        ]
        assert got["out"] == expected
