// hand-seeded: a loop-invariant parameter whose shadow resolution the
// fused emitter hoists to the loop entry, read in a loop whose body calls
// a function that opens and closes regions of its own (a balanced call
// keeps the resolution valid)
int inner(int n) {
  int a = 0;
  for (int k = 0; k < n; k++) {
    a = a + k * 2;
  }
  return a;
}

int kernel(int scale, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) {
    s = s + scale * i;
    s = s + inner(i % 4);
    s = s - scale;
  }
  return s;
}

int main() {
  int r = 0;
  for (int m = 1; m < 4; m++) {
    r = r + kernel(m * 5, 6);
  }
  return r % 1000;
}
