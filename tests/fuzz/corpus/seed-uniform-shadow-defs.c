// hand-seeded: registers the fused emitter may treat as holding uniform
// shadow times (every definition an input-free event) next to ones that
// must not be: a constant assigned under a live control entry, a loop
// started from another register after the loop's region is entered, a
// value loaded from memory, and one defined by a constant and by a call
int a[8];

int seven(int v) {
  return v % 7;
}

int main() {
  int s = 0;
  int t = 5;
  for (int k = 0; k < 8; k++) {
    a[k] = k * 3;
  }
  for (int i = t; i < 9; i++) {
    int c = 1;
    if (a[i % 8] > 6) {
      c = 4;
    }
    int w = a[(i + 1) % 8];
    int m = 2;
    if (i % 3 == 0) {
      m = seven(s);
    }
    s = s + c * i + w + m;
  }
  return s % 997;
}
