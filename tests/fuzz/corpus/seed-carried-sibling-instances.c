// hand-seeded: shadow resolutions the fused emitter carries between
// segments. A register written in some loop-body region instances is read
// in later sibling instances and in a sibling loop, and one resolved
// inside a body instance is read again after a break has exited that
// instance and the loop: each read must resolve against the regions open
// then (an exited instance's level reads as time 0), never reuse a
// resolution made inside an instance that has since exited.
int bump(int x) {
  return x + 1;
}

int find(int n) {
  int x = 0;
  int s = 0;
  for (int i = 0; i < n; i++) {
    x = i * 3 + s;
    s = bump(s);
    if (x > 10) {
      s = s + x;
      break;
    }
  }
  return s + x;
}

int main() {
  int v = 3;
  int s = 0;
  for (int i = 0; i < 6; i++) {
    if (i % 3 == 0) {
      v = s * 2 + i;
    }
    s = s + v * v;
    s = bump(s) % 1009;
    s = s + v;
  }
  int w = v + s;
  int t = find(9);
  for (int j = 0; j < 4; j++) {
    t = t + v * j + w;
  }
  return (s + t) % 997;
}
