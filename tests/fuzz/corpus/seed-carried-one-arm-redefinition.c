// hand-seeded: a register resolved before a loop and redefined on one arm
// of an if inside it — the join must not keep the resolution made before
// the branch, and the loop header must not keep the one made before the
// loop once an iteration may have redefined the register (x's chain is
// the loop's critical path, so a stale resolution shortens it)
int twice(int v) {
  return v * 2;
}

int main() {
  int x = twice(1);
  int s = twice(x) + x;
  for (int i = 0; i < 8; i++) {
    int y = x * 3 + i;
    if (i % 2 == 0) {
      x = (y * 7 + y * y) % 101;
    } else {
      s = s + i;
    }
    s = s + y;
  }
  return (s + x) % 997;
}
