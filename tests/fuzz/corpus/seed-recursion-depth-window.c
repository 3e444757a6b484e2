// hand-seeded: recursion profiled under a depth window — untracked
// region instances take the cp := work path, which once diverged between
// the tree profiler and the fused fast paths
int depth(int n, int bias) {
  if (n <= 1) return bias;
  int local = (n * 3 + bias) % 97;
  for (int i = 0; i < 4; i++) {
    local = (local + i * n) % 97;
  }
  return (depth(n - 1, bias) + local) % 997;
}

int main() {
  int total = 0;
  for (int k = 0; k < 3; k++) {
    total = (total + depth(6, k)) % 997;
  }
  return total % 251;
}
