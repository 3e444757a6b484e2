// hand-seeded: a global scalar stored only inside a callee (its shadow
// entry changes across the call) next to one that no function stores
// (the fused emitter reads no shadow entry for it at all)
int G;
int K = 7;

void set_g(int v) {
  G = v;
}

int main() {
  int s = 0;
  for (int i = 0; i < 6; i++) {
    s = s + K * i + G;
    set_g(s % 13);
    s = s + G * K;
  }
  return s % 997;
}
