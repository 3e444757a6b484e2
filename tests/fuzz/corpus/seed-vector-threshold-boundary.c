// hand-seeded: wide straight-line segments — blocks whose segment
// flush folds 7, 8 and 10+ merged shadow events into the region
// stack, so the fused emitter's widest region folds execute and the
// tree and compiled profiles must agree byte-for-byte across narrow,
// medium and wide segments in one program; the loop-carried
// accumulator keeps the folded timestamps distinct across iterations
int a[16];
int main() {
  // 7 dependent temps: a narrow segment
  int u0 = 2; int u1 = u0 + 3; int u2 = u1 * u0; int u3 = u2 - u1;
  int u4 = u3 + u2; int u5 = u4 - u0; int u6 = u5 + u3;
  // 8 temps crossing uses: a medium segment
  int t0 = u6 + 1; int t1 = t0 * 2; int t2 = t1 - t0; int t3 = t2 + u5;
  int t4 = t3 * t1; int t5 = t4 - t2; int t6 = t5 + t3; int t7 = t6 - u4;
  // a wide block, then a carried reduction
  int s = t7 + u6;
  for (int i = 0; i < 16; i++) {
    int w0 = s + i;   int w1 = w0 * 2; int w2 = w1 - s;  int w3 = w2 + w0;
    int w4 = w3 - w1; int w5 = w4 + i; int w6 = w5 * w2; int w7 = w6 - w3;
    int w8 = w7 + w4; int w9 = w8 - w5;
    a[i] = w9 % 251;
    s = s + a[i];
  }
  return s % 9973;
}
