// hand-seeded: a function nested deeper than the structurer's loop
// limit, so it takes the dispatch-loop fallback, where no shadow
// resolution is carried from one block to the next: t is resolved
// in a block that later body instances skip
int deep(int n) {
  int s = n;
  int t = 0;
  for (int i0 = 0; i0 < 1; i0++) {
    for (int i1 = 0; i1 < 1; i1++) {
      for (int i2 = 0; i2 < 1; i2++) {
        for (int i3 = 0; i3 < 1; i3++) {
          for (int i4 = 0; i4 < 1; i4++) {
            for (int i5 = 0; i5 < 1; i5++) {
              for (int i6 = 0; i6 < 1; i6++) {
                for (int i7 = 0; i7 < 1; i7++) {
                  for (int i8 = 0; i8 < 1; i8++) {
                    for (int i9 = 0; i9 < 1; i9++) {
                      for (int i10 = 0; i10 < 1; i10++) {
                        for (int i11 = 0; i11 < 1; i11++) {
                          for (int i12 = 0; i12 < 1; i12++) {
                            for (int i13 = 0; i13 < 1; i13++) {
                              for (int i14 = 0; i14 < 1; i14++) {
                                for (int i15 = 0; i15 < 1; i15++) {
                                  for (int i16 = 0; i16 < 1; i16++) {
                                    for (int j = 0; j < 4; j++) {
                                      if (j == 0) {
                                        t = s + n;
                                      }
                                      if (j % 2 == 0) {
                                        s = s * 3 + t;
                                      }
                                      s = (s + t + j * n) % 1009;
                                    }
                                  }
                                }
                              }
                            }
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return s;
}

int main() {
  int r = 0;
  for (int m = 1; m < 4; m++) {
    r = (r + deep(m)) % 997;
  }
  return r;
}
