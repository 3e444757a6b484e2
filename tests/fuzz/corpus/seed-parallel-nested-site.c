// Hand-seeded for the serial-vs-parallel differential lane: an inner
// DOALL loop under a call-free outer loop that prints. The plain
// emitter caches global scalars in locals across loops that make no
// user call, so a chunk bound handed over in a global cell would reach
// the inner loop stale; bounds must travel by value (fork's return and
// the chunk's parameters) for the master to run its own iterations.
int N = 6;
int grid[6][6];

int main() {
  int i;
  int j;
  for (i = 0; i < N; i = i + 1) {
    for (j = 0; j < N; j = j + 1) {
      grid[i][j] = i * 7 + j;
    }
    print(grid[i][1]);
  }
  return grid[0][1] + grid[5][4];
}
