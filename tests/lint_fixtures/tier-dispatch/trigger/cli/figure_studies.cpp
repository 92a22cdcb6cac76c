struct Path {};
Path ShortestPath(int src, int dst);
void HopDump(int a, int b) {
  const Path path = ShortestPath(a, b);
  (void)path;
}
