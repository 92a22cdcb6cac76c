struct Snapshot {};
struct SnapshotWorkspace {};
struct Model {
  const Snapshot& BuildSnapshot(double t, SnapshotWorkspace* ws) const;
};
void HopDump(const Model& model) {
  SnapshotWorkspace ws;
  const Snapshot& snap = model.BuildSnapshot(0.0, &ws);
  (void)snap;
}
