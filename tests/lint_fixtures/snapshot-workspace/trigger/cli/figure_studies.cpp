struct Snapshot {};
struct Model {
  Snapshot BuildSnapshot(double t) const;
};
void HopDump(const Model& model) {
  const Snapshot snap = model.BuildSnapshot(0.0);
  (void)snap;
}
