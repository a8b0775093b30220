// A parallel run reads the same index a sequential one does: running it while the
// deletion window is open prunes with under-estimated distances on every worker.
fn apply(index: &mut Index, engine: &mut Engine, deleted: &[u32], sink: &mut Sink) {
    index.note_deletions(deleted);
    engine.run_parallel_with_sink(&[], Parallelism::Fixed(2), sink);
}
