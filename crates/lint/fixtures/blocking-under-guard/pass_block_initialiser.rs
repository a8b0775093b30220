// Regression: a guard taken inside a block initialiser dies with the inner
// block, not with the outer binding — the fsync below runs lock-free. This is
// exactly the shape of `PathService::try_update`.
fn try_update(cell: &EpochCell, group: &Group, store: &Store) -> Summary {
    let summary = {
        let publisher = cell.publisher.lock().unwrap();
        publisher.publish()
    };
    group.sync_through(summary.id(), store);
    summary
}
