// Lexed as-if at crates/service/src/fixture.rs: the admission guard is still
// live while the thread parks on a result handle, so the worker that would
// fulfil it can never be admitted behind this lock.
fn admit_and_wait(cell: &EpochCell, handle: SpecHandle) -> SpecResult {
    let publisher = cell.publisher.lock().unwrap();
    let result = handle.wait_result().unwrap();
    publisher.note(&result);
    result
}
