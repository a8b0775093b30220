// The counter is maintained — but nothing in the counters test ever reads it.
fn tally(c: &mut SearchCounters) {
    c.expanded_vertices += 1;
}
