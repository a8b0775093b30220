#[derive(Default)]
pub struct SearchCounters {
    /// Read by the counters test, but nothing in core/service ever maintains it:
    /// every report will show zero.
    pub expanded_vertices: u64,
}
