//! RAM (buffer cache) timing model.

use fcache_des::SimTime;

/// Per-block RAM access times.
///
/// The paper "chose a per-block RAM access time of 400 ns, corresponding to
/// roughly 10 GB/sec memory bandwidth" (§7); reads and writes cost the
/// same (Table 1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RamModel {
    /// Latency to read one 4 KB block.
    pub read: SimTime,
    /// Latency to write one 4 KB block.
    pub write: SimTime,
}

impl Default for RamModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

impl RamModel {
    /// Table 1 values.
    pub const fn paper_default() -> Self {
        Self {
            read: SimTime::from_nanos(400),
            write: SimTime::from_nanos(400),
        }
    }

    /// A RAM model with both latencies set to `t` (used by Figure 3's
    /// "pretend the flash has RAM latency" configurations).
    pub fn uniform(t: SimTime) -> Self {
        Self { read: t, write: t }
    }

    /// Implied bandwidth in GB/s for one 4 KB block per `read`.
    pub fn implied_read_bandwidth_gbps(&self) -> f64 {
        let ns = self.read.as_nanos().max(1) as f64;
        4096.0 / ns // bytes per ns == GB/s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let m = RamModel::default();
        assert_eq!(m.read, SimTime::from_nanos(400));
        assert_eq!(m.write, SimTime::from_nanos(400));
    }

    #[test]
    fn default_implies_roughly_10gbps() {
        let bw = RamModel::default().implied_read_bandwidth_gbps();
        assert!((bw - 10.24).abs() < 0.1, "got {bw}");
    }

    #[test]
    fn uniform_sets_both() {
        let m = RamModel::uniform(SimTime::from_nanos(100));
        assert_eq!(m.read, m.write);
        assert_eq!(m.read, SimTime::from_nanos(100));
    }
}
