//! The metric registry: every name the benchmark emits, with its unit and
//! direction, plus the result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root lists the same names; a test
//! keeps the two in step. What each metric is, its layer, and which
//! end-to-end metric it should move on which workload is tabulated in
//! `perfbench/README.md`.

use std::fmt::Write as _;

/// Whether a larger or a smaller value is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    #[cfg(test)]
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One metric's identity.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// Read by the test that checks `BENCHMARK.json` against this registry.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("sim_ops_per_s", "ops/s", Higher),
    spec("peak_rss_mib", "MiB", Lower),
    spec("events_per_op", "polls/op", Lower),
    spec("allocs_per_op", "allocs/op", Lower),
];

/// Per-layer metrics, from the separate traced run. Names are
/// `<layer>.<what>`; the layer is the crate the call goes into.
/// `sim_us`/`sim_s` units are simulated time, every other time is host
/// time.
pub const PER_LAYER: &[Spec] = &[
    spec("fsmodel.build_s", "s", Lower),
    spec("trace.gen_ns_per_op", "ns/op", Lower),
    spec("types.encode_ns_per_op", "ns/op", Lower),
    spec("types.feed_ns_per_op", "ns/op", Lower),
    spec("types.feed_records_per_op", "records/op", Lower),
    spec("types.feed_useful_frac", "fraction", Higher),
    spec("des.host_ns_per_event", "ns/poll", Lower),
    spec("cache.ram_hit_rate", "fraction", Higher),
    spec("cache.flash_hit_rate", "fraction", Higher),
    spec("cache.lookups_per_op", "lookups/op", Lower),
    spec("cache.evictions_per_op", "evictions/op", Lower),
    spec("cache.replay_ns_per_access", "ns/access", Lower),
    spec("devsvc.ops_per_op", "devops/op", Lower),
    spec("devsvc.queue_depth_mean", "commands", Lower),
    spec("devsvc.queue_wait_frac", "fraction", Lower),
    spec("devsvc.read_service_us", "sim_us", Lower),
    spec("devsvc.replay_ns_per_op", "ns/devop", Lower),
    spec("net.packets_per_op", "packets/op", Lower),
    spec("net.queue_wait_frac", "fraction", Lower),
    spec("net.queue_wait_us_per_packet", "sim_us/packet", Lower),
    spec("filer.reads_per_op", "blocks/op", Lower),
    spec("filer.writes_per_op", "blocks/op", Lower),
    spec("filer.slow_read_frac", "fraction", Lower),
    spec("remote.failovers_per_op", "failovers/op", Lower),
    spec("remote.hedge_win_frac", "fraction", Higher),
    spec("remote.re_replicated_blocks", "blocks", Lower),
    spec("robust.retries_per_op", "retries/op", Lower),
    spec("robust.failed_ops", "ops", Lower),
    spec("core.run_s", "s", Lower),
    spec("core.invalidation_frac", "fraction", Lower),
    spec("results.encode_ns_per_row", "ns/row", Lower),
    spec("results.decode_ns_per_row", "ns/row", Lower),
    spec("results.row_bytes", "B/row", Lower),
    spec("fleet.run_worker_s", "s", Lower),
    spec("fleet.merge_s", "s", Lower),
    spec("telemetry.share.cache_probe", "fraction", Lower),
    spec("telemetry.share.flash_queue", "fraction", Lower),
    spec("telemetry.share.device_service", "fraction", Lower),
    spec("telemetry.share.net", "fraction", Lower),
    spec("telemetry.share.filer", "fraction", Lower),
    spec("telemetry.share.failover", "fraction", Lower),
    spec("telemetry.share.retry_backoff", "fraction", Lower),
    spec("telemetry.share.degraded_park", "fraction", Lower),
    spec("telemetry.overhead_frac", "fraction", Lower),
    spec("model.read_us_per_block", "sim_us/block", Lower),
    spec("model.write_us_per_block", "sim_us/block", Lower),
    spec("model.read_p99_us", "sim_us", Lower),
    spec("model.sim_time_s", "sim_s", Lower),
    spec("bench.failed_job_frac", "fraction", Lower),
];

/// True when `name` is a legal metric or workload name: it starts with a
/// letter or digit and is at most 64 of `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Metric values in emission order.
#[derive(Debug, Default)]
pub struct Values(pub Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The benchmark's last stdout line: one JSON object with the outcome and
/// every metric of `registry`, in registry order. A metric the run did not
/// produce is a bug; it is reported as `null` and fails the run.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: &[Spec],
    values: &Values,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, s) in registry.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = match values.get(s.name) {
            Some(v) if v.is_finite() => format!("{v:?}"),
            _ => "null".to_string(),
        };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            s.name, s.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_and_unit_is_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(s.name), "bad name {}", s.name);
            assert!(seen.insert(s.name), "duplicate name {}", s.name);
            assert!(
                !s.unit.is_empty()
                    && s.unit.len() <= 16
                    && s.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {} for {}",
                s.unit,
                s.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
        for bad in ["", "-x", "a b", "x!", &"y".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?} accepted");
        }
    }

    #[test]
    fn result_line_parses_and_nulls_missing_metrics() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        let line = result_line(true, 3, 0, &END_TO_END[..2], &v);
        let json = fcache_types::Json::parse(&line).expect("valid JSON");
        let m = json.get("metrics").expect("metrics");
        assert_eq!(
            m.get("setup_s")
                .and_then(|x| x.get("value"))
                .and_then(|x| x.as_f64()),
            Some(0.5)
        );
        assert!(line.contains("\"sim_ops_per_s\": {\"value\": null"));
    }
}
