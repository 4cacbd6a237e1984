//! Sharded remote tier: hash-range routing, replication bookkeeping, and
//! per-shard backend stores.
//!
//! The paper's client cache fronts a single filer; a production storage
//! client fronts a *fleet* of them. This crate models that fleet:
//!
//! - a [`Router`] shards block identity by hash range across K backend
//!   shards and assigns each block an R-long replica ring
//!   (`primary, primary+1, …` mod K);
//! - a [`ShardedStore`] holds one [`Filer`] per shard (each with its own
//!   content-hash seed, so two shards disagree about which blocks read
//!   fast, and its own resolved [`FaultSchedule`]), and keeps the
//!   replication bookkeeping the engine's read/write paths drive:
//!   hedged-read counters, failover counts, and the under-replicated set
//!   a recovery pass re-replicates when a failed shard returns.
//!
//! The store is the simulator's only backend: the paper's single filer is
//! the 1×1 topology, whose shard 0 runs on the base filer seed.
//!
//! Replication semantics are **read-any / write-all**: a read is served by
//! whichever replica answers (optionally hedged after a configurable
//! delay), a write acknowledges only once every *live* replica has
//! accepted it, and a replica down at write time while another replica is
//! live is recorded here as under-replicated so recovery can restore the
//! replication factor. (With no live replica the write waits instead.)
//! Everything is deterministic: routing is a pure hash, and all schedule
//! consultations happen at caller-supplied simulated times.

use std::cell::{Cell, RefCell};
use std::collections::HashSet;

use fcache_filer::{Filer, FilerConfig, FilerStats};
use fcache_net::NetConfig;
use fcache_types::{mix64, BlockAddr, FaultSchedule};

/// Hash-range placement: which shards hold a block.
///
/// The primary shard is the block's hash scaled into `[0, shards)` (a
/// fixed-point multiply — no modulo bias), and the replica ring is the
/// primary plus the next `replicas − 1` shards in index order. Placement
/// is pure data: two routers with the same topology agree everywhere.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Router {
    shards: u16,
    replicas: u16,
}

impl Router {
    /// A topology of `shards` backends holding `replicas` copies of every
    /// block.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ replicas ≤ shards`.
    pub fn new(shards: u16, replicas: u16) -> Self {
        assert!(shards >= 1, "topology needs at least one shard");
        assert!(
            (1..=shards).contains(&replicas),
            "replicas ({replicas}) must be in 1..={shards} (the shard count)"
        );
        Self { shards, replicas }
    }

    /// Number of backend shards.
    pub fn shards(&self) -> u16 {
        self.shards
    }

    /// Replication factor.
    pub fn replicas(&self) -> u16 {
        self.replicas
    }

    /// The shard owning a block's primary copy.
    pub fn primary(&self, addr: BlockAddr) -> u16 {
        ((u128::from(mix64(addr.to_u64())) * u128::from(self.shards)) >> 64) as u16
    }

    /// The block's replica ring, primary first.
    pub fn replica_set(&self, addr: BlockAddr) -> ReplicaSet {
        self.ring(self.primary(addr))
    }

    /// The replica ring of every block whose primary is `primary`.
    pub fn ring(&self, primary: u16) -> ReplicaSet {
        ReplicaSet {
            start: primary,
            shards: self.shards,
            len: self.replicas,
            next: 0,
        }
    }
}

/// Iterator over a block's replica shards, primary first (see
/// [`Router::replica_set`]).
#[derive(Clone, Copy, Debug)]
pub struct ReplicaSet {
    start: u16,
    shards: u16,
    len: u16,
    next: u16,
}

impl Iterator for ReplicaSet {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        if self.next >= self.len {
            return None;
        }
        let shard = (self.start + self.next) % self.shards;
        self.next += 1;
        Some(shard)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::from(self.len - self.next);
        (n, Some(n))
    }
}

impl ExactSizeIterator for ReplicaSet {}

/// Per-shard filer configuration: the base timing with a shard-specific
/// content-hash seed, so each shard has its own fast/slow luck (two
/// replicas of one block can disagree — reading from a failover replica
/// really does change the draw, like a different server's cache would).
/// Shard 0 keeps the base seed, so a one-shard store is the plain filer;
/// the caller has already mixed its run seed into `base.seed`.
pub fn shard_filer_config(base: FilerConfig, shard: u16) -> FilerConfig {
    let seed = match shard {
        0 => base.seed,
        k => mix64(base.seed ^ (u64::from(k) << 16) ^ 0x51a2_fa17_0000_0011),
    };
    FilerConfig { seed, ..base }
}

/// Per-shard wire configuration: shard `k`'s per-packet base latency is
/// `(1 + k/16)×` the configured base — a small deterministic skew standing
/// in for per-shard latency distributions (farther rack, busier switch).
/// Shard 0 keeps the exact base timing.
pub fn shard_net_config(base: NetConfig, shard: u16) -> NetConfig {
    NetConfig {
        base_latency: base.base_latency.scale(1.0 + f64::from(shard) / 16.0),
        ..base
    }
}

/// Replication-layer counters (everything above single-shard service).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RemoteStats {
    /// Hedge requests actually launched (primary outlived the hedge delay
    /// with a live second replica available).
    pub hedges_launched: u64,
    /// Hedges that finished first and supplied the result.
    pub hedges_won: u64,
    /// Hedges whose result arrived after the primary had already won.
    pub hedges_cancelled: u64,
    /// Reads served by a non-primary replica because the primary was down
    /// or kept failing.
    pub failovers: u64,
    /// Blocks copied back onto a recovered shard.
    pub re_replicated_blocks: u64,
    /// Bytes of re-replication traffic.
    pub re_replication_bytes: u64,
    /// Number of distinct intervals during which some block was
    /// under-replicated.
    pub under_intervals: u64,
    /// Peak number of simultaneously under-replicated (block, shard)
    /// copies.
    pub under_peak: u64,
    /// Under-replicated copies right now (0 after recovery caught up —
    /// the "no acknowledged write stays single-copy" check).
    pub under_now: u64,
    /// Total simulated time some block was under-replicated.
    pub under_time_ns: u64,
}

#[derive(Default)]
struct Counters {
    hedges_launched: Cell<u64>,
    hedges_won: Cell<u64>,
    hedges_cancelled: Cell<u64>,
    failovers: Cell<u64>,
    re_replicated_blocks: Cell<u64>,
    re_replication_bytes: Cell<u64>,
    under_intervals: Cell<u64>,
    under_peak: Cell<u64>,
    under_time_ns: Cell<u64>,
}

/// The concrete sharded backend: K filers behind a [`Router`].
///
/// Single-threaded like the rest of the simulator; shared via `Rc`.
pub struct ShardedStore {
    router: Router,
    filers: Vec<Filer>,
    counters: Counters,
    /// Per shard: block addresses whose copy on that shard is missing
    /// (the shard was down when the write acknowledged).
    under: RefCell<Vec<HashSet<u64>>>,
    under_total: Cell<u64>,
    /// When the currently-open under-replicated interval began.
    open_since: Cell<Option<u64>>,
}

impl ShardedStore {
    /// Builds the store from per-shard service models, one per shard, each
    /// carrying its shard's fault schedule.
    ///
    /// # Panics
    ///
    /// Panics if the filer count disagrees with the router's topology.
    pub fn new(router: Router, filers: Vec<Filer>) -> Self {
        assert_eq!(filers.len(), usize::from(router.shards()));
        let under = RefCell::new(vec![HashSet::new(); filers.len()]);
        Self {
            router,
            filers,
            counters: Counters::default(),
            under,
            under_total: Cell::new(0),
            open_since: Cell::new(None),
        }
    }

    /// The placement topology.
    pub fn router(&self) -> Router {
        self.router
    }

    /// Shard `k`'s service model.
    pub fn filer(&self, shard: u16) -> &Filer {
        &self.filers[usize::from(shard)]
    }

    /// Shard `k`'s resolved fault schedule, read from its filer (empty
    /// when the run injects nothing there).
    pub fn faults(&self, shard: u16) -> &FaultSchedule {
        self.filer(shard).faults()
    }

    /// Shard `k`'s service counters.
    pub fn shard_stats(&self, shard: u16) -> FilerStats {
        self.filers[usize::from(shard)].stats()
    }

    /// Replication-layer counters; an under-replicated interval still open
    /// at `now_ns` is counted up to `now_ns`.
    pub fn stats(&self, now_ns: u64) -> RemoteStats {
        let c = &self.counters;
        let mut under_time_ns = c.under_time_ns.get();
        if let Some(since) = self.open_since.get() {
            under_time_ns += now_ns.saturating_sub(since);
        }
        RemoteStats {
            hedges_launched: c.hedges_launched.get(),
            hedges_won: c.hedges_won.get(),
            hedges_cancelled: c.hedges_cancelled.get(),
            failovers: c.failovers.get(),
            re_replicated_blocks: c.re_replicated_blocks.get(),
            re_replication_bytes: c.re_replication_bytes.get(),
            under_intervals: c.under_intervals.get(),
            under_peak: c.under_peak.get(),
            under_now: self.under_total.get(),
            under_time_ns,
        }
    }

    /// Whether shard `k` is up (no open outage) at `now_ns`.
    pub fn live_at(&self, shard: u16, now_ns: u64) -> bool {
        self.outage_until(shard, now_ns).is_none()
    }

    /// If shard `k` is in an outage at `now_ns`, when it clears.
    pub fn outage_until(&self, shard: u16, now_ns: u64) -> Option<u64> {
        self.faults(shard).outage_until(now_ns)
    }

    /// The shards of `ring` that are up at `now_ns`, in ring order.
    pub fn live_in(&self, ring: ReplicaSet, now_ns: u64) -> impl Iterator<Item = u16> + '_ {
        ring.filter(move |&s| self.live_at(s, now_ns))
    }

    /// If every shard of `ring` is in an outage at `now_ns`, when the
    /// first of them clears; `None` while any is up.
    pub fn ring_outage_until(&self, ring: ReplicaSet, now_ns: u64) -> Option<u64> {
        // `None` (up) orders below every `Some`, so one live shard makes
        // the minimum `None`.
        ring.map(|s| self.outage_until(s, now_ns)).min()?
    }

    /// Records that `addr`'s copy on `shard` was skipped by a write-all
    /// because the shard was down: the block is now under-replicated until
    /// recovery copies it back.
    pub fn mark_under_replicated(&self, shard: u16, addr: BlockAddr, now_ns: u64) {
        if !self.under.borrow_mut()[usize::from(shard)].insert(addr.to_u64()) {
            return;
        }
        let total = self.under_total.get() + 1;
        self.under_total.set(total);
        if self.open_since.get().is_none() {
            self.open_since.set(Some(now_ns));
            self.counters
                .under_intervals
                .set(self.counters.under_intervals.get() + 1);
        }
        if total > self.counters.under_peak.get() {
            self.counters.under_peak.set(total);
        }
    }

    /// Drains shard `k`'s under-replicated set for a recovery pass,
    /// sorted (deterministic re-replication order).
    pub fn take_under_replicated(&self, shard: u16) -> Vec<BlockAddr> {
        let mut addrs: Vec<u64> = self.under.borrow_mut()[usize::from(shard)]
            .drain()
            .collect();
        addrs.sort_unstable();
        addrs.into_iter().map(BlockAddr::from_u64).collect()
    }

    /// Puts a drained copy back into shard `k`'s under-replicated set
    /// without touching the counters (the copy is still counted from its
    /// original [`ShardedStore::mark_under_replicated`]): a recovery pass
    /// found no live source and defers the copy to the next pass.
    pub fn requeue_under_replicated(&self, shard: u16, addr: BlockAddr) {
        self.under.borrow_mut()[usize::from(shard)].insert(addr.to_u64());
    }

    /// Records one re-replicated block of `bytes` payload; closes the
    /// open under-replicated interval when the last copy is restored.
    pub fn note_re_replicated(&self, bytes: u64, now_ns: u64) {
        self.counters
            .re_replicated_blocks
            .set(self.counters.re_replicated_blocks.get() + 1);
        self.counters
            .re_replication_bytes
            .set(self.counters.re_replication_bytes.get() + bytes);
        let total = self.under_total.get() - 1;
        self.under_total.set(total);
        if total == 0 {
            if let Some(since) = self.open_since.take() {
                self.counters
                    .under_time_ns
                    .set(self.counters.under_time_ns.get() + now_ns.saturating_sub(since));
            }
        }
    }

    /// Counts a hedge launch.
    pub fn note_hedge_launched(&self) {
        self.counters
            .hedges_launched
            .set(self.counters.hedges_launched.get() + 1);
    }

    /// Counts a hedge that supplied the result first.
    pub fn note_hedge_won(&self) {
        self.counters
            .hedges_won
            .set(self.counters.hedges_won.get() + 1);
    }

    /// Counts a hedge whose result arrived too late to matter.
    pub fn note_hedge_cancelled(&self) {
        self.counters
            .hedges_cancelled
            .set(self.counters.hedges_cancelled.get() + 1);
    }

    /// Counts a read served by a non-primary replica.
    pub fn note_failover(&self) {
        self.counters
            .failovers
            .set(self.counters.failovers.get() + 1);
    }

    /// Resets per-shard service counters (end of warmup). Replication
    /// bookkeeping (under-replicated set, hedge/failover counters) is
    /// deliberately kept: like the robustness counters, it spans the
    /// warmup boundary.
    pub fn reset_service_stats(&self) {
        for f in &self.filers {
            f.reset_stats();
        }
    }
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("router", &self.router)
            .field("under_now", &self.under_total.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcache_des::Sim;
    use fcache_types::{FaultPlan, FileId};

    fn addr(i: u32) -> BlockAddr {
        BlockAddr::new(FileId(i >> 10), i & 0x3ff)
    }

    #[test]
    fn primary_placement_is_balanced_and_deterministic() {
        let router = Router::new(4, 2);
        let mut counts = [0u32; 4];
        for i in 0..40_000u32 {
            let p = router.primary(addr(i));
            assert_eq!(p, router.primary(addr(i)));
            counts[usize::from(p)] += 1;
        }
        for (k, &n) in counts.iter().enumerate() {
            assert!(
                (8_000..12_000).contains(&n),
                "shard {k} got {n} of 40000 blocks"
            );
        }
    }

    #[test]
    fn replica_sets_ring_from_the_primary() {
        let router = Router::new(4, 3);
        for i in 0..1_000u32 {
            let a = addr(i);
            let set: Vec<u16> = router.replica_set(a).collect();
            assert_eq!(set.len(), 3);
            assert_eq!(set[0], router.primary(a));
            assert_eq!(set[1], (set[0] + 1) % 4);
            assert_eq!(set[2], (set[0] + 2) % 4);
        }
        let single: Vec<u16> = Router::new(1, 1).replica_set(addr(7)).collect();
        assert_eq!(single, [0]);
    }

    #[test]
    #[should_panic(expected = "must be in 1..=2")]
    fn more_replicas_than_shards_panics() {
        let _ = Router::new(2, 3);
    }

    #[test]
    fn shard_configs_skew_deterministically() {
        let base = FilerConfig::default();
        let a = shard_filer_config(base, 0);
        let b = shard_filer_config(base, 1);
        assert_eq!(a, base, "shard 0 is the base filer");
        assert_ne!(a.seed, b.seed);
        assert_eq!(b.seed, shard_filer_config(base, 1).seed);
        assert_eq!(b.fast_read, base.fast_read);
        let reseeded = FilerConfig {
            seed: base.seed ^ 1,
            ..base
        };
        assert_ne!(shard_filer_config(reseeded, 1).seed, b.seed);

        let net = NetConfig::default();
        assert_eq!(shard_net_config(net, 0), net);
        assert!(shard_net_config(net, 3).base_latency > net.base_latency);
    }

    /// A 2×2 store whose shards run the resolved `spec`.
    fn store_with(spec: &str) -> ShardedStore {
        let sim = Sim::new();
        let set = FaultPlan::parse(spec)
            .unwrap()
            .resolve_sharded(1, 1, 2)
            .unwrap();
        let filers = set
            .shards
            .into_iter()
            .zip(0..)
            .map(|(sched, k)| {
                Filer::new(sim.clone(), shard_filer_config(FilerConfig::default(), k))
                    .with_faults(sched, 1)
            })
            .collect();
        ShardedStore::new(Router::new(2, 2), filers)
    }

    fn store_with_outage() -> ShardedStore {
        store_with("shard1:outage@10s-20s")
    }

    #[test]
    fn liveness_follows_the_shard_schedule() {
        let store = store_with_outage();
        assert!(store.live_at(0, 15_000_000_000));
        assert!(!store.live_at(1, 15_000_000_000));
        assert_eq!(store.outage_until(1, 15_000_000_000), Some(20_000_000_000));
        assert!(store.live_at(1, 25_000_000_000));
    }

    #[test]
    fn ring_liveness_lists_live_replicas_and_the_first_recovery() {
        let store = store_with("shard0:outage@10s-30s;shard1:outage@15s-20s");
        let ring = store.router().ring(1);
        let s = 1_000_000_000u64;
        assert_eq!(store.live_in(ring, 12 * s).collect::<Vec<_>>(), [1]);
        assert_eq!(store.ring_outage_until(ring, 12 * s), None);
        assert_eq!(store.live_in(ring, 17 * s).count(), 0);
        assert_eq!(
            store.ring_outage_until(ring, 17 * s),
            Some(20 * s),
            "the first replica back ends the wait"
        );
        assert_eq!(store.live_in(ring, 40 * s).collect::<Vec<_>>(), [1, 0]);
    }

    #[test]
    fn under_replication_accounting_opens_peaks_and_closes() {
        let store = store_with_outage();
        store.mark_under_replicated(1, addr(1), 100);
        store.mark_under_replicated(1, addr(2), 200);
        // Re-marking the same copy is idempotent.
        store.mark_under_replicated(1, addr(2), 250);
        let s = store.stats(300);
        assert_eq!(s.under_intervals, 1);
        assert_eq!(s.under_peak, 2);
        assert_eq!(s.under_now, 2);
        assert_eq!(s.under_time_ns, 200, "open interval counted to now");

        let drained = store.take_under_replicated(1);
        assert_eq!(drained, vec![addr(1), addr(2)]);
        store.note_re_replicated(4096, 500);
        store.note_re_replicated(4096, 600);
        let s = store.stats(1_000);
        assert_eq!(s.under_now, 0);
        assert_eq!(s.re_replicated_blocks, 2);
        assert_eq!(s.re_replication_bytes, 8192);
        assert_eq!(s.under_time_ns, 500, "interval closed at the last copy");
        // A fresh degradation opens a second interval.
        store.mark_under_replicated(0, addr(3), 2_000);
        assert_eq!(store.stats(2_100).under_intervals, 2);
    }
}
