//! Deterministic fault-injection plans.
//!
//! The simulator models a healthy world by default; this module describes
//! the unhealthy one. A [`FaultPlan`] is a list of [`FaultClause`]s, each
//! naming a *target* (the filer, one network direction, or the local flash
//! device), a *window* of simulated time, and a *kind* of misbehavior:
//! a full outage, a latency inflation, or a transient-error rate.
//!
//! Plans are plain data. They parse from a compact spec string
//! (`filer:outage@40s-60s`), print back to the same canonical form via
//! [`FaultPlan::describe`], and round-trip exactly through the [`Json`]
//! codec so result rows carry the injected faults alongside the config.
//!
//! Nothing here consumes wall-clock time or global randomness:
//! stochastic *episode* windows are expanded by [`FaultPlan::resolve_sharded`]
//! from a caller-provided seed with a splitmix/mix64 stream, so two runs
//! with the same seed see bit-identical fault timelines.
//!
//! # Overlap semantics
//!
//! Multiple clauses on the same target are legal and **merge** by a fixed
//! precedence while their windows overlap: an open `outage` wins outright,
//! otherwise each open `err<p>` window gets one independent draw, otherwise
//! open `slowx<f>` factors multiply (see [`FaultSchedule::effect_at`]).
//! Because merging makes clause order irrelevant, an *exact* duplicate
//! clause (same target, kind, and window) can only be a spec typo — it
//! would silently double a slowdown or waste an error draw — so
//! [`FaultPlan::parse`] rejects it.

use std::fmt;
use std::sync::Arc;

use crate::fxhash::mix64;
use crate::json::Json;

/// Which component a clause degrades.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// The shared file server: read/write service. With a sharded remote
    /// tier this means *every* shard at once (the whole backend fleet).
    Filer,
    /// One direction of the host's network segment.
    Net(FaultDirection),
    /// The host's local flash device.
    Device,
    /// One backend shard of the remote tier (`shard<k>`), or every shard
    /// (`shard*`, `Shard(None)`). Only meaningful when the run configures
    /// a sharded remote tier; [`FaultPlan::resolve_sharded`] validates the
    /// index against the topology.
    Shard(Option<u16>),
}

/// Direction of network traffic a clause applies to.
///
/// Mirrors `fcache_net::Direction`; duplicated here so the vocabulary
/// crate stays dependency-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDirection {
    /// Client → filer.
    ToServer,
    /// Filer → client.
    FromServer,
}

/// What the fault does while its window is open.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// The target is completely unavailable.
    Outage,
    /// Service times are multiplied by this factor (> 0, finite).
    SlowBy(f64),
    /// Each operation independently fails with this probability (in
    /// `[0, 1]`), drawn from a seeded per-host stream.
    ErrorRate(f64),
}

/// When the fault is active, in *paper-scale* nanoseconds of simulated
/// time. [`FaultPlan::resolve_sharded`] divides by the run's time scale, so a
/// window written for the full-size workload lands proportionally in a
/// scaled-down one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultWindow {
    /// A fixed interval `[start_ns, end_ns)`.
    Interval {
        /// Window opens at this simulated time.
        start_ns: u64,
        /// Window closes at this simulated time (exclusive).
        end_ns: u64,
    },
    /// `count` seeded stochastic episodes: gaps and lengths are
    /// exponentially distributed around the given means, drawn from the
    /// resolve seed so the expansion is bit-reproducible.
    Episodes {
        /// Mean gap between episodes.
        mean_gap_ns: u64,
        /// Mean episode length.
        mean_len_ns: u64,
        /// Number of episodes.
        count: u32,
    },
}

/// One injected fault: a target, a kind, and a window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultClause {
    /// Component degraded.
    pub target: FaultTarget,
    /// Misbehavior while open.
    pub kind: FaultKind,
    /// When the clause is active.
    pub window: FaultWindow,
}

/// An ordered list of fault clauses; empty means a healthy run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// The clauses, in declaration order.
    pub clauses: Vec<FaultClause>,
}

/// A transient failure surfaced by an injection seam. Carries the
/// human-readable description of the originating clause so errors that
/// escalate (e.g. under a strict degraded policy) name their cause.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultError {
    /// `describe()`-form of the clause that fired, shared with the window
    /// that fired it.
    pub clause: Arc<str>,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transient fault ({})", self.clause)
    }
}

impl std::error::Error for FaultError {}

// ---------------------------------------------------------------------------
// Spec strings

fn fmt_time_ns(ns: u64) -> String {
    if ns == 0 {
        return "0s".to_string();
    }
    if ns.is_multiple_of(1_000_000_000) {
        format!("{}s", ns / 1_000_000_000)
    } else if ns.is_multiple_of(1_000_000) {
        format!("{}ms", ns / 1_000_000)
    } else if ns.is_multiple_of(1_000) {
        format!("{}us", ns / 1_000)
    } else {
        format!("{ns}ns")
    }
}

/// Parses a human duration (`"200us"`, `"1.5s"`, `"40ms"`, `"80ns"`) into
/// nanoseconds. The unit suffix is mandatory; values round to the nearest
/// nanosecond. Shared by fault-clause windows and the CLI's duration flags
/// (`--windows`).
pub fn parse_time_ns(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = s.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = s.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = s.strip_suffix('s') {
        (n, 1e9)
    } else {
        return Err(format!("time \"{s}\" needs a unit (ns/us/ms/s)"));
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("invalid time value \"{s}\""))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("time \"{s}\" must be finite and non-negative"));
    }
    Ok((v * mult).round() as u64)
}

impl FaultTarget {
    fn label(&self) -> String {
        match self {
            FaultTarget::Filer => "filer".to_string(),
            FaultTarget::Net(FaultDirection::ToServer) => "net-up".to_string(),
            FaultTarget::Net(FaultDirection::FromServer) => "net-down".to_string(),
            FaultTarget::Device => "device".to_string(),
            FaultTarget::Shard(None) => "shard*".to_string(),
            FaultTarget::Shard(Some(k)) => format!("shard{k}"),
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Outage => write!(f, "outage"),
            FaultKind::SlowBy(x) => write!(f, "slowx{x}"),
            FaultKind::ErrorRate(p) => write!(f, "err{p}"),
        }
    }
}

impl fmt::Display for FaultWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultWindow::Interval { start_ns, end_ns } => {
                write!(f, "{}-{}", fmt_time_ns(start_ns), fmt_time_ns(end_ns))
            }
            FaultWindow::Episodes {
                mean_gap_ns,
                mean_len_ns,
                count,
            } => write!(
                f,
                "~{count}x{}/{}",
                fmt_time_ns(mean_len_ns),
                fmt_time_ns(mean_gap_ns)
            ),
        }
    }
}

impl FaultClause {
    /// Canonical spec form, e.g. `filer:outage@40s-60s`.
    pub fn describe(&self) -> String {
        format!("{}:{}@{}", self.target.label(), self.kind, self.window)
    }
}

impl FaultPlan {
    /// A healthy plan (no clauses).
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Whether any clause names a remote-tier shard (`shard<k>`/`shard*`).
    /// Such plans need [`FaultPlan::resolve_sharded`] and a run configured
    /// with a sharded remote tier.
    pub fn has_shard_clauses(&self) -> bool {
        self.clauses
            .iter()
            .any(|c| matches!(c.target, FaultTarget::Shard(_)))
    }

    /// Appends a clause (builder style).
    pub fn with(mut self, target: FaultTarget, kind: FaultKind, window: FaultWindow) -> Self {
        self.clauses.push(FaultClause {
            target,
            kind,
            window,
        });
        self
    }

    /// Canonical spec string: clauses joined by `;`. `parse` of the
    /// result reproduces the plan (`net` sugar is expanded, so the
    /// round-trip is exact on the expanded form).
    pub fn describe(&self) -> String {
        self.clauses
            .iter()
            .map(FaultClause::describe)
            .collect::<Vec<_>>()
            .join(";")
    }

    /// Parses a spec string: clauses joined by `;`, each
    /// `target:kind@window`.
    ///
    /// - target — `filer`, `net` (both directions), `net-up`, `net-down`,
    ///   `device`, `shard<k>` (one remote shard), `shard*` (every shard)
    /// - kind — `outage`, `slowx<factor>`, `err<probability>`
    /// - window — `<start>-<end>` with units `ns`/`us`/`ms`/`s`
    ///   (e.g. `40s-60s`), or `~<count>x<mean_len>/<mean_gap>` for seeded
    ///   stochastic episodes (e.g. `~3x2s/10s`)
    ///
    /// Overlapping clauses on the same target are legal and merge by the
    /// precedence documented on [`FaultSchedule::effect_at`]; an *exact*
    /// duplicate clause (same target, kind, and window — including one
    /// produced by expanding `net` next to an identical `net-up`/`net-down`
    /// clause) is rejected as a spec error.
    ///
    /// # Examples
    ///
    /// ```
    /// use fcache_types::FaultPlan;
    /// let plan = FaultPlan::parse("filer:outage@40s-60s;net:slowx4@10s-20s").unwrap();
    /// assert_eq!(plan.clauses.len(), 3); // `net` expands to both directions
    /// assert_eq!(FaultPlan::parse(&plan.describe()).unwrap(), plan);
    /// ```
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (target_s, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("clause \"{part}\" missing \":\" (target:kind@window)"))?;
            let (kind_s, window_s) = rest
                .split_once('@')
                .ok_or_else(|| format!("clause \"{part}\" missing \"@\" (target:kind@window)"))?;
            let kind = Self::parse_kind(kind_s.trim())?;
            let window = Self::parse_window(window_s.trim())?;
            let targets: Vec<FaultTarget> = match target_s.trim() {
                "filer" => vec![FaultTarget::Filer],
                "net" => vec![
                    FaultTarget::Net(FaultDirection::ToServer),
                    FaultTarget::Net(FaultDirection::FromServer),
                ],
                "net-up" => vec![FaultTarget::Net(FaultDirection::ToServer)],
                "net-down" => vec![FaultTarget::Net(FaultDirection::FromServer)],
                "device" => vec![FaultTarget::Device],
                "shard*" => vec![FaultTarget::Shard(None)],
                other => {
                    let shard = other
                        .strip_prefix("shard")
                        .and_then(|k| k.parse::<u16>().ok());
                    match shard {
                        Some(k) => vec![FaultTarget::Shard(Some(k))],
                        None => {
                            return Err(format!(
                                "unknown fault target \"{other}\" \
                                 (filer|net|net-up|net-down|device|shard<k>|shard*)"
                            ))
                        }
                    }
                }
            };
            for target in targets {
                let clause = FaultClause {
                    target,
                    kind,
                    window,
                };
                if plan.clauses.contains(&clause) {
                    return Err(format!(
                        "duplicate fault clause \"{}\" (overlapping clauses merge; \
                         an exact repeat is a spec error)",
                        clause.describe()
                    ));
                }
                plan.clauses.push(clause);
            }
        }
        Ok(plan)
    }

    fn parse_kind(s: &str) -> Result<FaultKind, String> {
        if s == "outage" {
            return Ok(FaultKind::Outage);
        }
        if let Some(x) = s.strip_prefix("slowx") {
            let f: f64 = x
                .parse()
                .map_err(|_| format!("invalid slowdown factor \"{x}\""))?;
            if !f.is_finite() || f <= 0.0 {
                return Err(format!("slowdown factor {f} must be finite and > 0"));
            }
            return Ok(FaultKind::SlowBy(f));
        }
        if let Some(p) = s.strip_prefix("err") {
            let p: f64 = p
                .parse()
                .map_err(|_| format!("invalid error rate \"{p}\""))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("error rate {p} must be in [0,1]"));
            }
            return Ok(FaultKind::ErrorRate(p));
        }
        Err(format!(
            "unknown fault kind \"{s}\" (outage|slowx<f>|err<p>)"
        ))
    }

    fn parse_window(s: &str) -> Result<FaultWindow, String> {
        if let Some(rest) = s.strip_prefix('~') {
            let (count_s, times) = rest
                .split_once('x')
                .ok_or_else(|| format!("episode window \"{s}\" must be ~<count>x<len>/<gap>"))?;
            let (len_s, gap_s) = times
                .split_once('/')
                .ok_or_else(|| format!("episode window \"{s}\" must be ~<count>x<len>/<gap>"))?;
            let count: u32 = count_s
                .trim()
                .parse()
                .map_err(|_| format!("invalid episode count \"{count_s}\""))?;
            return Ok(FaultWindow::Episodes {
                mean_len_ns: parse_time_ns(len_s)?,
                mean_gap_ns: parse_time_ns(gap_s)?,
                count,
            });
        }
        let (a, b) = s.split_once('-').ok_or_else(|| {
            format!("window \"{s}\" must be <start>-<end> or ~<count>x<len>/<gap>")
        })?;
        let start_ns = parse_time_ns(a)?;
        let end_ns = parse_time_ns(b)?;
        if end_ns <= start_ns {
            return Err(format!("window \"{s}\" must end after it starts"));
        }
        Ok(FaultWindow::Interval { start_ns, end_ns })
    }
}

// ---------------------------------------------------------------------------
// JSON

impl FaultTarget {
    fn json_label(&self) -> String {
        match self {
            FaultTarget::Filer => "filer".to_string(),
            FaultTarget::Net(FaultDirection::ToServer) => "net_to_server".to_string(),
            FaultTarget::Net(FaultDirection::FromServer) => "net_from_server".to_string(),
            FaultTarget::Device => "device".to_string(),
            FaultTarget::Shard(None) => "shard_any".to_string(),
            FaultTarget::Shard(Some(k)) => format!("shard_{k}"),
        }
    }

    fn from_json_label(s: &str) -> Result<Self, String> {
        match s {
            "filer" => Ok(FaultTarget::Filer),
            "net_to_server" => Ok(FaultTarget::Net(FaultDirection::ToServer)),
            "net_from_server" => Ok(FaultTarget::Net(FaultDirection::FromServer)),
            "device" => Ok(FaultTarget::Device),
            "shard_any" => Ok(FaultTarget::Shard(None)),
            other => match other.strip_prefix("shard_").map(str::parse::<u16>) {
                Some(Ok(k)) => Ok(FaultTarget::Shard(Some(k))),
                _ => Err(format!("unknown fault target {other:?}")),
            },
        }
    }
}

impl FaultPlan {
    /// Serializes the plan; exact inverse of [`FaultPlan::from_json`]
    /// (pinned by a proptest in `tests/fault_roundtrip.rs`).
    pub fn to_json(&self) -> Json {
        Json::obj().field(
            "clauses",
            Json::Arr(
                self.clauses
                    .iter()
                    .map(|c| {
                        Json::obj()
                            .field("target", Json::Str(c.target.json_label()))
                            .field(
                                "kind",
                                match c.kind {
                                    FaultKind::Outage => Json::Str("outage".to_string()),
                                    FaultKind::SlowBy(f) => {
                                        Json::obj().field("slow_by", Json::F64(f))
                                    }
                                    FaultKind::ErrorRate(p) => {
                                        Json::obj().field("error_rate", Json::F64(p))
                                    }
                                },
                            )
                            .field(
                                "window",
                                match c.window {
                                    FaultWindow::Interval { start_ns, end_ns } => Json::obj()
                                        .field("start_ns", Json::U64(start_ns))
                                        .field("end_ns", Json::U64(end_ns)),
                                    FaultWindow::Episodes {
                                        mean_gap_ns,
                                        mean_len_ns,
                                        count,
                                    } => Json::obj().field(
                                        "episodes",
                                        Json::obj()
                                            .field("mean_gap_ns", Json::U64(mean_gap_ns))
                                            .field("mean_len_ns", Json::U64(mean_len_ns))
                                            .field("count", Json::U64(u64::from(count))),
                                    ),
                                },
                            )
                    })
                    .collect(),
            ),
        )
    }

    /// Decodes a serialized plan (strict: unknown shapes are errors).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let clauses = match v.get("clauses") {
            Some(Json::Arr(items)) => items,
            _ => return Err("fault plan missing \"clauses\" array".to_string()),
        };
        let mut plan = FaultPlan::default();
        for c in clauses {
            let target = FaultTarget::from_json_label(
                c.get("target")
                    .and_then(Json::as_str)
                    .ok_or("fault clause missing \"target\"")?,
            )?;
            let kind = match c.get("kind") {
                Some(Json::Str(s)) if s == "outage" => FaultKind::Outage,
                Some(k) => {
                    if let Some(f) = k.get("slow_by").and_then(Json::as_f64) {
                        FaultKind::SlowBy(f)
                    } else if let Some(p) = k.get("error_rate").and_then(Json::as_f64) {
                        FaultKind::ErrorRate(p)
                    } else {
                        return Err(format!("invalid fault kind {k:?}"));
                    }
                }
                None => return Err("fault clause missing \"kind\"".to_string()),
            };
            let w = c.get("window").ok_or("fault clause missing \"window\"")?;
            let window = if let Some(e) = w.get("episodes") {
                FaultWindow::Episodes {
                    mean_gap_ns: e
                        .get("mean_gap_ns")
                        .and_then(Json::as_u64)
                        .ok_or("episodes missing mean_gap_ns")?,
                    mean_len_ns: e
                        .get("mean_len_ns")
                        .and_then(Json::as_u64)
                        .ok_or("episodes missing mean_len_ns")?,
                    count: e
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or("episodes missing count")? as u32,
                }
            } else {
                FaultWindow::Interval {
                    start_ns: w
                        .get("start_ns")
                        .and_then(Json::as_u64)
                        .ok_or("window missing start_ns")?,
                    end_ns: w
                        .get("end_ns")
                        .and_then(Json::as_u64)
                        .ok_or("window missing end_ns")?,
                }
            };
            plan.clauses.push(FaultClause {
                target,
                kind,
                window,
            });
        }
        Ok(plan)
    }
}

// ---------------------------------------------------------------------------
// Resolution

/// One concrete active window on a resolved schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedWindow {
    /// Opens at this simulated nanosecond (inclusive).
    pub start_ns: u64,
    /// Closes at this simulated nanosecond (exclusive).
    pub end_ns: u64,
    /// Misbehavior while open.
    pub kind: FaultKind,
    /// `describe()`-form of the originating clause; a failure it causes
    /// shares it instead of copying it.
    pub clause: Arc<str>,
}

/// The concrete windows a plan injects on one target, sorted by start.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultSchedule {
    windows: Vec<ResolvedWindow>,
}

/// What the injection seam should do right now.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultEffect {
    /// Healthy: proceed normally.
    None,
    /// Inflate the drawn service time by this factor.
    SlowBy(f64),
    /// Fail the operation.
    Fail {
        /// `describe()`-form of the clause that fired.
        clause: Arc<str>,
        /// For outages, when the window closes (retrying before this is
        /// futile); `None` for probabilistic errors.
        until_ns: Option<u64>,
    },
}

impl FaultSchedule {
    /// Whether this target has any windows at all.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// The resolved windows, sorted by start time.
    pub fn windows(&self) -> &[ResolvedWindow] {
        &self.windows
    }

    /// The effect in force at `now_ns`. `draw` supplies uniform `[0,1)`
    /// variates and is invoked exactly once per `ErrorRate` window
    /// containing `now_ns` (and never otherwise), so the caller's RNG
    /// stream advances deterministically with simulated time.
    ///
    /// Precedence: an open `Outage` fails immediately; otherwise each
    /// open `ErrorRate` gets an independent draw; otherwise open
    /// `SlowBy` factors multiply.
    pub fn effect_at(&self, now_ns: u64, draw: &mut dyn FnMut() -> f64) -> FaultEffect {
        if let Some(w) = self.open_outage(now_ns) {
            return FaultEffect::Fail {
                clause: w.clause.clone(),
                until_ns: Some(w.end_ns),
            };
        }
        for w in self.open(now_ns) {
            if let FaultKind::ErrorRate(p) = w.kind {
                if draw() < p {
                    return FaultEffect::Fail {
                        clause: w.clause.clone(),
                        until_ns: None,
                    };
                }
            }
        }
        let mut factor = 1.0;
        for w in self.open(now_ns) {
            if let FaultKind::SlowBy(f) = w.kind {
                factor *= f;
            }
        }
        if factor != 1.0 {
            FaultEffect::SlowBy(factor)
        } else {
            FaultEffect::None
        }
    }

    fn open(&self, now_ns: u64) -> impl Iterator<Item = &ResolvedWindow> {
        self.windows
            .iter()
            .filter(move |w| w.start_ns <= now_ns && now_ns < w.end_ns)
    }

    fn open_outage(&self, now_ns: u64) -> Option<&ResolvedWindow> {
        self.open(now_ns)
            .filter(|w| w.kind == FaultKind::Outage)
            .max_by_key(|w| w.end_ns)
    }

    /// If an outage is open at `now_ns`, when it clears.
    pub fn outage_until(&self, now_ns: u64) -> Option<u64> {
        self.open_outage(now_ns).map(|w| w.end_ns)
    }

    /// Merged outage intervals, sorted, non-overlapping.
    pub fn outage_spans(&self) -> Vec<(u64, u64)> {
        let mut spans: Vec<(u64, u64)> = self
            .windows
            .iter()
            .filter(|w| w.kind == FaultKind::Outage)
            .map(|w| (w.start_ns, w.end_ns))
            .collect();
        spans.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for (s, e) in spans {
            match merged.last_mut() {
                Some((_, le)) if s <= *le => *le = (*le).max(e),
                _ => merged.push((s, e)),
            }
        }
        merged
    }

    /// Total outage time overlapping `[0, end_ns)`.
    pub fn outage_overlap(&self, end_ns: u64) -> u64 {
        self.outage_spans()
            .iter()
            .map(|&(s, e)| e.min(end_ns).saturating_sub(s))
            .sum()
    }

    /// Index (into [`FaultSchedule::windows`]) of the first window open
    /// at `now_ns`, for per-window availability accounting.
    pub fn window_index_at(&self, now_ns: u64) -> Option<usize> {
        self.windows
            .iter()
            .position(|w| w.start_ns <= now_ns && now_ns < w.end_ns)
    }
}

/// A [`FaultPlan`] resolved against a seed and time scale: one concrete
/// schedule per injectable target.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ResolvedFaultSet {
    /// Filer service faults. With a sharded remote tier these windows are
    /// *also* copied into every entry of [`ResolvedFaultSet::shards`]
    /// (a filer fault hits the whole fleet); this schedule is kept for
    /// whole-backend accounting (availability windows, degraded time).
    pub filer: FaultSchedule,
    /// Client → filer network faults.
    pub net_to_server: FaultSchedule,
    /// Filer → client network faults.
    pub net_from_server: FaultSchedule,
    /// Local device faults.
    pub device: FaultSchedule,
    /// Per-shard faults of the remote tier, indexed by shard. Empty unless
    /// the plan was resolved with [`FaultPlan::resolve_sharded`].
    pub shards: Vec<FaultSchedule>,
}

impl ResolvedFaultSet {
    /// The union of all backend-side windows (filer and per-shard), for
    /// per-window availability accounting: one entry per *distinct* window
    /// a clause produced. Filer clauses are mirrored into every shard and
    /// `shard*` clauses into each — the mirrors are exact duplicates, so
    /// they collapse back to the single window the operator wrote.
    pub fn backend_accounting(&self) -> FaultSchedule {
        let mut windows: Vec<ResolvedWindow> = self.filer.windows.clone();
        for sched in &self.shards {
            windows.extend(sched.windows.iter().cloned());
        }
        windows.sort_by(|a, b| {
            (a.start_ns, a.end_ns, &a.clause).cmp(&(b.start_ns, b.end_ns, &b.clause))
        });
        windows.dedup();
        FaultSchedule { windows }
    }
}

/// Uniform `[0,1)` from a splitmix-style counter stream.
fn u01(seed: u64, ctr: &mut u64) -> f64 {
    *ctr += 1;
    (mix64(seed.wrapping_add(*ctr)) >> 11) as f64 / (1u64 << 53) as f64
}

/// Exponential variate with the given mean (in ns), truncated to u64.
fn exp_ns(mean_ns: u64, seed: u64, ctr: &mut u64) -> u64 {
    let u = u01(seed, ctr);
    (-(1.0 - u).ln() * mean_ns as f64).round() as u64
}

impl FaultPlan {
    /// Resolves the plan into concrete per-target schedules against a
    /// remote tier of `shard_count` shards (the default single filer is
    /// one shard).
    ///
    /// `seed` drives the episode expansion (clause-indexed, so adding a
    /// clause does not perturb the others); `time_div` is the run's time
    /// scale — paper-scale windows divide down so a spec written for the
    /// full 60 GB workload lands proportionally in a scaled-down run.
    ///
    /// Shard clauses land on their shard's schedule (`shard*` on every
    /// shard), filer clauses land on the whole-backend `filer` schedule
    /// *and* every shard (the fleet shares the filer's fate), and a clause
    /// naming a shard outside the topology is an error.
    pub fn resolve_sharded(
        &self,
        seed: u64,
        time_div: u64,
        shard_count: u16,
    ) -> Result<ResolvedFaultSet, String> {
        self.check_shards(shard_count)?;
        Ok(self.resolve_inner(seed, time_div, shard_count))
    }

    /// Refuses the first `shard<k>` clause whose `k` is outside a topology
    /// of `shard_count` shards, naming the clause.
    pub fn check_shards(&self, shard_count: u16) -> Result<(), String> {
        for c in &self.clauses {
            if let FaultTarget::Shard(Some(k)) = c.target {
                if k >= shard_count {
                    return Err(format!(
                        "fault clause \"{}\" names shard {k}, but the topology has {} shard(s) \
                         (shard0..shard{})",
                        c.describe(),
                        shard_count,
                        shard_count.saturating_sub(1),
                    ));
                }
            }
        }
        Ok(())
    }

    fn resolve_inner(&self, seed: u64, time_div: u64, shard_count: u16) -> ResolvedFaultSet {
        let div = time_div.max(1);
        let mut set = ResolvedFaultSet::default();
        set.shards
            .resize_with(usize::from(shard_count), FaultSchedule::default);
        for (i, c) in self.clauses.iter().enumerate() {
            let clause: Arc<str> = c.describe().into();
            let mut windows: Vec<ResolvedWindow> = Vec::new();
            match c.window {
                FaultWindow::Interval { start_ns, end_ns } => windows.push(ResolvedWindow {
                    start_ns: start_ns / div,
                    end_ns: (end_ns / div).max(start_ns / div + 1),
                    kind: c.kind,
                    clause: clause.clone(),
                }),
                FaultWindow::Episodes {
                    mean_gap_ns,
                    mean_len_ns,
                    count,
                } => {
                    let eseed = mix64(seed ^ (i as u64).rotate_left(23) ^ 0xfa17_u64);
                    let mut ctr = 0u64;
                    let mut t = 0u64;
                    for _ in 0..count {
                        let gap = exp_ns(mean_gap_ns, eseed, &mut ctr);
                        let len = exp_ns(mean_len_ns, eseed, &mut ctr).max(1);
                        let start = t + gap;
                        let end = start + len;
                        t = end;
                        windows.push(ResolvedWindow {
                            start_ns: start / div,
                            end_ns: (end / div).max(start / div + 1),
                            kind: c.kind,
                            clause: clause.clone(),
                        });
                    }
                }
            }
            match c.target {
                FaultTarget::Filer => {
                    // A filer fault takes the whole backend down: it lands
                    // on every shard too, so the sharded read/write paths
                    // see it without consulting a second schedule.
                    for sched in &mut set.shards {
                        sched.windows.extend(windows.iter().cloned());
                    }
                    set.filer.windows.extend(windows);
                }
                FaultTarget::Net(FaultDirection::ToServer) => {
                    set.net_to_server.windows.extend(windows)
                }
                FaultTarget::Net(FaultDirection::FromServer) => {
                    set.net_from_server.windows.extend(windows)
                }
                FaultTarget::Device => set.device.windows.extend(windows),
                FaultTarget::Shard(None) => {
                    for sched in &mut set.shards {
                        sched.windows.extend(windows.iter().cloned());
                    }
                }
                FaultTarget::Shard(Some(k)) => {
                    // Out-of-range indices were rejected by resolve_sharded;
                    // plain resolve has no shards to land on.
                    if let Some(sched) = set.shards.get_mut(usize::from(k)) {
                        sched.windows.extend(windows);
                    }
                }
            }
        }
        let ResolvedFaultSet {
            filer,
            net_to_server,
            net_from_server,
            device,
            shards,
        } = &mut set;
        for sched in [filer, net_to_server, net_from_server, device]
            .into_iter()
            .chain(shards.iter_mut())
        {
            sched.windows.sort_by_key(|w| (w.start_ns, w.end_ns));
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_and_describes_canonically() {
        let plan = FaultPlan::parse("filer:outage@40s-60s").unwrap();
        assert_eq!(plan.clauses.len(), 1);
        assert_eq!(
            plan.clauses[0],
            FaultClause {
                target: FaultTarget::Filer,
                kind: FaultKind::Outage,
                window: FaultWindow::Interval {
                    start_ns: 40_000_000_000,
                    end_ns: 60_000_000_000,
                },
            }
        );
        assert_eq!(plan.describe(), "filer:outage@40s-60s");
    }

    #[test]
    fn spec_units_kinds_and_net_sugar() {
        let plan =
            FaultPlan::parse("net:slowx2.5@100ms-250ms; device:err0.01@500us-900us").unwrap();
        assert_eq!(plan.clauses.len(), 3);
        assert_eq!(
            plan.clauses[0].target,
            FaultTarget::Net(FaultDirection::ToServer)
        );
        assert_eq!(
            plan.clauses[1].target,
            FaultTarget::Net(FaultDirection::FromServer)
        );
        assert_eq!(plan.clauses[0].kind, FaultKind::SlowBy(2.5));
        assert_eq!(plan.clauses[2].kind, FaultKind::ErrorRate(0.01));
        assert_eq!(
            plan.clauses[2].window,
            FaultWindow::Interval {
                start_ns: 500_000,
                end_ns: 900_000,
            }
        );
        // describe → parse is exact on the expanded form.
        assert_eq!(FaultPlan::parse(&plan.describe()).unwrap(), plan);
    }

    #[test]
    fn episode_specs_round_trip() {
        let plan = FaultPlan::parse("filer:outage@~3x2s/10s").unwrap();
        assert_eq!(
            plan.clauses[0].window,
            FaultWindow::Episodes {
                mean_gap_ns: 10_000_000_000,
                mean_len_ns: 2_000_000_000,
                count: 3,
            }
        );
        assert_eq!(plan.describe(), "filer:outage@~3x2s/10s");
        assert_eq!(FaultPlan::parse(&plan.describe()).unwrap(), plan);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "filer outage",
            "filer:outage",
            "gpu:outage@1s-2s",
            "filer:melt@1s-2s",
            "filer:outage@2s-1s",
            "filer:outage@1s-2parsecs",
            "filer:slowx0@1s-2s",
            "filer:err1.5@1s-2s",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let plan = FaultPlan::parse(
            "filer:outage@40s-60s;net-up:slowx3.25@1ms-2ms;device:err0.125@~2x5ms/20ms",
        )
        .unwrap();
        let j = plan.to_json();
        let back = FaultPlan::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn resolve_scales_intervals_by_time_div() {
        let plan = FaultPlan::parse("filer:outage@40s-60s").unwrap();
        let set = plan.resolve_sharded(42, 16_384, 1).unwrap();
        assert_eq!(set.filer.windows().len(), 1);
        let w = &set.filer.windows()[0];
        assert_eq!(w.start_ns, 40_000_000_000 / 16_384);
        assert_eq!(w.end_ns, 60_000_000_000 / 16_384);
        assert!(set.net_to_server.is_empty() && set.device.is_empty());
    }

    #[test]
    fn effect_precedence_and_draw_discipline() {
        let plan = FaultPlan::parse("filer:outage@10s-20s;filer:slowx4@5s-30s").unwrap();
        let set = plan.resolve_sharded(1, 1, 1).unwrap();
        let mut draws = 0u32;
        let mut draw = || {
            draws += 1;
            0.5
        };
        // Inside the outage: Fail with the window end, no draws.
        match set.filer.effect_at(15_000_000_000, &mut draw) {
            FaultEffect::Fail { until_ns, .. } => assert_eq!(until_ns, Some(20_000_000_000)),
            other => panic!("expected outage, got {other:?}"),
        }
        // Outside the outage but inside the slowdown.
        assert_eq!(
            set.filer.effect_at(25_000_000_000, &mut draw),
            FaultEffect::SlowBy(4.0)
        );
        // Fully healthy.
        assert_eq!(
            set.filer.effect_at(35_000_000_000, &mut draw),
            FaultEffect::None
        );
        assert_eq!(draws, 0, "no ErrorRate windows, no draws");
    }

    #[test]
    fn error_rate_draws_once_per_open_window() {
        let plan = FaultPlan::parse("filer:err0.5@0s-10s").unwrap();
        let set = plan.resolve_sharded(1, 1, 1).unwrap();
        let mut seq = [0.4, 0.6].into_iter();
        let mut draw = || seq.next().unwrap();
        assert!(matches!(
            set.filer.effect_at(1, &mut draw),
            FaultEffect::Fail { until_ns: None, .. }
        ));
        assert_eq!(set.filer.effect_at(2, &mut draw), FaultEffect::None);
    }

    #[test]
    fn outage_spans_merge_and_overlap() {
        let plan =
            FaultPlan::parse("filer:outage@1s-3s;filer:outage@2s-4s;filer:outage@10s-11s").unwrap();
        let set = plan.resolve_sharded(0, 1, 1).unwrap();
        assert_eq!(
            set.filer.outage_spans(),
            vec![
                (1_000_000_000, 4_000_000_000),
                (10_000_000_000, 11_000_000_000)
            ]
        );
        assert_eq!(set.filer.outage_overlap(10_500_000_000), 3_500_000_000);
        assert_eq!(set.filer.outage_until(2_500_000_000), Some(4_000_000_000));
        assert_eq!(set.filer.outage_until(5_000_000_000), None);
    }

    #[test]
    fn shard_targets_parse_and_describe_canonically() {
        let plan = FaultPlan::parse("shard2:outage@40s-60s;shard*:slowx2@10s-20s").unwrap();
        assert_eq!(plan.clauses.len(), 2);
        assert_eq!(plan.clauses[0].target, FaultTarget::Shard(Some(2)));
        assert_eq!(plan.clauses[1].target, FaultTarget::Shard(None));
        assert!(plan.has_shard_clauses());
        assert_eq!(
            plan.describe(),
            "shard2:outage@40s-60s;shard*:slowx2@10s-20s"
        );
        assert_eq!(FaultPlan::parse(&plan.describe()).unwrap(), plan);
        assert!(!FaultPlan::parse("filer:outage@1s-2s")
            .unwrap()
            .has_shard_clauses());
        for bad in [
            "shard:outage@1s-2s",
            "shard-1:outage@1s-2s",
            "shardx:outage@1s-2s",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn shard_targets_round_trip_through_json() {
        let plan = FaultPlan::parse("shard0:outage@1s-2s;shard*:err0.5@3s-4s").unwrap();
        let j = plan.to_json();
        let back = FaultPlan::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn exact_duplicate_clauses_are_rejected_at_parse() {
        // Same clause twice, directly.
        let err = FaultPlan::parse("filer:outage@1s-2s;filer:outage@1s-2s").unwrap_err();
        assert!(err.contains("duplicate fault clause"), "{err}");
        // `net` sugar colliding with an identical explicit direction.
        assert!(FaultPlan::parse("net:slowx2@1s-2s;net-up:slowx2@1s-2s").is_err());
        // Overlapping-but-distinct clauses stay legal (they merge).
        assert!(FaultPlan::parse("filer:outage@1s-2s;filer:outage@1s-3s").is_ok());
        assert!(FaultPlan::parse("filer:outage@10s-20s;filer:slowx4@5s-30s").is_ok());
        // from_json stays lenient: old rows decode even if a dup sneaks in.
        let dup = FaultPlan {
            clauses: vec![
                FaultClause {
                    target: FaultTarget::Filer,
                    kind: FaultKind::Outage,
                    window: FaultWindow::Interval {
                        start_ns: 1,
                        end_ns: 2,
                    },
                };
                2
            ],
        };
        assert_eq!(FaultPlan::from_json(&dup.to_json()).unwrap(), dup);
    }

    #[test]
    fn resolve_sharded_lands_clauses_per_shard() {
        let plan =
            FaultPlan::parse("shard1:outage@10s-20s;shard*:slowx2@30s-40s;filer:outage@50s-60s")
                .unwrap();
        let set = plan.resolve_sharded(42, 1, 3).unwrap();
        assert_eq!(set.shards.len(), 3);
        // shard1 gets its own outage plus the shard* and filer windows.
        assert_eq!(set.shards[1].windows().len(), 3);
        // shard0/shard2 get the shard* slowdown and the filer outage.
        assert_eq!(set.shards[0].windows().len(), 2);
        assert_eq!(set.shards[2].windows().len(), 2);
        // The whole-backend schedule keeps only the filer clause.
        assert_eq!(set.filer.windows().len(), 1);
        assert_eq!(
            set.shards[0].outage_until(55_000_000_000),
            Some(60_000_000_000)
        );
        assert_eq!(
            set.shards[1].outage_until(15_000_000_000),
            Some(20_000_000_000)
        );
        assert_eq!(set.shards[0].outage_until(15_000_000_000), None);
    }

    #[test]
    fn resolve_sharded_rejects_out_of_range_shards() {
        let plan = FaultPlan::parse("shard4:outage@1s-2s").unwrap();
        let err = plan.resolve_sharded(0, 1, 4).unwrap_err();
        assert!(
            err.contains("shard 4") && err.contains("4 shard(s)"),
            "{err}"
        );
        assert!(plan.resolve_sharded(0, 1, 5).is_ok());
    }

    #[test]
    fn episode_resolution_is_seed_deterministic() {
        let plan = FaultPlan::parse("device:outage@~4x1ms/5ms").unwrap();
        let a = plan.resolve_sharded(7, 1, 1).unwrap();
        let b = plan.resolve_sharded(7, 1, 1).unwrap();
        let c = plan.resolve_sharded(8, 1, 1).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.device.windows().len(), 4);
        // Episodes are ordered and non-degenerate.
        for w in a.device.windows() {
            assert!(w.end_ns > w.start_ns);
        }
    }
}
