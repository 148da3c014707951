//! The traced run's instrumentation, kept entirely in the benchmark:
//! spans around each call the workload makes into a layer, registry
//! phase-histogram deltas around each quiescence, and the counter
//! snapshots both the per-layer metrics and the determinism self-check
//! are computed from.

use lbtrust::obs::Histogram;
use lbtrust::{SysError, System, SystemStats};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Steps one `run_to_quiescence` call may take before the workload
/// counts as failed (lossy gossip repair needs a few hundred).
pub const MAX_STEPS: usize = 1000;

/// The registry's wall-clock histograms a quiescence call's time is
/// attributed to, as `(span name, histogram)`: the `quiesce.*` phases
/// in execution order, then the snapshot publish that ends the call.
pub const PHASES: [(&str, &str); 9] = [
    ("quiesce.gossip_prepare", "quiesce.gossip_prepare_ns"),
    ("quiesce.fixpoint", "quiesce.fixpoint_ns"),
    ("quiesce.placement", "quiesce.placement_ns"),
    ("quiesce.export_drain", "quiesce.export_drain_ns"),
    ("quiesce.gossip_send", "quiesce.gossip_send_ns"),
    ("quiesce.delivery", "quiesce.delivery_ns"),
    ("quiesce.group_commit", "quiesce.group_commit_ns"),
    ("quiesce.fault_recovery", "quiesce.fault_recovery_ns"),
    ("snapshot.publish", "snapshot.publish_ns"),
];

/// One recorded interval. Update spans have no parent; their children
/// point at them and carry the same update id.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub update: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans in memory while on; a pass-through while off, so the
/// untraced run reads no clocks beyond the harness's own.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Option<usize>,
    phases: Vec<Histogram>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: false,
            spans: Vec::new(),
            open: None,
            phases: Vec::new(),
        }
    }

    /// Switches recording on or off for the next episode and binds the
    /// phase histograms of that episode's system.
    pub fn attach(&mut self, sys: &System, on: bool) {
        self.on = on;
        let registry = sys.obs_registry();
        self.phases = PHASES.iter().map(|(_, h)| registry.timing(h)).collect();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens the parent span of update `id`.
    pub fn begin_update(&mut self, id: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.open = Some(self.spans.len());
        self.spans.push(Span {
            name: "update",
            start_ns,
            end_ns: start_ns,
            parent: None,
            update: id,
        });
    }

    /// Closes the open update span.
    pub fn end_update(&mut self) {
        if let Some(i) = self.open.take() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    fn child(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        if let Some(parent) = self.open {
            let update = self.spans[parent].update;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: Some(parent),
                update,
            });
        }
    }

    /// Runs `f` (one call into a layer) inside a child span `name`.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.child(name, start, end);
        out
    }

    /// Runs `sys` to quiescence. While tracing, each phase histogram's
    /// growth over the call becomes one child span, laid end to end
    /// from the call's start in execution order.
    pub fn quiesce(&mut self, sys: &mut System) -> Result<SystemStats, SysError> {
        if !self.on {
            return sys.run_to_quiescence(MAX_STEPS);
        }
        let before: Vec<u64> = self.phases.iter().map(Histogram::sum).collect();
        let mut at = self.now_ns();
        let out = sys.run_to_quiescence(MAX_STEPS);
        let deltas: Vec<u64> = self
            .phases
            .iter()
            .zip(&before)
            .map(|(h, b)| h.sum() - b)
            .collect();
        for ((name, _), delta) in PHASES.iter().zip(deltas) {
            self.child(name, at, at + delta);
            at += delta;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"update\": {}}}",
                s.name, s.start_ns, s.end_ns, s.update
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Work counters of one system at one instant. Differences between two
/// snapshots are what an episode did; every field is deterministic for
/// a given seed, which the self-check relies on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub steps: u64,
    pub eval_rounds: u64,
    pub eval_rule_evals: u64,
    pub eval_derived: u64,
    pub msgs_accepted: u64,
    pub msgs_rejected: u64,
    pub net_sent: u64,
    pub net_delivered: u64,
    pub net_dropped: u64,
    pub net_bytes: u64,
    pub gossip_rounds: u64,
    pub gossip_frames: u64,
    pub authz_hits: u64,
    pub authz_misses: u64,
    pub authz_invalidations: u64,
    pub store_syncs: u64,
    pub dred_repairs: u64,
    pub rebuilds: u64,
    pub verify_hits: u64,
    pub verify_misses: u64,
}

impl Counters {
    pub fn read(sys: &System) -> Counters {
        let s = sys.stats();
        let r = sys.obs_registry();
        let (mut rounds, mut rule_evals, mut derived) = (0, 0, 0);
        for &p in sys.principals() {
            let st = sys.workspace(p).expect("registered principal").stats();
            rounds += st.rounds as u64;
            rule_evals += st.rule_evals as u64;
            derived += st.derived as u64;
        }
        let v = sys.verify_cache_stats();
        Counters {
            steps: s.steps as u64,
            eval_rounds: rounds,
            eval_rule_evals: rule_evals,
            eval_derived: derived,
            msgs_accepted: s.messages_accepted as u64,
            msgs_rejected: s.messages_rejected as u64,
            net_sent: r.counter("net.sent").get(),
            net_delivered: r.counter("net.delivered").get(),
            net_dropped: r.counter("net.dropped").get(),
            net_bytes: r.counter("net.bytes_sent").get(),
            gossip_rounds: s.gossip_rounds as u64,
            gossip_frames: (s.gossip_summaries + s.gossip_pulls + s.gossip_served) as u64,
            authz_hits: r.counter("authz.cache_hits").get(),
            authz_misses: r.counter("authz.cache_misses").get(),
            authz_invalidations: r.counter("authz.cache_invalidations").get(),
            store_syncs: r.counter("store.syncs").get(),
            dred_repairs: s.dred_repairs as u64,
            rebuilds: s.retraction_rebuilds as u64,
            verify_hits: v.hits,
            verify_misses: v.misses,
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            steps: self.steps - earlier.steps,
            eval_rounds: self.eval_rounds - earlier.eval_rounds,
            eval_rule_evals: self.eval_rule_evals - earlier.eval_rule_evals,
            eval_derived: self.eval_derived - earlier.eval_derived,
            msgs_accepted: self.msgs_accepted - earlier.msgs_accepted,
            msgs_rejected: self.msgs_rejected - earlier.msgs_rejected,
            net_sent: self.net_sent - earlier.net_sent,
            net_delivered: self.net_delivered - earlier.net_delivered,
            net_dropped: self.net_dropped - earlier.net_dropped,
            net_bytes: self.net_bytes - earlier.net_bytes,
            gossip_rounds: self.gossip_rounds - earlier.gossip_rounds,
            gossip_frames: self.gossip_frames - earlier.gossip_frames,
            authz_hits: self.authz_hits - earlier.authz_hits,
            authz_misses: self.authz_misses - earlier.authz_misses,
            authz_invalidations: self.authz_invalidations - earlier.authz_invalidations,
            store_syncs: self.store_syncs - earlier.store_syncs,
            dred_repairs: self.dred_repairs - earlier.dred_repairs,
            rebuilds: self.rebuilds - earlier.rebuilds,
            verify_hits: self.verify_hits - earlier.verify_hits,
            verify_misses: self.verify_misses - earlier.verify_misses,
        }
    }
}

/// Total wall time in `storelog.sync_ns` so far (durable stores only;
/// nested inside group commit and bundle imports, so it is reported as
/// a layer figure rather than a child span of the update).
pub fn storelog_sync_ns(sys: &System) -> u64 {
    sys.obs_registry().timing("storelog.sync_ns").sum()
}

/// Tuples held across every principal's database.
pub fn state_tuples(sys: &System) -> u64 {
    sys.principals()
        .iter()
        .map(|&p| {
            sys.workspace(p)
                .expect("registered principal")
                .db()
                .total_tuples() as u64
        })
        .sum()
}
