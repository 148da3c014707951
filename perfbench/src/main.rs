//! The LBTrust benchmark: seeded workloads driven through the public
//! API (`System`, `Workspace`, `AuthzReader`, certificate-store status
//! and the `obs` registry), with their outputs checked.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives a closed loop: each operation is issued
//! after the previous one returns. A run repeats whole episodes of the
//! workload (a fresh deployment set up from the seed, then a fixed
//! sequence of updates, each followed by `authorize` reads) until
//! `--seconds` have passed and enough updates were timed for the tail
//! percentile. Each episode draws its inputs from the seed and its
//! index, and one pair of episodes always shares inputs: their work
//! counters must agree exactly, which is the determinism check.
//!
//! With `--trace 0` phase timing is off and the last line reports the
//! end-to-end metrics, scaled to a reference host speed (see `host`).
//! With `--trace 1` episodes alternate untraced and
//! traced; the traced ones record spans around every call into a layer
//! (written to `<target dir>/perfbench/spans-<workload>-<seed>.jsonl`)
//! and the last line reports the per-layer metrics.

mod fanout_growth;
mod host;
mod revocation_stream;
mod signed_says;
mod stats;
mod trace;

use lbtrust::{Principal, SysError, System};
use stats::{median, quantile, ratio, result_json, samples_for_tail, Metric};
use std::error::Error;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{state_tuples, storelog_sync_ns, Counters, Tracer};

/// A run stops starting episodes after this long even when it has not
/// timed enough updates, so it always ends well inside three minutes.
const RUN_CAP: Duration = Duration::from_secs(120);

/// One `authorize` read and the verdict the workload's own model
/// expects.
pub struct Read {
    pub who: Principal,
    pub goal: String,
    pub expect: bool,
}

/// A seeded workload. An episode builds the deployment with
/// [`Workload::setup`], then for each update submits it, quiesces,
/// checks the state and runs the reads.
pub trait Workload: Sized {
    /// What the seed decides, compared by the different-seed check.
    type Inputs: PartialEq;
    /// Updates in one episode.
    const UPDATES: usize;
    /// Percentile reported as `update_tail_ms`.
    const UPDATE_TAIL_PCT: f64;
    /// Percentile reported as `authz_tail_us`.
    const AUTHZ_TAIL_PCT: f64;
    /// `authorize` reads after each update.
    const READS_PER_UPDATE: usize;
    /// Revocations one episode issues.
    const REVOCATIONS: usize;
    fn inputs(seed: u64) -> Self::Inputs;
    /// Key generation, policy loads, certificate issue and import and
    /// the first quiescence: everything `setup_s` times.
    fn setup(seed: u64, timing: bool, dir: &Path) -> Result<Self, Box<dyn Error>>;
    fn system(&mut self) -> &mut System;
    /// Everything update `i` submits before its quiescence.
    fn submit(&mut self, i: usize, tracer: &mut Tracer) -> Result<(), SysError>;
    /// Whether the state after update `i` matches the workload's model.
    fn check(&self, i: usize) -> bool;
    fn reads(&self, i: usize) -> Vec<Read>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("'{}' has no value", pair[0]));
        };
        let bad = |_| format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? != 0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// The inputs seed of episode `k` of a run. Episodes draw fresh inputs,
/// so a run averages over many, but one pair always repeats: episodes 0
/// and 1 of an untraced run, and each untraced episode and the traced
/// one after it. Repeated inputs must do identical work.
fn episode_seed(seed: u64, k: usize, trace: bool) -> u64 {
    let draw = if trace { k / 2 } else { k.saturating_sub(1) };
    stats::Rng::new(seed, draw as u64).next_u64()
}

/// What one episode measured.
struct Episode {
    seed: u64,
    traced: bool,
    setup_s: f64,
    update_ms: Vec<f64>,
    authz_us: Vec<f64>,
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    first_after_publish_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Counter growth from the end of setup to the end of the episode.
    work: Counters,
    storelog_sync_ns: u64,
    state_tuples: u64,
    /// Reference-computation timings taken between operations.
    reference_ms: Vec<f64>,
}

fn run_episode<W: Workload>(
    seed: u64,
    traced: bool,
    first_update: u64,
    tracer: &mut Tracer,
    dir: &Path,
) -> Result<Episode, Box<dyn Error>> {
    let _ = std::fs::remove_dir_all(dir);
    let started = Instant::now();
    let mut w = W::setup(seed, traced, dir)?;
    let reader = w.system().authz_reader();
    let setup_s = started.elapsed().as_secs_f64();

    tracer.attach(w.system(), traced);
    let misses = w.system().obs_registry().counter("authz.cache_misses");
    let before = Counters::read(w.system());
    let sync_before = storelog_sync_ns(w.system());
    let mut ep = Episode {
        seed,
        traced,
        setup_s,
        update_ms: Vec::with_capacity(W::UPDATES),
        authz_us: Vec::new(),
        hit_us: Vec::new(),
        miss_us: Vec::new(),
        first_after_publish_us: Vec::new(),
        attempted: 0,
        failed: 0,
        work: Counters::default(),
        storelog_sync_ns: 0,
        state_tuples: 0,
        reference_ms: vec![host::reference_ms()],
    };
    for i in 0..W::UPDATES {
        ep.attempted += 1;
        tracer.begin_update(first_update + i as u64);
        let t = Instant::now();
        let outcome = w
            .submit(i, tracer)
            .and_then(|()| tracer.quiesce(w.system()));
        let elapsed = t.elapsed();
        tracer.end_update();
        if let Err(e) = outcome {
            eprintln!("update {i} failed: {e}");
            ep.failed += 1;
            break;
        }
        ep.update_ms.push(elapsed.as_secs_f64() * 1e3);
        if !w.check(i) {
            eprintln!("update {i}: state does not match the workload's model");
            ep.failed += 1;
        }
        for (k, read) in w.reads(i).into_iter().enumerate() {
            ep.attempted += 1;
            let missed_before = misses.get();
            let t = Instant::now();
            let decision = reader.authorize(read.who, &read.goal);
            let us = t.elapsed().as_secs_f64() * 1e6;
            if !decision.is_ok_and(|d| d.granted == read.expect) {
                eprintln!("update {i}: read '{}' at {} is wrong", read.goal, read.who);
                ep.failed += 1;
            }
            ep.authz_us.push(us);
            if misses.get() != missed_before {
                ep.miss_us.push(us);
            } else {
                ep.hit_us.push(us);
            }
            if k == 0 {
                ep.first_after_publish_us.push(us);
            }
        }
        ep.reference_ms.push(host::reference_ms());
    }
    ep.work = Counters::read(w.system()).since(&before);
    ep.storelog_sync_ns = storelog_sync_ns(w.system()) - sync_before;
    ep.state_tuples = state_tuples(w.system());
    drop(reader);
    drop(w);
    let _ = std::fs::remove_dir_all(dir);
    Ok(ep)
}

/// Where the run writes durable stores and spans: under the Cargo
/// target directory the benchmark was built into.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        )
        .join("perfbench")
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn run<W: Workload>(args: &Args) -> Result<String, Box<dyn Error>> {
    let out = out_dir();
    // Enough updates, and reads, to have ten samples beyond each tail.
    let min_updates = if args.trace {
        0
    } else {
        samples_for_tail(W::UPDATE_TAIL_PCT)
            .max(samples_for_tail(W::AUTHZ_TAIL_PCT).div_ceil(W::READS_PER_UPDATE))
    };
    let mut tracer = Tracer::new();
    let started = Instant::now();
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        let k = episodes.len();
        let dir = out.join(format!("stores-{}-{k}", std::process::id()));
        let traced = args.trace && k % 2 == 1;
        let first_update = (k * W::UPDATES) as u64;
        episodes.push(run_episode::<W>(
            episode_seed(args.seed, k, args.trace),
            traced,
            first_update,
            &mut tracer,
            &dir,
        )?);
        let updates: usize = episodes.iter().map(|e| e.update_ms.len()).sum();
        let elapsed = started.elapsed();
        if elapsed >= RUN_CAP {
            break;
        }
        // A traced run ends on a whole untraced/traced pair.
        if episodes.len() >= 2
            && (!args.trace || episodes.len().is_multiple_of(2))
            && updates >= min_updates
            && elapsed >= Duration::from_secs(args.seconds)
        {
            break;
        }
    }

    let attempted: u64 = episodes.iter().map(|e| e.attempted).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let repeatable = episodes.iter().all(|e| {
        episodes
            .iter()
            .filter(|o| o.seed == e.seed)
            .all(|o| o.work == e.work)
    });
    let seed_matters = W::inputs(episode_seed(args.seed, 0, args.trace))
        != W::inputs(episode_seed(args.seed.wrapping_add(1), 0, args.trace));
    println!(
        "workload {} seed {}: {} episodes, {} updates, fail_ratio {} ({failed}/{attempted})",
        args.workload,
        args.seed,
        episodes.len(),
        episodes.iter().map(|e| e.update_ms.len()).sum::<usize>(),
        ratio(failed as f64, attempted as f64),
    );
    println!("determinism: repeated inputs do identical work: {repeatable}; another seed changes the inputs: {seed_matters}");
    for e in &episodes {
        if !repeatable || e.seed == episodes[0].seed {
            println!("  work of inputs {:016x}: {:?}", e.seed, e.work);
        }
    }
    let correct = failed == 0 && repeatable && seed_matters;

    let metrics = if args.trace {
        let path = out.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path)?;
        println!("spans: {}", path.display());
        layer_metrics::<W>(&episodes, &tracer)
    } else {
        end_to_end_metrics::<W>(&episodes)
    };
    Ok(result_json(correct, attempted, failed, &metrics))
}

/// Sum from +0.0 (an empty `Iterator::sum` of floats is -0.0).
fn total(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(0.0, |a, b| a + b)
}

fn pooled(episodes: &[&Episode], f: impl Fn(&Episode) -> &Vec<f64>) -> Vec<f64> {
    episodes.iter().flat_map(|e| f(e).iter().copied()).collect()
}

fn end_to_end_metrics<W: Workload>(episodes: &[Episode]) -> Vec<Metric> {
    let all: Vec<&Episode> = episodes.iter().collect();
    let updates = pooled(&all, |e| &e.update_ms);
    let reads = pooled(&all, |e| &e.authz_us);
    let update_s = total(updates.iter().copied()) / 1e3;
    let msgs: u64 = episodes.iter().map(|e| e.work.msgs_accepted).sum();
    let setups: Vec<f64> = episodes.iter().map(|e| e.setup_s).collect();
    let reference = median(&pooled(&all, |e| &e.reference_ms));
    // Timings scale by `speed`, rates by its inverse (see `host`).
    let speed = host::REFERENCE_MS / reference;
    println!(
        "update_tail_ms is p{} of {} updates; authz_tail_us is p{} of {} reads",
        W::UPDATE_TAIL_PCT,
        updates.len(),
        W::AUTHZ_TAIL_PCT,
        reads.len(),
    );
    let raw = vec![
        metric("setup_s", "s", median(&setups)),
        metric("update_p50_ms", "ms", median(&updates)),
        metric(
            "update_tail_ms",
            "ms",
            quantile(&updates, W::UPDATE_TAIL_PCT / 100.0).unwrap_or(0.0),
        ),
        metric(
            "updates_per_s",
            "1/s",
            ratio(updates.len() as f64, update_s),
        ),
        metric("msgs_per_s", "1/s", ratio(msgs as f64, update_s)),
        metric("authz_p50_us", "us", median(&reads)),
        metric(
            "authz_tail_us",
            "us",
            quantile(&reads, W::AUTHZ_TAIL_PCT / 100.0).unwrap_or(0.0),
        ),
        metric(
            "authz_miss_p50_us",
            "us",
            median(&pooled(&all, |e| &e.miss_us)),
        ),
    ];
    println!(
        "host: reference computation median {reference} ms, so timings are scaled by {speed}; unscaled: {}",
        raw.iter()
            .map(|m| format!("{}={}", m.name, m.value))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let mut scaled: Vec<Metric> = raw
        .into_iter()
        .map(|m| {
            let value = if m.unit == "1/s" {
                m.value / speed
            } else {
                m.value * speed
            };
            Metric { value, ..m }
        })
        .collect();
    scaled.push(metric("rss_peak_mb", "MiB", rss_peak_mb()));
    scaled
}

fn layer_metrics<W: Workload>(episodes: &[Episode], tracer: &Tracer) -> Vec<Metric> {
    let traced: Vec<&Episode> = episodes.iter().filter(|e| e.traced).collect();
    let untraced: Vec<&Episode> = episodes.iter().filter(|e| !e.traced).collect();
    let per_s = |eps: &[&Episode]| {
        let ms = pooled(eps, |e| &e.update_ms);
        ratio(ms.len() as f64, total(ms.iter().copied()) / 1e3)
    };
    let n = traced.iter().map(|e| e.update_ms.len()).sum::<usize>() as f64;
    let sum = |f: &dyn Fn(&Counters) -> u64| traced.iter().map(|e| f(&e.work)).sum::<u64>() as f64;
    let per_update = |f: &dyn Fn(&Counters) -> u64| ratio(sum(f), n);

    // Span totals: every update span and its children, by name.
    let spans = tracer.spans();
    let span_ms = |name: &str| {
        total(
            spans
                .iter()
                .filter(|s| s.parent.is_some() && s.name == name)
                .map(|s| s.ms()),
        )
    };
    let update_ms = total(spans.iter().filter(|s| s.parent.is_none()).map(|s| s.ms()));
    let child_ms = total(spans.iter().filter(|s| s.parent.is_some()).map(|s| s.ms()));
    let unattributed_ms = update_ms - child_ms;

    let hits = sum(&|c| c.authz_hits);
    let misses = sum(&|c| c.authz_misses);
    let verify_hits = sum(&|c| c.verify_hits);
    let verify_misses = sum(&|c| c.verify_misses);
    let revocations = (traced.len() * W::REVOCATIONS) as f64;
    let ms_per_update = |name: &str| ratio(span_ms(name), n);
    let per_revocation = |f: &dyn Fn(&Counters) -> u64| ratio(sum(f), revocations);
    let sync_ms = traced.iter().map(|e| e.storelog_sync_ns).sum::<u64>() as f64 / 1e6;
    let state = traced.iter().map(|e| e.state_tuples).max().unwrap_or(0) as f64;

    vec![
        metric("quiesce.steps", "count/update", per_update(&|c| c.steps)),
        metric(
            "quiesce.fixpoint_ms",
            "ms/update",
            ms_per_update("quiesce.fixpoint"),
        ),
        metric(
            "quiesce.delivery_ms",
            "ms/update",
            ms_per_update("quiesce.delivery"),
        ),
        metric(
            "quiesce.export_drain_ms",
            "ms/update",
            ms_per_update("quiesce.export_drain"),
        ),
        metric(
            "quiesce.gossip_prepare_ms",
            "ms/update",
            ms_per_update("quiesce.gossip_prepare"),
        ),
        metric(
            "quiesce.gossip_send_ms",
            "ms/update",
            ms_per_update("quiesce.gossip_send"),
        ),
        metric(
            "quiesce.group_commit_ms",
            "ms/update",
            ms_per_update("quiesce.group_commit"),
        ),
        metric(
            "quiesce.other_ms",
            "ms/update",
            ms_per_update("quiesce.placement") + ms_per_update("quiesce.fault_recovery"),
        ),
        metric(
            "workspace.assert_ms",
            "ms/update",
            ms_per_update("assert_src"),
        ),
        metric(
            "eval.rounds",
            "count/update",
            per_update(&|c| c.eval_rounds),
        ),
        metric(
            "eval.rule_evals",
            "count/update",
            per_update(&|c| c.eval_rule_evals),
        ),
        metric(
            "eval.derived",
            "count/update",
            per_update(&|c| c.eval_derived),
        ),
        metric(
            "eval.derived_per_rule_eval",
            "ratio",
            ratio(sum(&|c| c.eval_derived), sum(&|c| c.eval_rule_evals)),
        ),
        metric("state.tuples", "count", state),
        metric(
            "authz.publish_ms",
            "ms/update",
            ms_per_update("snapshot.publish"),
        ),
        metric(
            "authz.hit_us",
            "us",
            median(&pooled(&traced, |e| &e.hit_us)),
        ),
        metric(
            "authz.miss_us",
            "us",
            median(&pooled(&traced, |e| &e.miss_us)),
        ),
        metric(
            "authz.first_after_publish_us",
            "us",
            median(&pooled(&traced, |e| &e.first_after_publish_us)),
        ),
        metric("authz.cache_hit_ratio", "ratio", ratio(hits, hits + misses)),
        metric(
            "authz.invalidations",
            "count/update",
            per_update(&|c| c.authz_invalidations),
        ),
        metric(
            "certstore.issue_ms",
            "ms/update",
            ms_per_update("issue_certificate"),
        ),
        metric(
            "certstore.import_ms",
            "ms/update",
            ms_per_update("import_certificates"),
        ),
        metric(
            "certstore.revoke_ms",
            "ms/update",
            ms_per_update("revoke_certificate"),
        ),
        metric(
            "store.syncs",
            "count/update",
            per_update(&|c| c.store_syncs),
        ),
        metric("storelog.sync_ms", "ms/update", ratio(sync_ms, n)),
        metric(
            "verify.cache_hit_ratio",
            "ratio",
            ratio(verify_hits, verify_hits + verify_misses),
        ),
        metric(
            "retract.dred_repairs",
            "count/update",
            per_update(&|c| c.dred_repairs),
        ),
        metric(
            "retract.rebuilds",
            "count/update",
            per_update(&|c| c.rebuilds),
        ),
        metric(
            "net.msgs_per_update",
            "count/update",
            per_update(&|c| c.net_sent),
        ),
        metric(
            "net.bytes_per_update",
            "B/update",
            per_update(&|c| c.net_bytes),
        ),
        metric(
            "net.dropped",
            "count/update",
            per_update(&|c| c.net_dropped),
        ),
        metric(
            "gossip.rounds_per_revocation",
            "count/revocation",
            per_revocation(&|c| c.gossip_rounds),
        ),
        metric(
            "gossip.msgs_per_revocation",
            "count/revocation",
            per_revocation(&|c| c.gossip_frames),
        ),
        metric("update.traced_ms", "ms/update", ratio(update_ms, n)),
        metric(
            "update.unattributed_ms",
            "ms/update",
            ratio(unattributed_ms, n),
        ),
        metric(
            "update.unattributed_pct",
            "%",
            100.0 * ratio(unattributed_ms, update_ms),
        ),
        metric(
            "trace_overhead_pct",
            "%",
            100.0 * (ratio(per_s(&untraced), per_s(&traced)) - 1.0),
        ),
    ]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            eprintln!(
                "usage: perfbench --workload <revocation_stream|fanout_growth|signed_says> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "revocation_stream" => run::<revocation_stream::RevocationStream>(&args),
        "fanout_growth" => run::<fanout_growth::FanoutGrowth>(&args),
        "signed_says" => run::<signed_says::SignedSays>(&args),
        other => Err(format!("unknown workload '{other}'").into()),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
