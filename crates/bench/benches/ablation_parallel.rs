//! Experiment A10: the sharded quiescence engine. Two fan-out
//! workloads over a 32-principal deployment, swept across 1/2/4/8
//! worker shards:
//!
//! * **fanout_chain** — a hub `says` a fresh 12-edge chain to every
//!   receiver each iteration; receivers fold the said edges into a
//!   local transitive closure. Phase-1/phase-3 evaluation work is
//!   embarrassingly parallel across the 31 receivers.
//! * **fanout_revocation** — the hub revokes a batch of certificates
//!   every iteration; the broadcast fans out to 31 receiving stores,
//!   each verifying, transitioning and DRed-retracting in its
//!   destination shard.
//!
//! A `parallel-scaling` summary (speedup of each shard count over the
//! serial engine) is appended to `target/criterion/summary.txt`, the
//! artifact CI archives. Scaling tracks the host's core count: on a
//! single-core container every shard count measures ~1x — run on a
//! multi-core host to see the delivery phase spread out.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbtrust::datalog::Symbol;
use lbtrust::obs::Report;
use lbtrust::{AuthScheme, Principal, SyncPolicy, System};
use lbtrust_bench::persist_line;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// Principals in the deployment (1 hub + N-1 receivers).
const PRINCIPALS: usize = 32;
/// Edges in each iteration's fresh said-chain.
const CHAIN: usize = 12;
/// Certificates revoked per iteration of the revocation workload.
const REVOKE_BATCH: usize = 4;
/// Revocation batches pre-issued per system (one per iteration; the
/// shim caps samples at 30 plus one warmup).
const REVOKE_BATCHES: usize = 36;

/// A hub-and-receivers system on Plaintext auth (no signing cost, so
/// the measured work is evaluation + delivery, the phases the shards
/// split). Receivers run the said-edge transitive closure.
fn fanout_chain_system(shards: usize) -> (System, Principal) {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(SyncPolicy::Batched);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let receivers: Vec<String> = (1..PRINCIPALS).map(|i| format!("r{i}")).collect();
    for (i, name) in receivers.iter().enumerate() {
        let p = sys.add_principal(name, &format!("m{i}")).unwrap();
        sys.set_auth_scheme(p, AuthScheme::Plaintext).unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .load(
                "policy",
                "edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).\n\
                 reach(X,Y) <- edge(X,Y).\n\
                 reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
            )
            .unwrap();
    }
    sys.set_auth_scheme(hub, AuthScheme::Plaintext).unwrap();
    for name in &receivers {
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,{name},[| ledge(X,Y). |]) <- vedge(X,Y)."),
            )
            .unwrap();
    }
    sys.run_to_quiescence(8).unwrap();
    (sys, hub)
}

/// One iteration of the chain workload: a fresh uniquely-named chain
/// asserted at the hub, then quiescence (ships ~31x12 messages, one
/// batched import evaluation per receiver).
fn chain_iteration(sys: &mut System, hub: Principal, round: usize) {
    let facts: String = (0..CHAIN)
        .map(|k| format!("vedge(c{round}e{k},c{round}e{k2}). ", k2 = k + 1))
        .collect();
    sys.workspace_mut(hub).unwrap().assert_src(&facts).unwrap();
    sys.run_to_quiescence(8).unwrap();
}

/// A hub-and-receivers system where every receiver imported the same
/// pre-issued certificates (RSA-backed; verification amortized through
/// the shared cache), ready for batch-by-batch revocation.
fn fanout_revocation_system(
    shards: usize,
) -> (System, Principal, Vec<lbtrust::certstore::CertDigest>) {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(SyncPolicy::Batched);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let receivers: Vec<Principal> = (1..PRINCIPALS)
        .map(|i| {
            sys.add_principal(&format!("r{i}"), &format!("m{i}"))
                .unwrap()
        })
        .collect();
    let facts: String = (0..REVOKE_BATCHES * REVOKE_BATCH)
        .map(|i| format!("good(p{i}). "))
        .collect();
    let certs = sys.issue_certificates(hub, &facts, &[], None).unwrap();
    for &r in &receivers {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", "access(P,f,read) <- says(hub,me,[| good(P) |]).")
            .unwrap();
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(8).unwrap();
    let digests = certs.iter().map(|c| c.digest()).collect();
    (sys, hub, digests)
}

/// One iteration: revoke the next batch and quiesce — 31 receiving
/// stores apply each revocation and DRed-retract its conclusions.
fn revocation_iteration(
    sys: &mut System,
    hub: Principal,
    digests: &[lbtrust::certstore::CertDigest],
    round: usize,
) {
    let start = (round * REVOKE_BATCH) % digests.len();
    for d in &digests[start..start + REVOKE_BATCH] {
        sys.revoke_certificate(hub, *d).unwrap();
    }
    sys.run_to_quiescence(8).unwrap();
}

/// Spokes in the skewed workload (so the deployment is 32 principals,
/// like the balanced sweeps).
const SKEW_SPOKES: usize = 31;
/// Edges in each iteration's fresh chain at the hub.
const SKEW_CHAIN: usize = 16;
/// Iterations per skewed pass.
const SKEW_ROUNDS: usize = 8;
/// Worker count for the skewed run.
const SKEW_SHARDS: usize = 8;

/// A deliberately skewed deployment: the hub runs a transitive closure
/// over each iteration's fresh chain and exports the reachable set to
/// all 31 spokes; each spoke holds one import rule. Roughly half the
/// per-step evaluation cost lands on one principal — the shape where
/// cost-aware LPT gives the hub a worker of its own and stealing
/// spreads the remainder.
fn skewed_hub_system(shards: usize) -> (System, Principal) {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(SyncPolicy::Batched);
    let hub = sys.add_principal("hub", "n0").unwrap();
    sys.set_auth_scheme(hub, AuthScheme::Plaintext).unwrap();
    for i in 0..SKEW_SPOKES {
        let p = sys
            .add_principal(&format!("s{i}"), &format!("m{i}"))
            .unwrap();
        sys.set_auth_scheme(p, AuthScheme::Plaintext).unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .load("policy", "got(X) <- says(hub,me,[| good(X) |]).")
            .unwrap();
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,s{i},[| good(Y). |]) <- payload(Y)."),
            )
            .unwrap();
    }
    sys.workspace_mut(hub)
        .unwrap()
        .load(
            "policy",
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).\n\
             payload(Y) <- start(X), reach(X,Y).\n",
        )
        .unwrap();
    sys.run_to_quiescence(8).unwrap();
    (sys, hub)
}

/// One skewed iteration: a fresh chain plus its start marker asserted
/// at the hub, then quiescence. The hub's closure is quadratic in the
/// chain; each spoke's import is linear.
fn skew_iteration(sys: &mut System, hub: Principal, round: usize) {
    let mut facts: String = (0..SKEW_CHAIN)
        .map(|k| format!("edge(c{round}e{k},c{round}e{k2}). ", k2 = k + 1))
        .collect();
    facts.push_str(&format!("start(c{round}e0)."));
    sys.workspace_mut(hub).unwrap().assert_src(&facts).unwrap();
    sys.run_to_quiescence(8).unwrap();
}

fn speedup_at(means: &[(usize, Duration)], shards: usize) -> Option<f64> {
    let serial = means.iter().find(|(s, _)| *s == 1)?.1;
    let at = means.iter().find(|(s, _)| *s == shards)?.1;
    Some(serial.as_secs_f64() / at.as_secs_f64().max(1e-12))
}

fn report_scaling(workload: &str, means: &[(usize, Duration)]) {
    let Some(&(_, serial)) = means.iter().find(|(s, _)| *s == 1) else {
        return;
    };
    for &(shards, mean) in means {
        let speedup = serial.as_secs_f64() / mean.as_secs_f64().max(1e-12);
        persist_line(&format!(
            "parallel-scaling {workload:<24} shards={shards} {:>10.3} ms/iter {speedup:>6.2}x vs serial ({} principals, {} cores)",
            mean.as_secs_f64() * 1e3,
            PRINCIPALS,
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        ));
    }
}

fn sharded_quiescence(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_parallel");
    group.sample_size(10);

    let mut chain_means: Vec<(usize, Duration)> = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let (mut sys, hub) = fanout_chain_system(shards);
        let round = Cell::new(0usize);
        group.bench_with_input(BenchmarkId::new("fanout_chain", shards), &shards, |b, _| {
            b.iter(|| {
                let r = round.get();
                round.set(r + 1);
                chain_iteration(&mut sys, hub, r);
            });
            chain_means.push((shards, b.mean));
        });
    }

    let mut revoke_means: Vec<(usize, Duration)> = Vec::new();
    for &shards in &[1usize, 2, 4, 8] {
        let (mut sys, hub, digests) = fanout_revocation_system(shards);
        let round = Cell::new(0usize);
        group.bench_with_input(
            BenchmarkId::new("fanout_revocation", shards),
            &shards,
            |b, _| {
                b.iter(|| {
                    let r = round.get();
                    round.set(r + 1);
                    revocation_iteration(&mut sys, hub, &digests, r);
                });
                revoke_means.push((shards, b.mean));
            },
        );
    }
    group.finish();

    report_scaling("fanout_chain", &chain_means);
    report_scaling("fanout_revocation", &revoke_means);

    // Sanity for the equivalence claim the proptest pins down in
    // miniature: a serial and an 8-shard run of the same chain
    // iteration leave identical receiver states.
    let (mut a, hub_a) = fanout_chain_system(1);
    let (mut b, hub_b) = fanout_chain_system(8);
    chain_iteration(&mut a, hub_a, 9999);
    chain_iteration(&mut b, hub_b, 9999);
    let reach = Symbol::intern("reach");
    let r1 = Symbol::intern("r1");
    assert_eq!(
        a.workspace(r1).unwrap().tuples(reach).len(),
        b.workspace(r1).unwrap().tuples(reach).len(),
        "serial and sharded engines must derive the same closure"
    );

    // Obs-overhead microbench, outside the criterion loop: the same
    // 8-shard chain workload with phase timing off / on / off. The two
    // disabled passes bound the run-to-run noise on this host; the
    // disabled path costs one branch per phase, so its overhead must
    // sit inside that noise band (<2% is the acceptance bar, on a
    // quiet host).
    const OBS_ROUNDS: usize = 12;
    let pass = |timing: bool, base: usize| {
        let (sys, hub) = fanout_chain_system(8);
        let mut sys = sys.with_phase_timing(timing);
        let started = Instant::now();
        for r in 0..OBS_ROUNDS {
            chain_iteration(&mut sys, hub, base + r);
        }
        (started.elapsed(), sys)
    };
    let (off_a, _) = pass(false, 20_000);
    let (timing_on, timed) = pass(true, 21_000);
    let (off_b, _) = pass(false, 22_000);
    let timing_off = (off_a + off_b) / 2;
    let overhead_pct =
        (timing_on.as_secs_f64() / timing_off.as_secs_f64().max(1e-12) - 1.0) * 100.0;
    let noise_pct = ((off_a.as_secs_f64() - off_b.as_secs_f64()).abs()
        / timing_off.as_secs_f64().max(1e-12))
        * 100.0;
    persist_line(&format!(
        "parallel-obs-overhead timing on {:.3}ms vs off {:.3}ms ({overhead_pct:+.2}%, \
         off/off noise {noise_pct:.2}%) over {OBS_ROUNDS} iterations",
        timing_on.as_secs_f64() * 1e3,
        timing_off.as_secs_f64() * 1e3,
    ));

    // Skewed hub-and-spoke at 8 workers: the pool's imbalance and
    // steal telemetry. The imbalance bar only means anything when the
    // host actually has a core per worker, so on smaller hosts the
    // assertion is skipped — loudly, in the summary artifact.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (mut skewed, hub) = skewed_hub_system(SKEW_SHARDS);
    let started = Instant::now();
    for r in 0..SKEW_ROUNDS {
        skew_iteration(&mut skewed, hub, 40_000 + r);
    }
    let skew_time = started.elapsed();
    let snap = skewed.obs_registry().snapshot();
    let imbalance_ratio = snap.gauge("quiesce.imbalance_ratio").unwrap_or(0) as f64 / 1000.0;
    let steals = snap.counter("pool.steals").unwrap_or(0);
    let assertions = if cores >= SKEW_SHARDS {
        assert!(
            imbalance_ratio < 1.5,
            "cost-aware LPT + stealing must keep max/mean worker busy time \
             under 1.5 (got {imbalance_ratio:.2})"
        );
        "enforced".to_string()
    } else {
        format!("SKIPPED (cores={cores} < shards={SKEW_SHARDS})")
    };
    persist_line(&format!(
        "parallel-skewed hub+{SKEW_SPOKES} spokes shards={SKEW_SHARDS}: \
         {:.3} ms/iter, imbalance_ratio {imbalance_ratio:.2}, steals {steals}; \
         imbalance assertion {assertions}",
        skew_time.as_secs_f64() * 1e3 / SKEW_ROUNDS as f64,
    ));

    // The perf trajectory: headline speedups plus the phase breakdown
    // of the instrumented 8-shard run (including per-shard fixpoint
    // time), written as BENCH_parallel.json at the repo root.
    let mut report = Report::new("parallel")
        .headline(
            "chain_speedup_8shards",
            speedup_at(&chain_means, 8).unwrap_or(1.0),
        )
        .headline(
            "revocation_speedup_8shards",
            speedup_at(&revoke_means, 8).unwrap_or(1.0),
        )
        .headline("obs_overhead_pct", overhead_pct)
        .headline("obs_noise_pct", noise_pct)
        .headline("imbalance_ratio", imbalance_ratio)
        .headline("steals", steals as f64)
        .phases_from(timed.obs_registry())
        .note(
            "workload",
            &format!("fanout chain + revocation, {PRINCIPALS} principals, shards swept 1/2/4/8"),
        )
        .note("cores", &cores.to_string())
        .note("skew_assertions", &assertions);
    if let Some(&(_, serial)) = chain_means.iter().find(|(s, _)| *s == 1) {
        report = report.headline("chain_ms_per_iter_serial", serial.as_secs_f64() * 1e3);
    }
    if let Err(e) = report.write_at_repo_root() {
        eprintln!("[obs] BENCH_parallel.json not written: {e}");
    }
}

criterion_group!(benches, sharded_quiescence);
criterion_main!(benches);
