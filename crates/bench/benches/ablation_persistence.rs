//! Experiment A9: the durable certificate store. Measures the three
//! ways a store can come to hold N verified certificates:
//!
//! * **cold_import** — fresh store, fresh cache: every signature pays a
//!   real RSA verification.
//! * **log_replay** — `CertStore::open` over a segment log with a fresh
//!   cache: no RSA at all (recorded outcomes are primed), but the
//!   canonical wire payloads are re-parsed and hashed.
//! * **warm_reopen** — `CertStore::open` sharing a cache that already
//!   holds every outcome (the in-process restart / shared-substrate
//!   case of SAFE-style deployments).
//!
//! Plus the end-to-end variant: a `System` reopening its persistent
//! stores and reconciling workspaces.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lbtrust::certstore::{shared_verify_cache, CertStore};
use lbtrust::System;
use lbtrust_bench::persist_line;
use std::path::PathBuf;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("bench-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench tmpdir");
    dir
}

fn cold_vs_replay_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_persistence");
    group.sample_size(10);
    for &nfacts in &[16usize, 64] {
        let dir = tmp_dir(&format!("store{nfacts}"));
        let mut sys = System::new().with_rsa_bits(1024);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let facts: String = (0..nfacts).map(|i| format!("good(p{i}). ")).collect();
        let certs = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        let verifier = sys.key_verifier();

        // Write the segment log once.
        let log_path = dir.join("store.certlog");
        {
            let mut store = CertStore::open(&log_path, shared_verify_cache()).unwrap();
            for cert in &certs {
                store.insert(cert.clone(), &verifier).unwrap();
            }
            store.sync().unwrap();
        }

        group.bench_with_input(BenchmarkId::new("cold_import", nfacts), &nfacts, |b, _| {
            b.iter(|| {
                // Fresh store + fresh cache: every signature verified.
                let mut store = CertStore::with_cache(shared_verify_cache());
                for cert in &certs {
                    store.insert(cert.clone(), &verifier).unwrap();
                }
                store.len()
            })
        });

        group.bench_with_input(BenchmarkId::new("log_replay", nfacts), &nfacts, |b, _| {
            b.iter(|| {
                // Fresh cache: replay parses + primes, no RSA.
                let store = CertStore::open(&log_path, shared_verify_cache()).unwrap();
                assert_eq!(store.active_len(), nfacts);
                store.len()
            })
        });

        let warm = shared_verify_cache();
        let _ = CertStore::open(&log_path, warm.clone()).unwrap();
        group.bench_with_input(BenchmarkId::new("warm_reopen", nfacts), &nfacts, |b, _| {
            b.iter(|| {
                let store = CertStore::open(&log_path, warm.clone()).unwrap();
                assert_eq!(store.active_len(), nfacts);
                store.len()
            })
        });

        // Lifecycle observability: the StoreStats counters the
        // segmented-log refactor added, reported into the same summary
        // artifact the shim writes.
        let store = CertStore::open(&log_path, warm.clone()).unwrap();
        let stats = store.stats();
        persist_line(&format!(
            "persistence-stats n={nfacts:<3} segments={} live={}B dead={}B replayed={} from_ckpt={} (see ablation_compaction for the compacted shape)",
            stats.segments, stats.live_bytes, stats.dead_bytes, stats.replayed,
            stats.replayed_from_checkpoint,
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

fn system_reopen(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_persistence_system");
    group.sample_size(10);
    let nfacts = 16usize;
    let dir = tmp_dir("system");

    // First life: build the logs.
    {
        let mut sys = System::new().persist_at(&dir).unwrap().with_rsa_bits(512);
        let alice = sys.add_principal("alice", "n1").unwrap();
        let bob = sys.add_principal("bob", "n2").unwrap();
        sys.workspace_mut(bob)
            .unwrap()
            .load(
                "policy",
                "access(P,f,read) <- says(alice,me,[| good(P) |]).",
            )
            .unwrap();
        let facts: String = (0..nfacts).map(|i| format!("good(p{i}). ")).collect();
        let certs = sys.issue_certificates(alice, &facts, &[], None).unwrap();
        sys.import_certificates(bob, certs).unwrap();
        sys.run_to_quiescence(8).unwrap();
    }

    group.bench_with_input(
        BenchmarkId::new("reopen_and_reconcile", nfacts),
        &nfacts,
        |b, _| {
            b.iter(|| {
                // Second life: keygen + replay + workspace reconciliation.
                let mut sys = System::new().persist_at(&dir).unwrap().with_rsa_bits(512);
                sys.add_principal("alice", "n1").unwrap();
                let bob = sys.add_principal("bob", "n2").unwrap();
                sys.workspace_mut(bob)
                    .unwrap()
                    .load(
                        "policy",
                        "access(P,f,read) <- says(alice,me,[| good(P) |]).",
                    )
                    .unwrap();
                sys.run_to_quiescence(8).unwrap();
                let replayed = sys.stats().certs_replayed;
                assert_eq!(replayed, nfacts);
                replayed
            })
        },
    );
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, cold_vs_replay_vs_warm, system_reopen);
criterion_main!(benches);
