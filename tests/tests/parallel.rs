//! Parallel-engine equivalence: a `System` run with worker shards must
//! reach byte-for-byte the quiescent state of the serial engine — same
//! derived facts in every workspace, same message/revocation
//! statistics — because shards only ever own disjoint principals and
//! every cross-shard effect merges sequentially in registration order.

use lbtrust::{Principal, SyncPolicy, SysError, System, WsError};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Full materialized state of one workspace: predicate name -> sorted
/// tuple renderings. Canonical `Display` makes this a total snapshot.
fn workspace_snapshot(sys: &System, p: Principal) -> BTreeMap<String, Vec<String>> {
    let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (pred, relation) in sys.workspace(p).unwrap().db().iter() {
        let mut tuples: Vec<String> = relation
            .iter()
            .map(|t| {
                t.iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        tuples.sort();
        out.insert(pred.to_string(), tuples);
    }
    out
}

/// The statistics the engines must agree on (all order-independent).
fn stat_fingerprint(sys: &System) -> Vec<usize> {
    let s = sys.stats();
    vec![
        s.messages_sent,
        s.messages_accepted,
        s.messages_rejected,
        s.local_rollbacks,
        s.steps,
        s.certs_imported,
        s.revocations,
        s.retractions,
    ]
}

/// Builds and quiesces one system over the generated workload: a hub
/// fanning `says` facts out to every receiver, receivers deriving
/// access plus a local transitive closure seeded by the said facts,
/// and (optionally) a certificate fan-out with a mid-run revocation
/// broadcast — the delivery paths the shards split.
fn run_workload(
    shards: usize,
    receivers: usize,
    vouched: &[u8],
    edges: &[(u8, u8)],
    revoke: bool,
) -> System {
    let mut sys = System::new()
        .with_rsa_bits(512)
        .with_shards(shards)
        .with_sync_policy(if shards > 1 {
            SyncPolicy::Batched
        } else {
            SyncPolicy::Eager
        });
    let hub = sys.add_principal("hub", "n0").unwrap();
    let names: Vec<String> = (0..receivers).map(|i| format!("r{i}")).collect();
    let mut recs: Vec<Principal> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        recs.push(sys.add_principal(name, &format!("m{i}")).unwrap());
    }
    for name in &names {
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!(
                    "says(me,{name},[| good(X). |]) <- vouched(X).\n\
                     says(me,{name},[| ledge(X,Y). |]) <- vedge(X,Y).\n"
                ),
            )
            .unwrap();
    }
    for v in vouched {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("vouched(v{v})."))
            .unwrap();
    }
    for (a, b) in edges {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("vedge(e{a},e{b})."))
            .unwrap();
    }
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load(
                "policy",
                "access(P,f,read) <- says(hub,me,[| good(P) |]).\n\
                 edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).\n\
                 reach(X,Y) <- edge(X,Y).\n\
                 reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
            )
            .unwrap();
    }
    // Certificate fan-out: the hub certifies one fact per vouched
    // value; every receiver imports the bundle (exercising the shared
    // verification cache across shards), and the first certificate is
    // revoked mid-run so the broadcast crosses the delivery shards.
    let facts: String = vouched.iter().map(|v| format!("cgood(c{v}). ")).collect();
    let certs = sys.issue_certificates(hub, &facts, &[], None).unwrap();
    for &r in &recs {
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(32).unwrap();
    if revoke {
        if let Some(first) = certs.first() {
            sys.revoke_certificate(hub, first.digest()).unwrap();
        }
    }
    sys.run_to_quiescence(32).unwrap();
    sys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn parallel_engine_equals_serial_engine(
        receivers in 2usize..5,
        vouched in prop::collection::vec(0u8..12, 1..6),
        edges in prop::collection::vec((0u8..6, 0u8..6), 0..8),
        revoke in any::<bool>(),
    ) {
        let serial = run_workload(1, receivers, &vouched, &edges, revoke);
        let parallel = run_workload(4, receivers, &vouched, &edges, revoke);
        let all: Vec<Principal> = serial.principals().to_vec();
        prop_assert_eq!(parallel.principals(), all.as_slice());
        for &p in &all {
            prop_assert_eq!(
                workspace_snapshot(&serial, p),
                workspace_snapshot(&parallel, p),
                "workspace {} diverged between serial and sharded runs",
                p
            );
            prop_assert_eq!(
                serial.cert_store(p).unwrap().active(),
                parallel.cert_store(p).unwrap().active()
            );
        }
        prop_assert_eq!(stat_fingerprint(&serial), stat_fingerprint(&parallel));
    }
}

/// A deliberately skewed hub-and-spoke workload: the hub principal
/// carries roughly half of all rules (one `says` rule per spoke plus a
/// transitive closure over the generated edges) and issues every
/// certificate, while each spoke holds a single access rule. This is
/// the shape where a naive split leaves workers idle and work stealing
/// matters.
fn run_skewed(shards: usize, spokes: usize, edges: &[(u8, u8)]) -> System {
    let mut sys = System::new().with_rsa_bits(512).with_shards(shards);
    let hub = sys.add_principal("hub", "n0").unwrap();
    let mut recs: Vec<Principal> = Vec::new();
    for i in 0..spokes {
        recs.push(
            sys.add_principal(&format!("s{i}"), &format!("m{i}"))
                .unwrap(),
        );
    }
    // The hub's heavy local program: closure plus a per-spoke export.
    sys.workspace_mut(hub)
        .unwrap()
        .load(
            "policy",
            "reach(X,Y) <- edge(X,Y).\n\
             reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
        )
        .unwrap();
    for i in 0..spokes {
        sys.workspace_mut(hub)
            .unwrap()
            .load(
                "policy",
                &format!("says(me,s{i},[| good(X). |]) <- reach(h0,X)."),
            )
            .unwrap();
    }
    sys.workspace_mut(hub)
        .unwrap()
        .assert_src("edge(h0,h1).")
        .unwrap();
    for (a, b) in edges {
        sys.workspace_mut(hub)
            .unwrap()
            .assert_src(&format!("edge(h{a},h{b})."))
            .unwrap();
    }
    // Each spoke: one lightweight rule.
    for &r in &recs {
        sys.workspace_mut(r)
            .unwrap()
            .load("policy", "access(P,f,read) <- says(hub,me,[| good(P) |]).")
            .unwrap();
    }
    // All certificates originate at the hub too.
    let certs = sys
        .issue_certificates(hub, "cg(a). cg(b). cg(c).", &[], None)
        .unwrap();
    for &r in &recs {
        sys.import_certificates(r, certs.clone()).unwrap();
    }
    sys.run_to_quiescence(32).unwrap();
    sys.revoke_certificate(hub, certs[0].digest()).unwrap();
    sys.run_to_quiescence(32).unwrap();
    sys
}

fn assert_same_state(a: &System, b: &System, what: &str) {
    assert_eq!(a.principals(), b.principals());
    for &p in a.principals() {
        assert_eq!(
            workspace_snapshot(a, p),
            workspace_snapshot(b, p),
            "{what}: workspace {p} diverged"
        );
        assert_eq!(
            a.cert_store(p).unwrap().active(),
            b.cert_store(p).unwrap().active(),
            "{what}: cert store {p} diverged"
        );
    }
    assert_eq!(stat_fingerprint(a), stat_fingerprint(b), "{what}: stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial vs. stolen-pool equivalence on the skewed topology: the
    /// default engine (cost-aware LPT partition + work stealing) must
    /// reach byte-for-byte the serial state even when one principal
    /// dominates the step cost.
    #[test]
    fn stolen_pool_equals_serial_on_skewed_hub(
        spokes in 2usize..6,
        edges in prop::collection::vec((0u8..8, 0u8..8), 0..12),
    ) {
        let serial = run_skewed(1, spokes, &edges);
        let pooled = run_skewed(8, spokes, &edges);
        let all: Vec<Principal> = serial.principals().to_vec();
        prop_assert_eq!(pooled.principals(), all.as_slice());
        for &p in &all {
            prop_assert_eq!(
                workspace_snapshot(&serial, p),
                workspace_snapshot(&pooled, p),
                "workspace {} diverged under the stolen pool", p
            );
            prop_assert_eq!(
                serial.cert_store(p).unwrap().active(),
                pooled.cert_store(p).unwrap().active()
            );
        }
        prop_assert_eq!(stat_fingerprint(&serial), stat_fingerprint(&pooled));
    }
}

/// Every pool size reaches the serial quiescent state on the skewed
/// topology: the LPT partition changes with the worker count, and
/// stealing moves tasks between workers, but scheduling is
/// unobservable.
#[test]
fn shard_counts_are_equivalent_on_skewed_hub() {
    let edges = [(1, 2), (2, 3), (3, 4), (1, 5)];
    let serial = run_skewed(1, 4, &edges);
    for shards in [2, 4, 8] {
        let pooled = run_skewed(shards, 4, &edges);
        assert_same_state(&serial, &pooled, &format!("shards={shards}"));
    }
}

/// A hard evaluation error leaves the same state at every shard count.
/// The first-registered principal installs a self-feeding generator
/// (each stage's rule derives the fact that generates the next rule),
/// so its fixpoint fails with `MetaDivergence`; the principals after
/// it still have unevaluated facts. Every task of the phase runs and
/// merges before the error is returned, inline or pooled.
fn run_until_hard_error(shards: usize) -> System {
    let mut sys = System::new().with_rsa_bits(512).with_shards(shards);
    let bad = sys.add_principal("bad", "n0").unwrap();
    let mut rest: Vec<Principal> = Vec::new();
    for i in 0..5 {
        let p = sys
            .add_principal(&format!("w{i}"), &format!("m{i}"))
            .unwrap();
        sys.workspace_mut(p)
            .unwrap()
            .load(
                "policy",
                "reach(X,Y) <- edge(X,Y).\n\
                 reach(X,Z) <- reach(X,Y), edge(Y,Z).\n",
            )
            .unwrap();
        rest.push(p);
    }
    sys.run_to_quiescence(8).unwrap();
    sys.workspace_mut(bad)
        .unwrap()
        .load(
            "runaway",
            "c(0).\n\
             go().\n\
             active([| c(M) <- go(). |]) <- c(K), M = K + 1.\n",
        )
        .unwrap();
    for (i, &p) in rest.iter().enumerate() {
        sys.workspace_mut(p)
            .unwrap()
            .assert_src(&format!("edge(a,b{i}). edge(b{i},c{i})."))
            .unwrap();
    }
    let err = sys.run_to_quiescence(8);
    assert!(
        matches!(
            err,
            Err(SysError::Workspace(WsError::MetaDivergence { .. }))
        ),
        "shards={shards}: expected a meta-divergence error, got {err:?}"
    );
    sys
}

#[test]
fn hard_error_leaves_shard_invariant_state() {
    let serial = run_until_hard_error(1);
    let pooled = run_until_hard_error(4);
    assert_same_state(&serial, &pooled, "after the hard error");
}

/// Shard counts beyond the principal count (and absurd ones) still
/// converge to the serial state — clamping keeps the partition total.
#[test]
fn oversharded_system_still_quiesces() {
    let a = run_workload(1, 3, &[1, 2, 3], &[(0, 1), (1, 2)], true);
    for shards in [2, 3, 7, 64] {
        let b = run_workload(shards, 3, &[1, 2, 3], &[(0, 1), (1, 2)], true);
        for &p in a.principals() {
            assert_eq!(
                workspace_snapshot(&a, p),
                workspace_snapshot(&b, p),
                "shards={shards} diverged at {p}"
            );
        }
        assert_eq!(stat_fingerprint(&a), stat_fingerprint(&b));
    }
}
