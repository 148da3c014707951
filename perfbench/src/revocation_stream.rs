//! `revocation_stream`: reads and writes mixed over a fixed-size state.
//!
//! A hub and eight receivers on RSA-1024 keys. Every receiver imports a
//! 512-certificate pool into a durable store (group commit under
//! `SyncPolicy::Batched`), over a seeded network losing 5% of frames,
//! with the in-tree revocation gossip program loaded. Each wave is one
//! update: the hub revokes three pool certificates and issues one fresh
//! certificate that every receiver imports, then the system quiesces.
//! Sixty-four `authorize` reads follow, over skewed subjects and
//! receivers. The authz read path, certstore revoke/DRed/group commit
//! and gossip do most of the work.

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Read, Workload};
use lbtrust::certstore::{CertDigest, CertStatus};
use lbtrust::net::NetworkConfig;
use lbtrust::{Principal, SyncPolicy, SysError, System};
use std::error::Error;
use std::path::Path;

const RECEIVERS: usize = 8;
const POOL: usize = 512;
const WAVES: usize = 10;
const REVOKES_PER_WAVE: usize = 3;
const READS_PER_WAVE: usize = 64;
const DROP_PROB: f64 = 0.05;
const POLICY: &str = "access(P,f,read) <- says(hub,me,[| good(P) |]).";

/// One read: a receiver index and a subject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Subject {
    /// Pool certificate `p<i>` (denied once revoked).
    Pool(usize),
    /// The certificate issued fresh in wave `w` (always granted).
    Fresh(usize),
}

/// Everything the seed decides: which pool certificates each wave
/// revokes and what each wave reads.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    revocations: Vec<[usize; REVOKES_PER_WAVE]>,
    reads: Vec<Vec<(usize, Subject)>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 1);
        let mut order: Vec<usize> = (0..POOL).collect();
        rng.shuffle(&mut order);
        let revocations = order
            .chunks(REVOKES_PER_WAVE)
            .take(WAVES)
            .map(|c| c.try_into().expect("full chunk"))
            .collect();
        // Hot subjects: a seeded ranking of the pool, read with a
        // power-law skew, mixed with the newest fresh certificates.
        let mut hot: Vec<usize> = (0..POOL).collect();
        rng.shuffle(&mut hot);
        let reads = (0..WAVES)
            .map(|w| {
                (0..READS_PER_WAVE)
                    .map(|_| {
                        let receiver = rng.skewed(RECEIVERS);
                        let subject = if rng.below(8) == 0 {
                            Subject::Fresh(w - rng.skewed(w + 1))
                        } else {
                            Subject::Pool(hot[rng.skewed(POOL)])
                        };
                        (receiver, subject)
                    })
                    .collect()
            })
            .collect();
        Inputs { revocations, reads }
    }
}

pub struct RevocationStream {
    sys: System,
    hub: Principal,
    receivers: Vec<Principal>,
    pool: Vec<CertDigest>,
    fresh: Vec<CertDigest>,
    revoked: Vec<bool>,
    inputs: Inputs,
}

impl Workload for RevocationStream {
    type Inputs = Inputs;
    const UPDATES: usize = WAVES;
    const UPDATE_TAIL_PCT: f64 = 75.0;
    const AUTHZ_TAIL_PCT: f64 = 99.0;
    const READS_PER_UPDATE: usize = READS_PER_WAVE;
    const REVOCATIONS: usize = WAVES * REVOKES_PER_WAVE;

    fn inputs(seed: u64) -> Inputs {
        Inputs::new(seed)
    }

    fn setup(seed: u64, timing: bool, dir: &Path) -> Result<Self, Box<dyn Error>> {
        let inputs = Inputs::new(seed);
        let net = NetworkConfig {
            drop_prob: DROP_PROB,
            ..NetworkConfig::default()
        };
        let gossip = lbtrust_sendlog::rev_gossip_program()?;
        let mut sys = System::with_network(net, seed)
            .with_phase_timing(timing)
            .with_sync_policy(SyncPolicy::Batched)
            .persist_at(dir)?
            .with_gossip(&gossip)?;
        let hub = sys.add_principal("hub", "n0")?;
        let mut receivers = Vec::with_capacity(RECEIVERS);
        for i in 0..RECEIVERS {
            let r = sys.add_principal(&format!("r{i}"), &format!("m{i}"))?;
            sys.load_program(r, "policy", POLICY)?;
            receivers.push(r);
        }
        let facts: String = (0..POOL).map(|i| format!("good(p{i}). ")).collect();
        let certs = sys.issue_certificates(hub, &facts, &[], None)?;
        let pool = certs.iter().map(|c| c.digest()).collect();
        for &r in &receivers {
            sys.import_certificates(r, certs.clone())?;
        }
        sys.run_to_quiescence(crate::trace::MAX_STEPS)?;
        Ok(RevocationStream {
            sys,
            hub,
            receivers,
            pool,
            fresh: Vec::with_capacity(WAVES),
            revoked: vec![false; POOL],
            inputs,
        })
    }

    fn system(&mut self) -> &mut System {
        &mut self.sys
    }

    fn submit(&mut self, wave: usize, tracer: &mut Tracer) -> Result<(), SysError> {
        for &i in &self.inputs.revocations[wave] {
            let digest = self.pool[i];
            tracer.call("revoke_certificate", || {
                self.sys.revoke_certificate(self.hub, digest)
            })?;
            self.revoked[i] = true;
        }
        let cert = tracer.call("issue_certificate", || {
            self.sys
                .issue_certificate(self.hub, &format!("good(x{wave})."), &[], None)
        })?;
        self.fresh.push(cert.digest());
        for &r in &self.receivers {
            tracer.call("import_certificates", || {
                self.sys.import_certificates(r, vec![cert.clone()])
            })?;
        }
        Ok(())
    }

    fn check(&self, wave: usize) -> bool {
        let fresh = self.fresh[wave];
        self.receivers.iter().all(|&r| {
            let Ok(store) = self.sys.cert_store(r) else {
                return false;
            };
            store.status(&fresh) == Some(CertStatus::Active)
                && self.inputs.revocations[wave]
                    .iter()
                    .all(|&i| store.status(&self.pool[i]) == Some(CertStatus::Revoked))
        })
    }

    fn reads(&self, wave: usize) -> Vec<Read> {
        self.inputs.reads[wave]
            .iter()
            .map(|&(r, subject)| {
                let (name, expect) = match subject {
                    Subject::Pool(i) => (format!("p{i}"), !self.revoked[i]),
                    Subject::Fresh(w) => (format!("x{w}"), true),
                };
                Read {
                    who: self.receivers[r],
                    goal: format!("access({name},f,read)"),
                    expect,
                }
            })
            .collect()
    }
}
