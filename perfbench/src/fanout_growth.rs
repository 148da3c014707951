//! `fanout_growth`: writes only, a constant delta over growing state.
//!
//! A hub and fifteen Plaintext receivers. Each round the hub asserts a
//! fresh 12-edge chain and says every edge to every receiver, which
//! folds it into a transitive closure: 78 new `reach` tuples per
//! receiver per round, while the closure built by earlier rounds keeps
//! growing. No signatures are made and no certificate is stored, so the
//! cost that grows is the quiescence step's Θ(state) work. A few
//! `authorize` reads per round probe the published snapshot.

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Read, Workload};
use lbtrust::datalog::Symbol;
use lbtrust::net::NetworkConfig;
use lbtrust::{AuthScheme, Principal, SysError, System};
use std::error::Error;
use std::path::Path;

const RECEIVERS: usize = 15;
const ROUNDS: usize = 16;
const CHAIN: usize = 12;
/// `reach` tuples one chain of `CHAIN` edges adds to a closure.
const REACH_PER_ROUND: usize = CHAIN * (CHAIN + 1) / 2;
const READS_PER_ROUND: usize = 8;
const POLICY: &str = "edge(X,Y) <- says(hub,me,[| ledge(X,Y) |]).\n\
                      reach(X,Y) <- edge(X,Y).\n\
                      reach(X,Z) <- reach(X,Y), edge(Y,Z).\n";

/// Everything the seed decides: the node names of each round's chain
/// and the reads after it.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    chains: Vec<Vec<u64>>,
    /// `(receiver, round, from, to)` positions along a chain. Seven in
    /// eight reads ask for a pair the closure holds (`from < to`), the
    /// rest for the reverse pair, which it must not hold.
    reads: Vec<Vec<(usize, usize, usize, usize)>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 2);
        let chains = (0..ROUNDS)
            .map(|_| (0..=CHAIN).map(|_| rng.next_u64() >> 16).collect())
            .collect();
        let reads = (0..ROUNDS)
            .map(|round| {
                (0..READS_PER_ROUND)
                    .map(|_| {
                        let receiver = rng.below(RECEIVERS);
                        let at = round - rng.skewed(round + 1);
                        let from = rng.below(CHAIN);
                        let to = from + 1 + rng.below(CHAIN - from);
                        if rng.below(8) == 0 {
                            (receiver, at, to, from)
                        } else {
                            (receiver, at, from, to)
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs { chains, reads }
    }

    fn node(&self, round: usize, k: usize) -> String {
        format!("n{:x}", self.chains[round][k])
    }
}

pub struct FanoutGrowth {
    sys: System,
    hub: Principal,
    receivers: Vec<Principal>,
    inputs: Inputs,
}

impl Workload for FanoutGrowth {
    type Inputs = Inputs;
    const UPDATES: usize = ROUNDS;
    const UPDATE_TAIL_PCT: f64 = 90.0;
    const AUTHZ_TAIL_PCT: f64 = 90.0;
    const READS_PER_UPDATE: usize = READS_PER_ROUND;
    const REVOCATIONS: usize = 0;

    fn inputs(seed: u64) -> Inputs {
        Inputs::new(seed)
    }

    fn setup(seed: u64, timing: bool, _dir: &Path) -> Result<Self, Box<dyn Error>> {
        let inputs = Inputs::new(seed);
        let mut sys = System::with_network(NetworkConfig::default(), seed)
            .with_phase_timing(timing)
            .with_rsa_bits(512);
        let hub = sys.add_principal("hub", "n0")?;
        sys.set_auth_scheme(hub, AuthScheme::Plaintext)?;
        let mut receivers = Vec::with_capacity(RECEIVERS);
        for i in 0..RECEIVERS {
            let r = sys.add_principal(&format!("r{i}"), &format!("m{i}"))?;
            sys.set_auth_scheme(r, AuthScheme::Plaintext)?;
            sys.load_program(r, "policy", POLICY)?;
            receivers.push(r);
        }
        let fanout: String = (0..RECEIVERS)
            .map(|i| format!("says(me,r{i},[| ledge(X,Y). |]) <- vedge(X,Y).\n"))
            .collect();
        sys.load_program(hub, "policy", &fanout)?;
        sys.run_to_quiescence(crate::trace::MAX_STEPS)?;
        Ok(FanoutGrowth {
            sys,
            hub,
            receivers,
            inputs,
        })
    }

    fn system(&mut self) -> &mut System {
        &mut self.sys
    }

    fn submit(&mut self, round: usize, tracer: &mut Tracer) -> Result<(), SysError> {
        let facts: String = (0..CHAIN)
            .map(|k| {
                format!(
                    "vedge({},{}). ",
                    self.inputs.node(round, k),
                    self.inputs.node(round, k + 1)
                )
            })
            .collect();
        let ws = self.sys.workspace_mut(self.hub)?;
        tracer.call("assert_src", || ws.assert_src(&facts))?;
        Ok(())
    }

    fn check(&self, round: usize) -> bool {
        let reach = Symbol::intern("reach");
        self.receivers.iter().all(|&r| {
            self.sys
                .workspace(r)
                .is_ok_and(|ws| ws.db().count(reach) == REACH_PER_ROUND * (round + 1))
        })
    }

    fn reads(&self, round: usize) -> Vec<Read> {
        self.inputs.reads[round]
            .iter()
            .map(|&(r, at, from, to)| Read {
                who: self.receivers[r],
                goal: format!(
                    "reach({},{})",
                    self.inputs.node(at, from),
                    self.inputs.node(at, to)
                ),
                expect: from < to,
            })
            .collect()
    }
}
