//! `signed_says`: the paper's Figure 2 exchange under RSA-1024.
//!
//! alice says each queued item to bob through a Binder rule; bob's rule
//! records every payload he imports. Items arrive in constant batches
//! of 100, each followed by quiescence, so every batch pays one RSA
//! signature at alice and one verification at bob per item, plus the
//! wire and delivery work. A few `authorize` reads per batch ask bob
//! about items sent and not yet sent.

use crate::stats::Rng;
use crate::trace::Tracer;
use crate::{Read, Workload};
use lbtrust::datalog::Symbol;
use lbtrust::net::NetworkConfig;
use lbtrust::{Principal, SysError, System};
use std::error::Error;
use std::path::Path;

const BATCHES: usize = 8;
const BATCH: usize = 100;
const READS_PER_BATCH: usize = 8;

/// Everything the seed decides: the item ids of each batch and the
/// reads after it.
#[derive(Debug, PartialEq, Eq)]
pub struct Inputs {
    items: Vec<Vec<u64>>,
    /// `(batch, index)`: an item of a batch at or before the current
    /// one is expected granted, a later batch's item denied.
    reads: Vec<Vec<(usize, usize)>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed, 3);
        let items = (0..BATCHES)
            .map(|b| {
                // Distinct across batches: the batch number is the high
                // part of every id.
                (0..BATCH)
                    .map(|_| ((b as u64) << 40) | (rng.next_u64() >> 24))
                    .collect()
            })
            .collect();
        let reads = (0..BATCHES)
            .map(|b| {
                (0..READS_PER_BATCH)
                    .map(|_| {
                        let from = if b + 1 < BATCHES && rng.below(8) == 0 {
                            b + 1 + rng.below(BATCHES - b - 1)
                        } else {
                            b - rng.skewed(b + 1)
                        };
                        (from, rng.below(BATCH))
                    })
                    .collect()
            })
            .collect();
        Inputs { items, reads }
    }
}

pub struct SignedSays {
    sys: System,
    alice: Principal,
    bob: Principal,
    inputs: Inputs,
}

impl Workload for SignedSays {
    type Inputs = Inputs;
    const UPDATES: usize = BATCHES;
    const UPDATE_TAIL_PCT: f64 = 90.0;
    const AUTHZ_TAIL_PCT: f64 = 90.0;
    const READS_PER_UPDATE: usize = READS_PER_BATCH;
    const REVOCATIONS: usize = 0;

    fn inputs(seed: u64) -> Inputs {
        Inputs::new(seed)
    }

    fn setup(seed: u64, timing: bool, _dir: &Path) -> Result<Self, Box<dyn Error>> {
        let inputs = Inputs::new(seed);
        let mut sys =
            System::with_network(NetworkConfig::default(), seed).with_phase_timing(timing);
        let alice = sys.add_principal("alice", "host1")?;
        let bob = sys.add_principal("bob", "host2")?;
        sys.load_program(
            alice,
            "policy",
            "says(me,bob,[| payload(I). |]) <- item(I).",
        )?;
        sys.load_program(
            bob,
            "policy",
            "received(I) <- says(alice,me,[| payload(I) |]).",
        )?;
        sys.run_to_quiescence(crate::trace::MAX_STEPS)?;
        Ok(SignedSays {
            sys,
            alice,
            bob,
            inputs,
        })
    }

    fn system(&mut self) -> &mut System {
        &mut self.sys
    }

    fn submit(&mut self, batch: usize, tracer: &mut Tracer) -> Result<(), SysError> {
        let facts: String = self.inputs.items[batch]
            .iter()
            .map(|i| format!("item({i}). "))
            .collect();
        let ws = self.sys.workspace_mut(self.alice)?;
        tracer.call("assert_src", || ws.assert_src(&facts))?;
        Ok(())
    }

    fn check(&self, batch: usize) -> bool {
        let received = Symbol::intern("received");
        self.sys.stats().messages_rejected == 0
            && self
                .sys
                .workspace(self.bob)
                .is_ok_and(|ws| ws.db().count(received) == BATCH * (batch + 1))
    }

    fn reads(&self, batch: usize) -> Vec<Read> {
        self.inputs.reads[batch]
            .iter()
            .map(|&(b, i)| Read {
                who: self.bob,
                goal: format!("received({})", self.inputs.items[b][i]),
                expect: b <= batch,
            })
            .collect()
    }
}
