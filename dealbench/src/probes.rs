//! Unit-cost probes for the traced run's attribution, each timed from
//! outside through public APIs: a no-op contract call, path-signature sign
//! and verify at path lengths 1–9, a CBC log append and status
//! certificate, and one `ObservationHub::ctx` on a caught-up hub.

use std::any::Any;
use std::hint::black_box;
use std::time::Instant;

use xchain_bft::log::CbcLog;
use xchain_deals::phases::Phase;
use xchain_deals::strategy::ObservationHub;
use xchain_deals::{Deal, DealPlan, DealSpec, Protocol};
use xchain_sim::contract::Contract;
use xchain_sim::crypto::{Hash, KeyDirectory, KeyPair, PathSignature};
use xchain_sim::ids::{DealId, Owner, PartyId};
use xchain_sim::time::{Duration, Time};
use xchain_sim::world::World;

use crate::stats;

/// Timed batches per probe; the median batch is kept.
const BATCHES: usize = 7;
/// The longest forwarding path a 9-party deal produces.
const MAX_PATH: u32 = 9;

/// Unit costs in nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub call_ns: f64,
    pub verify_ns: f64,
    pub sign_ns: f64,
    pub append_ns: f64,
    pub certificate_ns: f64,
    pub ctx_caught_up_ns: f64,
}

/// A contract whose calls do nothing: what the ledger costs per call.
struct Noop;

impl Contract for Noop {
    fn type_name(&self) -> &'static str {
        "noop"
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Median over [`BATCHES`] of the cost of one of `ops` operations, where
/// `batch` performs `ops` of them.
fn per_op_ns(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let times = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    stats::median(times)
}

impl Probes {
    /// Runs every probe. `f` is the workload's CBC fault parameter,
    /// `parties` its typical deal size, and `spec` a deal whose final world
    /// feeds the caught-up `ctx` probe.
    pub fn measure(f: usize, parties: u32, spec: &DealSpec) -> Result<Probes, String> {
        Ok(Probes {
            call_ns: noop_call_ns()?,
            verify_ns: verify_ns(),
            sign_ns: sign_ns(),
            append_ns: append_ns(f, parties)?,
            certificate_ns: certificate_ns(f, parties)?,
            ctx_caught_up_ns: ctx_caught_up_ns(spec)?,
        })
    }
}

fn noop_call_ns() -> Result<f64, String> {
    const CALLS: u64 = 20_000;
    let mut world = World::new(1);
    let chain = world.add_chain("probe", Duration(1));
    let caller = Owner::Party(world.add_party());
    let id = world
        .chain_mut(chain)
        .map_err(|e| e.to_string())?
        .install(Noop);
    let mut failed = false;
    let ns = per_op_ns(CALLS, || {
        for _ in 0..CALLS {
            failed |= world
                .call(chain, caller, id, |c: &mut Noop, _| {
                    Ok(black_box(c).type_name())
                })
                .is_err();
        }
    });
    if failed {
        return Err("the no-op contract call failed".into());
    }
    Ok(ns)
}

fn keys() -> (Vec<KeyPair>, KeyDirectory) {
    let pairs: Vec<KeyPair> = (0..MAX_PATH)
        .map(|i| KeyPair::derive(PartyId(i), 7))
        .collect();
    let mut dir = KeyDirectory::new();
    for (i, kp) in (0..MAX_PATH).zip(&pairs) {
        dir.register(PartyId(i), kp);
    }
    (pairs, dir)
}

const MESSAGE: [u64; 3] = [1, 2, 3];

/// One path grown from length 1 to 9: a direct vote, then eight forwards.
fn sign_ns() -> f64 {
    let (pairs, _) = keys();
    per_op_ns(u64::from(MAX_PATH) * 100, || {
        for _ in 0..100 {
            let mut path = PathSignature::direct(PartyId(0), &pairs[0], &MESSAGE);
            for i in 1..MAX_PATH {
                path = path.forwarded_by(PartyId(i), &pairs[i as usize], &MESSAGE);
            }
            black_box(&path);
        }
    })
}

/// Every signature of the paths of length 1 to 9 (45 signatures).
fn verify_ns() -> f64 {
    let (pairs, dir) = keys();
    let mut paths = vec![PathSignature::direct(PartyId(0), &pairs[0], &MESSAGE)];
    for i in 1..MAX_PATH {
        let next = paths[paths.len() - 1].forwarded_by(PartyId(i), &pairs[i as usize], &MESSAGE);
        paths.push(next);
    }
    let sigs: u64 = paths.iter().map(|p| p.len() as u64).sum();
    let mut valid = true;
    let ns = per_op_ns(sigs * 100, || {
        for _ in 0..100 {
            for path in &paths {
                for (_, sig) in &path.path {
                    valid &= dir.verify_words(black_box(sig), &MESSAGE);
                }
            }
        }
    });
    assert!(valid, "probe signatures verify");
    ns
}

/// A log at fault parameter `f` with one started deal over `parties`.
fn started_log(f: usize, parties: u32) -> Result<(CbcLog, Hash), String> {
    let mut log = CbcLog::new(f, 11);
    let plist: Vec<PartyId> = (0..parties).map(PartyId).collect();
    let (_, start) = log
        .start_deal(Time(0), PartyId(0), DealId(1), plist)
        .map_err(|e| e.to_string())?;
    Ok((log, start))
}

fn append_ns(f: usize, parties: u32) -> Result<f64, String> {
    const VOTES: u64 = 200;
    let (mut log, start) = started_log(f, parties)?;
    let mut failed = false;
    let ns = per_op_ns(VOTES, || {
        for i in 0..VOTES {
            let voter = PartyId((i % u64::from(parties)) as u32);
            failed |= log.vote_commit(Time(1), DealId(1), start, voter).is_err();
        }
    });
    if failed {
        return Err("a probe CBC vote was rejected".into());
    }
    Ok(ns)
}

fn certificate_ns(f: usize, parties: u32) -> Result<f64, String> {
    const CERTS: u64 = 200;
    let (mut log, start) = started_log(f, parties)?;
    for p in 0..parties {
        log.vote_commit(Time(1), DealId(1), start, PartyId(p))
            .map_err(|e| e.to_string())?;
    }
    let mut failed = false;
    let ns = per_op_ns(CERTS, || {
        for _ in 0..CERTS {
            failed |= black_box(log.status_certificate(Time(2), DealId(1), start)).is_err();
        }
    });
    if failed {
        return Err("a probe status certificate was refused".into());
    }
    Ok(ns)
}

fn ctx_caught_up_ns(spec: &DealSpec) -> Result<f64, String> {
    const CALLS: u64 = 2_000;
    let run = Deal::new(spec.clone())
        .run(Protocol::timelock())
        .map_err(|e| e.to_string())?;
    let plan = DealPlan::new(spec).map_err(|e| e.to_string())?;
    let mut hub = ObservationHub::new(&plan);
    for &p in &spec.parties {
        hub.ctx(&run.world, spec, p, Phase::Commit, None);
    }
    let party = spec.parties[0];
    Ok(per_op_ns(CALLS, || {
        for _ in 0..CALLS {
            let ctx = hub.ctx(&run.world, spec, party, Phase::Commit, None);
            black_box(ctx.view);
        }
    }))
}
