//! Golden-trajectory referee: pins a hash of the complete observable
//! trajectory — every tick's `RoundMetrics`, the per-option counts
//! after every tick, and the final cumulative `Metrics` — for a fixed
//! set of scenarios covering the default one-lane engine and sharded,
//! lookahead layouts in both execution modes.
//!
//! The byte-identity proptests compare shard counts and thread counts
//! *against each other* within one build; this file compares a build
//! against the trajectories an earlier build produced. An engine
//! change that claims to be a pure refactor or a pure speed-up must
//! leave every constant below untouched. A change that deliberately
//! alters a trajectory must say so and re-record the constant it
//! moved (run with `--nocapture` to print the observed hashes).

use sociolearn_core::Params;
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, RoundMetrics, SchedulerKind, StalenessBound,
};

/// FNV-1a, 64-bit: a stable hash (unlike `DefaultHasher`, whose
/// algorithm may change between toolchains).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_debug(&mut self, value: &impl std::fmt::Debug) {
        self.write(format!("{value:?}").as_bytes());
        self.write(b"\n");
    }
}

fn params() -> Params {
    Params::new(3, 0.6).unwrap()
}

/// A reward schedule with some structure but no trivial period.
fn rewards(t: u64) -> [bool; 3] {
    [t % 4 != 3, t.is_multiple_of(3), t % 5 == 1]
}

/// Runs `ticks` rounds and hashes the whole observable trajectory.
/// Returns the hash and the cumulative queue drops (so scenarios can
/// assert their backpressure path really fired).
fn trajectory_hash(mut net: EventRuntime, ticks: u64) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut drops = 0;
    for t in 0..ticks {
        let rm: RoundMetrics = net.tick(&rewards(t));
        drops += rm.queue_drops;
        h.write_debug(&rm);
        h.write_debug(&net.counts());
    }
    h.write_debug(&net.metrics());
    (h.0, drops)
}

fn check(name: &str, net: EventRuntime, ticks: u64, golden: u64) -> u64 {
    let (hash, drops) = trajectory_hash(net, ticks);
    println!("{name}: {hash:#018x} ({drops} queue drops)");
    assert_eq!(
        hash, golden,
        "{name}: trajectory hash {hash:#018x} differs from the recorded {golden:#018x}"
    );
    drops
}

fn lossy_crashing() -> FaultPlan {
    FaultPlan::with_drop_prob(0.2)
        .unwrap()
        .crash(17, 9)
        .crash(150, 20)
}

#[test]
fn sharded_quiesced_lookahead_trajectory_is_pinned() {
    let net = EventRuntime::new(
        DistConfig::new(params(), 300).with_faults(lossy_crashing()),
        47,
    )
    .with_scheduler(SchedulerKind::ShardedCalendar { shards: 8 })
    .with_queue_bound(2)
    .with_lookahead(4)
    .with_threads(2)
    // Exercise the worker-pool path even at this fleet size.
    .with_parallel_threshold(0);
    check("sharded(8) K=4 quiesced", net, 40, 0x780a_fd54_2b1e_f2b5);
}

#[test]
fn sharded_async_churn_trajectory_is_pinned() {
    let faults = FaultPlan::with_drop_prob(0.1)
        .unwrap()
        .rolling_restart(30, 4);
    let net = EventRuntime::new(DistConfig::new(params(), 300).with_faults(faults), 53)
        .with_async_epochs(StalenessBound::Epochs(2))
        .with_queue_bound(2)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 3 })
        .with_lookahead(2)
        .with_threads(2)
        .with_parallel_threshold(0);
    let drops = check("sharded(3) K=2 async churn", net, 40, 0x8a39_f565_593b_48f8);
    assert!(drops > 0, "queue bound 2 never overflowed");
}

#[test]
fn one_shard_quiesced_trajectory_is_pinned() {
    let net = EventRuntime::new(
        DistConfig::new(params(), 300).with_faults(lossy_crashing()),
        41,
    )
    .with_queue_bound(2);
    check("one-shard quiesced", net, 40, 0x1023_0fcf_dbd1_a9d3);
}

#[test]
fn one_shard_async_churn_trajectory_is_pinned() {
    let faults = FaultPlan::with_drop_prob(0.1)
        .unwrap()
        .rolling_restart(30, 4);
    let net = EventRuntime::new(DistConfig::new(params(), 300).with_faults(faults), 43)
        .with_async_epochs(StalenessBound::Epochs(1))
        .with_queue_bound(2);
    let drops = check("one-shard async churn", net, 40, 0x7396_3247_cfe2_9701);
    assert!(drops > 0, "queue bound 2 never overflowed");
}
