//! Fault injection aimed at the sharded scheduler's seams: crashes
//! and message loss landing on nodes adjacent to a shard split must
//! behave exactly like they do under the single-heap scheduler —
//! deterministically where the observable is schedule-independent
//! (alive counts, zero-reply regimes, count conservation), and
//! byte-identically across shard counts everywhere.

use sociolearn_core::{GroupDynamics, Params};
use sociolearn_dist::{DistConfig, EventRuntime, FaultPlan, SchedulerKind, StalenessBound};

fn params() -> Params {
    Params::new(2, 0.65).unwrap()
}

/// The worker-thread count the identity fixtures run in addition to 1:
/// 2 by default; CI additionally sweeps the suite with
/// `SOCIOLEARN_TEST_THREADS=4`.
fn test_threads() -> usize {
    std::env::var("SOCIOLEARN_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// A fleet of 64 nodes sharded 4 ways splits at 16/32/48: crash the
/// node on each side of every split, plus the range ends.
fn boundary_crashes(round: u64) -> FaultPlan {
    let mut plan = FaultPlan::none();
    for node in [0usize, 15, 16, 31, 32, 47, 48, 63] {
        plan = plan.crash(node, round);
    }
    plan
}

/// Builds the quiesced 64-node boundary-crash fleet under `kind`.
fn boundary_fleet(kind: SchedulerKind, seed: u64) -> EventRuntime {
    EventRuntime::new(
        DistConfig::new(params(), 64).with_faults(boundary_crashes(10)),
        seed,
    )
    .with_scheduler(kind)
}

#[test]
fn boundary_crashes_kill_the_same_nodes_under_both_schedulers() {
    // The alive trajectory is fixed by the fault plan, not the
    // schedule: both schedulers must report the identical per-round
    // alive counts, and the crashed boundary nodes must leave the
    // committed counts on both.
    let mut single = boundary_fleet(SchedulerKind::SingleHeap, 5);
    let mut sharded = boundary_fleet(SchedulerKind::ShardedCalendar { shards: 4 }, 5);
    for t in 1..=25u64 {
        let a = single.tick(&[true, false]);
        let b = sharded.tick(&[true, false]);
        assert_eq!(a.alive, b.alive, "alive counts diverged at round {t}");
        assert_eq!(a.alive, if t < 10 { 64 } else { 56 });
        assert!(a.committed <= a.alive);
        assert!(b.committed <= b.alive);
    }
    assert_eq!(single.alive_count(), 56);
    assert_eq!(sharded.alive_count(), 56);
    assert!(single.counts().iter().sum::<u64>() <= 56);
    assert!(sharded.counts().iter().sum::<u64>() <= 56);
}

#[test]
fn boundary_crashes_are_identical_across_shard_counts() {
    // Crashes landing exactly at shard splits must not perturb the
    // shard-count invariance: runs at 1, 2, and 4 shards — crossed
    // with lookahead widths and worker-thread counts — stay
    // byte-identical through the crash round and after it. The
    // parallel threshold is pinned to 0 so `threads > 1` really
    // exercises the worker pool at this fleet size.
    let drive = |shards: usize, lookahead: u64, threads: usize| {
        let faults = boundary_crashes(8);
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 9)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(threads)
            .with_parallel_threshold(0);
        let mut trace = Vec::new();
        for t in 0..20u64 {
            let rm = net.tick(&[t % 2 == 0, t % 3 == 0]);
            trace.push((rm, net.distribution()));
        }
        (trace, EventRuntime::metrics(&net))
    };
    for lookahead in [1u64, 4] {
        let one = drive(1, lookahead, 1);
        for shards in [2usize, 4] {
            for threads in [1usize, test_threads()] {
                assert_eq!(
                    one,
                    drive(shards, lookahead, threads),
                    "K={lookahead} shards={shards} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn async_boundary_crashes_are_identical_across_shard_counts() {
    let drive = |shards: usize, lookahead: u64, threads: usize| {
        let faults = boundary_crashes(6);
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 11)
            .with_async_epochs(StalenessBound::Epochs(1))
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(threads)
            .with_parallel_threshold(0);
        let mut trace = Vec::new();
        for t in 0..24u64 {
            let rm = net.tick(&[t % 2 == 0, t % 3 == 0]);
            trace.push((rm, net.distribution()));
        }
        (trace, EventRuntime::metrics(&net))
    };
    for lookahead in [1u64, 2] {
        let one = drive(1, lookahead, 1);
        for shards in [2usize, 4] {
            for threads in [1usize, test_threads()] {
                assert_eq!(
                    one,
                    drive(shards, lookahead, threads),
                    "K={lookahead} shards={shards} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn async_boundary_crashes_stop_pacing_and_leave_counts() {
    // Async mode: crashed boundary nodes stop advancing their local
    // epochs while interior survivors keep the fleet moving — same
    // qualitative contract the single heap promises.
    let faults = boundary_crashes(5);
    let mut single =
        EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults.clone()), 7)
            .with_async_epochs(StalenessBound::Unbounded);
    let mut sharded = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 7)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..20 {
        single.tick(&[true, true]);
        sharded.tick(&[true, true]);
    }
    for net in [&single, &sharded] {
        assert_eq!(net.alive_count(), 56);
        assert!(net.counts().iter().sum::<u64>() <= 56);
        // Boundary nodes 16 and 32 died at round 5; interior node 20
        // kept its loop running.
        assert!(net.local_epoch(16) < net.local_epoch(20));
        assert!(net.local_epoch(32) < net.local_epoch(20));
    }
}

#[test]
fn total_loss_starves_replies_under_the_sharded_scheduler() {
    // Message loss is decided at the sending node's stream, so a
    // p = 1 plan must produce exactly zero replies on any scheduler
    // and shard count — every node lives off explorations/fallbacks.
    for shards in [1usize, 2, 4] {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards });
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        let m = EventRuntime::metrics(&net);
        assert_eq!(m.replies_received, 0, "{shards} shards leaked a reply");
        assert!(m.fallbacks > 0);
    }
}

#[test]
fn async_total_loss_starves_replies_under_the_sharded_scheduler() {
    let faults = FaultPlan::with_drop_prob(1.0).unwrap();
    let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..20 {
        net.tick(&[true, true]);
    }
    let m = EventRuntime::metrics(&net);
    assert_eq!(m.replies_received, 0);
    assert!(m.fallbacks > 0);
}

#[test]
fn loss_and_boundary_crashes_keep_sharded_learning_alive() {
    // The compound scenario ISSUE names: loss plus crashes at shard
    // boundaries. Learning must survive (share far above the 1/m
    // floor) and per-round invariants must hold throughout, on both
    // schedulers, with a starved queue bound for extra backpressure.
    for (kind, lookahead) in [
        (SchedulerKind::SingleHeap, 1u64),
        (SchedulerKind::ShardedCalendar { shards: 4 }, 1),
        (SchedulerKind::ShardedCalendar { shards: 4 }, 4),
    ] {
        let faults = {
            let mut plan = FaultPlan::with_drop_prob(0.3).unwrap();
            for node in [15usize, 16, 31, 32, 47, 48] {
                plan = plan.crash(node, 40);
            }
            plan
        };
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 3)
            .with_queue_bound(2)
            .with_scheduler(kind)
            .with_lookahead(lookahead)
            .with_threads(test_threads())
            .with_parallel_threshold(0);
        for _ in 0..120 {
            let rm = net.tick(&[true, false]);
            assert!(rm.committed <= rm.alive);
            assert!(rm.replies_received <= rm.queries_sent);
        }
        assert!(net.max_queue_depth() <= 2);
        assert!(
            net.distribution()[0] > 0.6,
            "{kind}: share {} under loss + boundary crashes",
            net.distribution()[0]
        );
    }
}

#[test]
fn sharded_message_bound_holds_per_epoch() {
    // The protocol's per-epoch message bound (≤ 2 · retries · N) is a
    // scheduler-independent contract; check it on the sharded engine
    // under loss, where retries are maximally exercised.
    let faults = FaultPlan::with_drop_prob(0.5).unwrap();
    let mut net = EventRuntime::new(DistConfig::new(params(), 48).with_faults(faults), 13)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
    for _ in 0..40 {
        let rm = net.tick(&[true, false]);
        assert!(rm.queries_sent <= 2 * sociolearn_dist::MAX_QUERY_RETRIES as u64 * 48);
    }
}

/// Every fourth node leaves at round `8 + (i/4) % 12` and rejoins
/// three rounds later — late enough that retries under loss have
/// spread the fleet's wake phases across the epoch period, so some
/// leavers still have mail queued at the boundary.
fn staggered_leave_round(node: usize) -> Option<u64> {
    node.is_multiple_of(4).then(|| 8 + (node as u64 / 4) % 12)
}

fn staggered_leaves(n: usize) -> FaultPlan {
    let mut plan = FaultPlan::with_drop_prob(0.3).unwrap();
    for node in 0..n {
        if let Some(round) = staggered_leave_round(node) {
            plan = plan.leave(node, round).rejoin(node, round + 3);
        }
    }
    plan
}

fn present_in(node: usize, round: u64) -> bool {
    staggered_leave_round(node).is_none_or(|leave| !(leave..leave + 3).contains(&round))
}

#[test]
fn mail_in_flight_to_a_departing_node_is_consumed_one_for_one() {
    // In async mode a message accepted in a tick's last time step is
    // delivered in the next tick. When its addressee leaves at that
    // tick boundary the delivery still fires, unread, and takes the
    // message off the inbox: a departed node's depth is back to 0
    // after its first absent tick, the same on every scheduler, and
    // the counters agree across shard and thread counts.
    const N: usize = 960;
    const TICKS: u64 = 24;
    let drive = |kind: SchedulerKind, threads: usize| {
        let mut net = EventRuntime::new(
            DistConfig::new(params(), N).with_faults(staggered_leaves(N)),
            29,
        )
        .with_async_epochs(StalenessBound::Epochs(1))
        .with_queue_bound(2)
        .with_scheduler(kind)
        .with_threads(threads)
        .with_parallel_threshold(0);
        let mut trace = Vec::new();
        let mut left_with_mail = 0;
        for t in 1..=TICKS {
            // Mail still queued at a node about to leave: the case
            // under test.
            left_with_mail += (0..N)
                .filter(|&i| present_in(i, t - 1) && !present_in(i, t) && net.inbox_depth(i) > 0)
                .count();
            let rm = net.tick(&[t % 2 == 0, t % 3 == 0]);
            for i in 0..N {
                assert!(net.inbox_depth(i) <= 2, "{kind}: node {i} over the bound");
                if !present_in(i, t) {
                    assert_eq!(
                        net.inbox_depth(i),
                        0,
                        "{kind}: absent node {i} kept mail at tick {t}"
                    );
                }
            }
            trace.push((rm.queue_drops, net.counts().to_vec()));
        }
        (trace, left_with_mail)
    };
    let (_, single_left) = drive(SchedulerKind::SingleHeap, 1);
    assert!(
        single_left > 0,
        "no node left with mail queued (single heap)"
    );
    let (base, left) = drive(SchedulerKind::ShardedCalendar { shards: 1 }, 1);
    assert!(left > 0, "no node left with mail queued (sharded)");
    assert!(
        base.iter().any(|(drops, _)| *drops > 0),
        "queue bound 2 never overflowed"
    );
    for shards in [3usize, 8] {
        for threads in [1usize, test_threads()] {
            let kind = SchedulerKind::ShardedCalendar { shards };
            assert_eq!(
                drive(kind, threads),
                (base.clone(), left),
                "{kind} threads={threads}"
            );
        }
    }
}
