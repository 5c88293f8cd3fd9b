//! The event-driven runtime: the same O(1)-state-per-node protocol as
//! [`Runtime`](crate::Runtime), executed by a seeded discrete-event
//! scheduler instead of a global round barrier.
//!
//! Every message (query out, reply back) is a scheduled event with its
//! own latency jitter, and every node owns a **bounded inbox**: a
//! depth counter, with each accepted message riding in its own
//! `Deliver` event. A message arriving at a full queue is dropped
//! (backpressure), and a query that never produces a reply — lost on
//! the link, addressed to a crashed, departed, or sat-out peer, or
//! squeezed out of a queue — is recovered by a timeout-driven retry
//! against a fresh peer, up to [`MAX_QUERY_RETRIES`] attempts before
//! the uniform fallback. This is the transport behavior a
//! round-synchronous barrier hides, and the bridge toward fully
//! asynchronous bounded-memory collaborative learning
//! (Su–Zubeldia–Lynch, arXiv:1802.08159).
//!
//! Membership churn (scripted joins, leaves, and rejoins from the
//! [`crate::FaultPlan`]) runs through the same machinery: an absent
//! node receives nothing and answers nothing, and a (re)joining node
//! enters *bootstrapping* — no commitment, no history — and adopts
//! through the ordinary query/reply protocol. There is no state-
//! transfer message type; [`crate::NODE_STATE_BYTES`] of state is
//! cheaper to relearn than to ship. In fully-async mode a wake-up
//! carries its node's *incarnation* so a wake scheduled before a leave
//! cannot fire into the node's next life after a rejoin.
//!
//! In the default **epoch-quiesced** mode, each call to
//! [`EventRuntime::tick`] is one *epoch*: alive nodes wake at jittered
//! virtual times, exchange messages through the scheduler, and the
//! epoch completes when every event has been delivered and every alive
//! node has resolved its stage-1 sample and stage-2 adoption against
//! the epoch's fresh reward signals. Peers answer queries from the
//! *previous* epoch's commitments, so on a clean network the per-epoch
//! law is the same sample-then-adopt process as the round-synchronous
//! runtime — the cross-crate equivalence tests check it agrees in law
//! with `sociolearn_core::FinitePopulation`.
//!
//! In **fully-async** mode ([`EventRuntime::with_async_epochs`]) the
//! quiescence barrier is removed: each node runs its own epoch loop on
//! a local cadence of [`ASYNC_EPOCH_PERIOD`] scheduler ticks, advances
//! its local epoch counter the moment its reply (or timeout fallback)
//! lands, and immediately schedules its next wake-up — nodes stuck in
//! retry storms drift behind while fast nodes race ahead, so epochs
//! overlap across the fleet. Queries carry the sender's local epoch; a
//! responder whose own information is more than the configured
//! [`StalenessBound`] behind the querier withholds its reply (counted
//! in [`RoundMetrics::stale_replies`]) and the querier's timeout
//! drives a retry. [`EventRuntime::tick`] then means "advance the
//! scheduler through one epoch-period window of virtual time": a
//! healthy node completes about one local epoch per tick, a node
//! mired in retry timeouts completes less than one and genuinely
//! falls behind the fleet, and in-flight messages survive from one
//! tick into the next — exactly the no-quiescence regime under study
//! (Su–Zubeldia–Lynch, arXiv:1802.08159).
//!
//! Message cost per epoch is bounded exactly as in the round-
//! synchronous runtime: at most [`MAX_QUERY_RETRIES`] queries and one
//! reply per query per node per epoch, i.e. `≤ 2 · MAX_QUERY_RETRIES
//! · N` messages per epoch (in async mode, per *local* epoch).
//! Protocol state stays O(1) per node in both modes: the current
//! commitment, plus — in async mode only — one history slot (the
//! previous commitment), kept so a node can answer queries about the
//! epoch a slower or faster peer is still working on.

use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use sociolearn_core::GroupDynamics;

use crate::calendar::{ExecTuning, SchedulerKind, ShardedEngine, MAX_LOOKAHEAD};
use crate::cast::index_u32;
use crate::{
    DistConfig, ExecutionModel, MembershipTracker, Metrics, NodeState, ProtocolRuntime,
    RoundMetrics, Transition, MAX_QUERY_RETRIES, NO_CHOICE,
};

/// Default capacity of each node's inbox. Messages arriving at a full
/// inbox are dropped and counted in
/// [`RoundMetrics::queue_drops`].
pub const DEFAULT_QUEUE_BOUND: usize = 32;

/// Upper bound on the per-message latency jitter, in scheduler ticks;
/// each delivery draws uniformly from `1..=MAX_MESSAGE_LATENCY`.
pub const MAX_MESSAGE_LATENCY: u64 = 8;

/// Ticks between a message landing in an inbox and the owner
/// processing it — the delay of its `Deliver` event.
pub(crate) const DELIVER_DELAY: u64 = 1;

/// Window over which alive nodes' wake-ups are jittered at the start
/// of an epoch.
pub(crate) const WAKE_SPREAD: u64 = 32;

/// How long a querier waits for a reply before retrying. Strictly
/// larger than the worst-case round trip
/// (`2 · MAX_MESSAGE_LATENCY + 2 · DELIVER_DELAY`), so a reply that
/// is actually in flight always wins over its timeout.
pub(crate) const RETRY_TIMEOUT: u64 = 2 * MAX_MESSAGE_LATENCY + 2 * DELIVER_DELAY + 1;

/// Nominal scheduler ticks between consecutive local-epoch wake-ups of
/// one node in fully-async mode. Long enough that an epoch resolved
/// within a few retry timeouts finishes inside the period — so a
/// healthy fleet keeps a loose common cadence and sees roughly one
/// local epoch per tick — while an epoch that burns through a longer
/// timeout chain (likely under message loss, crashes, or tight
/// staleness bounds) overruns it and the node drifts behind its
/// peers: that drift is the epoch overlap the mode exists to study.
pub const ASYNC_EPOCH_PERIOD: u64 = 4 * RETRY_TIMEOUT;

/// Jitter added to each async wake-up so node loops never phase-lock.
pub(crate) const ASYNC_WAKE_JITTER: u64 = 4;

/// How far behind the querier a responder's information may be before
/// the responder withholds its reply in fully-async mode
/// ([`EventRuntime::with_async_epochs`]).
///
/// Staleness of a reply is measured in local epochs: a querier working
/// on its local epoch `e` would, under synchronized execution, copy
/// information committed at epoch `e - 1`; a responder whose last
/// completed epoch is `r` is `(e - 1) - r` epochs staler than that
/// (clamped at zero — fresher information is never penalized). A bound
/// of `Epochs(0)` therefore accepts only peers at least as current as
/// a synchronized one, which is why bound-0 async execution agrees in
/// law with the epoch-quiesced scheduler, while `Unbounded` consumes
/// every reply and never counts [`RoundMetrics::stale_replies`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StalenessBound {
    /// Consume every reply, however stale the responder's information.
    Unbounded,
    /// Withhold replies whose information is more than this many local
    /// epochs behind what a synchronized peer would hold.
    Epochs(u64),
}

impl StalenessBound {
    /// Whether information `stale` epochs behind the synchronized
    /// reference is still consumable under this bound.
    pub fn allows(self, stale: u64) -> bool {
        match self {
            StalenessBound::Unbounded => true,
            StalenessBound::Epochs(k) => stale <= k,
        }
    }
}

impl std::fmt::Display for StalenessBound {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StalenessBound::Unbounded => f.write_str("unbounded"),
            StalenessBound::Epochs(k) => write!(f, "{k}"),
        }
    }
}

/// Which epoch discipline the scheduler runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// Every epoch runs to quiescence before the next begins.
    Quiesced,
    /// Overlapping local epochs filtered by a staleness bound.
    Async(StalenessBound),
}

/// A scheduler event, shared by the single-heap scheduler and the
/// sharded calendar engine. Node ids are `u32` to keep the heap
/// entries small (the fleet bound of `u32::MAX` nodes is far beyond
/// anything the simulations run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// An alive node starts stage 1 of the protocol. `inc` is the
    /// node's incarnation at schedule time: async mode bumps a node's
    /// incarnation when it leaves, so a wake-up scheduled before the
    /// leave cannot fire into the rejoined node's next life (wake-ups
    /// are the only event kind whose horizon outlives an absence —
    /// everything else expires within one tick window). Quiesced mode
    /// clears the schedule every tick, so the tag is inert there.
    Wake { node: u32, inc: u32 },
    /// A query from `from` reaches `to`'s inbox (link loss already
    /// resolved at send time). `epoch` is the sender's local epoch at
    /// send time — the staleness reference in async mode, ignored in
    /// quiesced mode.
    QueryArrive { from: u32, to: u32, epoch: u64 },
    /// A reply carrying `option` reaches `node`'s inbox.
    ReplyArrive { node: u32, option: u32 },
    /// `node` processes the query from `from` that its inbox accepted
    /// one [`DELIVER_DELAY`] earlier.
    ///
    /// The message rides in the event instead of a per-node FIFO: a
    /// node schedules its own deliveries at `now + DELIVER_DELAY` with
    /// increasing sequence numbers, so both the heap's `(at, seq)`
    /// order and the calendar's `(at, src, seq)` order pop a node's
    /// k-th delivery exactly when a FIFO would pop its k-th message.
    DeliverQuery { node: u32, from: u32, epoch: u64 },
    /// `node` processes a reply carrying `option` (see
    /// [`Event::DeliverQuery`]).
    DeliverReply { node: u32, option: u32 },
    /// `node`'s query `attempt` has waited long enough; retry or fall
    /// back unless a reply already resolved it. `epoch` pins the
    /// timeout to the local epoch that issued the attempt, so a stale
    /// timeout surviving into a later epoch (possible in async mode,
    /// where the heap is never cleared) cannot fire spuriously.
    Timeout { node: u32, attempt: u32, epoch: u64 },
}

// A message travels inside its scheduler event; carrying one must not
// widen the heap entry or the calendar entry.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// A heap entry: events fire in `(at, seq)` order, so simultaneous
/// events resolve in the deterministic order they were scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Scheduled {
    at: u64,
    seq: u64,
    ev: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, we pop earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-node transport bookkeeping for the current epoch. This is
/// scheduler state, not protocol state: the node's *protocol* memory
/// is still just its committed option ([`crate::NODE_STATE_BYTES`]).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Pending {
    /// The outstanding query attempt (0 = none issued yet).
    pub(crate) attempt: u32,
    /// Whether stage 1 has resolved this epoch (copied, explored, or
    /// fell back) — late replies and stale timeouts are ignored.
    pub(crate) resolved: bool,
}

/// Per-node protocol state the event-driven runtime keeps: the
/// current commitment, the one-slot history `back` that answers
/// epoch-nearest queries, and the local epoch counter that tags
/// outgoing queries in async mode. Everything else per node — the
/// pending-query slot, the inbox (a bounded depth counter; messages
/// ride in their `Deliver` event), the wake anchor, the incarnation
/// tag — is scheduler/transport bookkeeping with its own constant
/// bounds, not protocol state.
pub const EVENT_NODE_STATE_BYTES: usize =
    2 * std::mem::size_of::<NodeState>() + std::mem::size_of::<u64>();

// Compile-time bounded-memory budget: the event runtime's per-node
// protocol state stays within 4× the advertised NODE_STATE_BYTES, and
// the transport bookkeeping stays flat. Renegotiate here, not by
// silently growing a struct.
const _: () = assert!(EVENT_NODE_STATE_BYTES <= 4 * crate::NODE_STATE_BYTES);
const _: () = assert!(std::mem::size_of::<Pending>() <= 2 * crate::NODE_STATE_BYTES);

/// The event-driven message-passing runtime: `N` nodes of
/// [`crate::NODE_STATE_BYTES`] protocol state each, exchanging
/// query/reply gossip through a seeded discrete-event scheduler with
/// per-message latency jitter, bounded inboxes, and
/// timeout-driven retries, with faults injected per the configured
/// [`crate::FaultPlan`].
///
/// All randomness — wake jitter, message latencies, protocol choices,
/// and fault realizations — derives from the seed passed to
/// [`EventRuntime::new`], so runs are exactly reproducible. Like
/// [`Runtime`](crate::Runtime) it implements
/// [`GroupDynamics`] and
/// [`ProtocolRuntime`], so every harness drives the two runtimes
/// interchangeably.
///
/// # Example
///
/// ```
/// use sociolearn_core::{GroupDynamics, Params};
/// use sociolearn_dist::{DistConfig, EventRuntime, FaultPlan};
///
/// let params = Params::new(3, 0.6)?;
/// let faults = FaultPlan::with_drop_prob(0.2).unwrap().crash(0, 40);
/// let mut net = EventRuntime::new(DistConfig::new(params, 64).with_faults(faults), 7);
/// for _ in 0..50 {
///     let rm = net.tick(&[true, false, false]);
///     assert!(rm.committed <= rm.alive);
/// }
/// assert_eq!(net.distribution().len(), 3);
/// # Ok::<(), sociolearn_core::ParamsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct EventRuntime {
    cfg: DistConfig,
    queue_bound: usize,
    mode: Mode,
    /// The root seed, kept so [`with_scheduler`](EventRuntime::with_scheduler)
    /// can split per-node streams for the sharded engine.
    seed: u64,
    /// The sharded calendar engine, when
    /// [`SchedulerKind::ShardedCalendar`] is selected; `None` runs the
    /// original single-heap scheduler below.
    sharded: Option<Box<ShardedEngine>>,
    /// Multi-core execution knobs for the sharded engine — lookahead
    /// block width, worker-thread count, and the fan-out threshold.
    tuning: ExecTuning,
    rng: SmallRng,
    /// This epoch's committed option per node — the fleet's protocol
    /// state, double-buffered with `back` in quiesced mode. In async
    /// mode there is no double buffer: this vector always holds each
    /// node's most recent commitment, updated in place.
    choices: Vec<NodeState>,
    /// Last epoch's commitments: the snapshot peers answer from in
    /// quiesced mode. Async mode repurposes it as a one-slot history —
    /// `back[i]` is node `i`'s commitment as of its *previous*
    /// completed local epoch — so a responder can serve the snapshot
    /// nearest the epoch a query asks about.
    back: Vec<NodeState>,
    /// Crash + membership schedule with O(1) presence checks and an
    /// O(1) alive counter.
    members: MembershipTracker,
    /// Cached committed counts per option (this epoch in quiesced
    /// mode; the current commitments in async mode, maintained
    /// incrementally).
    counts: Vec<u64>,
    /// Per-node completed local epoch counters (async mode; in
    /// quiesced mode every node is implicitly at `round`).
    epochs: Vec<u64>,
    /// Per-node virtual time of the last wake-up — the async cadence
    /// anchor (unused in quiesced mode).
    last_wake: Vec<u64>,
    /// Virtual time already consumed by async ticks: each tick
    /// processes one [`ASYNC_EPOCH_PERIOD`] window past this mark
    /// (unused in quiesced mode, which owns the whole clock per tick).
    async_clock: u64,
    /// The event queue, keyed by `(virtual time, sequence)`. Reused
    /// across epochs.
    heap: BinaryHeap<Scheduled>,
    /// Per-node inbox depth: messages accepted and not yet delivered.
    /// The messages themselves ride in their `Deliver` events.
    depth: Vec<u32>,
    /// Per-node transport bookkeeping for the current epoch.
    pending: Vec<Pending>,
    /// Per-node incarnation counters, bumped on every leave (async
    /// mode; see [`Event::Wake`]). Scheduler state, not protocol
    /// state.
    incs: Vec<u32>,
    /// Per-node bootstrapping flags (async mode): set when a node
    /// (re)joins, cleared when its first epoch decision lands.
    boot: Vec<bool>,
    /// Number of `boot` flags currently set, so the per-tick gauge is
    /// O(1).
    boot_count: u64,
    /// Monotone sequence number for deterministic event tie-breaks.
    seq: u64,
    /// High-water mark of any inbox, across all epochs.
    max_queue_depth: usize,
    /// Epochs completed.
    round: u64,
    metrics: Metrics,
}

impl EventRuntime {
    /// Boots a fleet from the uniform initialization (node `i` starts
    /// committed to option `i mod m`, matching both the in-memory
    /// dynamics and the round-synchronous runtime) with all randomness
    /// derived from `seed` and inboxes bounded at
    /// [`DEFAULT_QUEUE_BOUND`].
    pub fn new(cfg: DistConfig, seed: u64) -> Self {
        let m = cfg.params().num_options();
        let n = cfg.num_nodes();
        let members = MembershipTracker::new(cfg.faults(), n);
        let choices: Vec<NodeState> = (0..n)
            .map(|i| {
                if members.in_initial_fleet(i) {
                    crate::uniform_start_choice(i, m)
                } else {
                    NO_CHOICE
                }
            })
            .collect();
        let mut counts = vec![0u64; m];
        for &c in &choices {
            if c != NO_CHOICE {
                counts[c as usize] += 1;
            }
        }
        EventRuntime {
            queue_bound: DEFAULT_QUEUE_BOUND,
            mode: Mode::Quiesced,
            seed,
            sharded: None,
            tuning: ExecTuning::default(),
            rng: SmallRng::seed_from_u64(seed),
            choices,
            back: vec![NO_CHOICE; n],
            members,
            counts,
            epochs: vec![0; n],
            last_wake: vec![0; n],
            async_clock: 0,
            heap: BinaryHeap::new(),
            depth: vec![0; n],
            pending: vec![Pending::default(); n],
            incs: vec![0; n],
            boot: vec![false; n],
            boot_count: 0,
            seq: 0,
            max_queue_depth: 0,
            round: 0,
            metrics: Metrics::default(),
            cfg,
        }
    }

    /// Switches the scheduler to **fully-async overlapping epochs**:
    /// no quiescence barrier, per-node local epoch counters advanced
    /// the moment a reply or timeout fallback lands, and replies
    /// staler than `bound` withheld by the responder (counted in
    /// [`RoundMetrics::stale_replies`]).
    ///
    /// In this mode [`tick`](EventRuntime::tick) advances the
    /// scheduler through one [`ASYNC_EPOCH_PERIOD`] window of virtual
    /// time: a healthy node completes about one local epoch per tick
    /// on its own cadence, a faulty one falls behind, and in-flight
    /// messages survive from tick to tick.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick — the epoch
    /// discipline is part of the deployment, not a per-round switch.
    pub fn with_async_epochs(mut self, bound: StalenessBound) -> Self {
        assert_eq!(
            self.round, 0,
            "execution model must be chosen before the first tick"
        );
        self.mode = Mode::Async(bound);
        self
    }

    /// Selects the scheduler that executes the event streams:
    /// [`SchedulerKind::SingleHeap`] (the default — one global
    /// `BinaryHeap` and one RNG stream) or
    /// [`SchedulerKind::ShardedCalendar`] (per-node-range shards over
    /// calendar queues with per-node RNG streams split from the root
    /// seed; byte-identical results for any shard count, same law as
    /// the single heap). Composes with
    /// [`with_async_epochs`](EventRuntime::with_async_epochs) and
    /// [`with_queue_bound`](EventRuntime::with_queue_bound) in any
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick, or if a
    /// sharded scheduler is requested with zero shards.
    pub fn with_scheduler(mut self, kind: SchedulerKind) -> Self {
        assert_eq!(
            self.round, 0,
            "scheduler must be chosen before the first tick"
        );
        let n = self.cfg.num_nodes();
        let m = self.cfg.params().num_options();
        self.sharded = match kind {
            SchedulerKind::SingleHeap => {
                // Rebuild the (round-0) single-heap per-node state in
                // case a sharded engine shrank it away below.
                self.choices = (0..n)
                    .map(|i| {
                        if self.members.in_initial_fleet(i) {
                            crate::uniform_start_choice(i, m)
                        } else {
                            NO_CHOICE
                        }
                    })
                    .collect();
                self.back = vec![NO_CHOICE; n];
                self.epochs = vec![0; n];
                self.last_wake = vec![0; n];
                self.pending = vec![Pending::default(); n];
                self.incs = vec![0; n];
                self.boot = vec![false; n];
                self.boot_count = 0;
                self.depth = vec![0; n];
                None
            }
            SchedulerKind::ShardedCalendar { shards } => {
                assert!(shards > 0, "shard count must be at least 1");
                // The engine owns all per-node state; free the
                // single-heap copies so fleet-scale deployments don't
                // carry both (`counts` stays — it is the cache every
                // accessor reads, synced from the engine each tick).
                self.choices = Vec::new();
                self.back = Vec::new();
                self.epochs = Vec::new();
                self.last_wake = Vec::new();
                self.pending = Vec::new();
                self.incs = Vec::new();
                self.boot = Vec::new();
                self.boot_count = 0;
                self.depth = Vec::new();
                self.heap = BinaryHeap::new();
                Some(Box::new(ShardedEngine::new(
                    &self.cfg,
                    self.seed,
                    shards,
                    &self.members,
                )))
            }
        };
        self
    }

    /// The scheduler executing this runtime. For sharded schedulers
    /// the reported shard count is the effective one (clamped to the
    /// fleet size).
    pub fn scheduler(&self) -> SchedulerKind {
        match &self.sharded {
            None => SchedulerKind::SingleHeap,
            Some(engine) => SchedulerKind::ShardedCalendar {
                shards: engine.num_shards(),
            },
        }
    }

    /// Replaces the per-node inbox capacity (default
    /// [`DEFAULT_QUEUE_BOUND`]). Smaller bounds increase backpressure
    /// drops and hence retries/fallbacks.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0` (a node must be able to receive).
    pub fn with_queue_bound(mut self, bound: usize) -> Self {
        assert!(bound > 0, "queue bound must be at least 1");
        self.queue_bound = bound;
        self
    }

    /// Sets the sharded engine's **lookahead block width** `K`: each
    /// shard lane advances through `K` whole virtual-time windows
    /// before the cross-shard mailboxes drain at a barrier, cutting
    /// the barrier count by `K×` and giving worker threads `K` windows
    /// of work per fan-out. Messages due inside a block are deferred
    /// to the block boundary (`max(now + latency, block end)`), a
    /// partition-independent rule, so for a fixed `K` results stay
    /// byte-identical across shard counts and thread counts. `K = 1`
    /// (the default) is exactly the classic per-window barrier —
    /// existing seeds replay bit-for-bit; larger `K` is a different
    /// (equally valid) trajectory of the same protocol law.
    ///
    /// Requires the [`SchedulerKind::ShardedCalendar`] scheduler;
    /// [`tick`](EventRuntime::tick) panics if `K > 1` is combined with
    /// the single-heap scheduler.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick, or if
    /// `lookahead` is `0` or exceeds [`MAX_LOOKAHEAD`].
    pub fn with_lookahead(mut self, lookahead: u64) -> Self {
        assert_eq!(
            self.round, 0,
            "lookahead must be chosen before the first tick"
        );
        assert!(
            (1..=MAX_LOOKAHEAD).contains(&lookahead),
            "lookahead must be in 1..={MAX_LOOKAHEAD}, got {lookahead}"
        );
        self.tuning.lookahead = lookahead;
        self
    }

    /// Sets the worker-thread count for dense lookahead blocks in the
    /// sharded engine: `0` (the default) sizes the pool to the
    /// machine's available parallelism, `1` always sweeps lanes
    /// in-thread, and `t > 1` uses a persistent pool of `t` threads.
    /// Purely a cost knob — results are byte-identical for every
    /// value. Ignored by the single-heap scheduler (one heap has no
    /// lanes to fan out).
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert_eq!(
            self.round, 0,
            "thread count must be chosen before the first tick"
        );
        self.tuning.threads = threads;
        self
    }

    /// Sets the fewest due events a lookahead block must hold before
    /// the sharded engine fans its lanes out on the worker pool;
    /// sparser blocks are swept in-thread. Purely a cost knob —
    /// results are byte-identical for every value. Mostly useful in
    /// tests, which set it to `0` to force the pool path at small
    /// fleet sizes.
    ///
    /// # Panics
    ///
    /// Panics if the runtime has already executed a tick.
    pub fn with_parallel_threshold(mut self, events: usize) -> Self {
        assert_eq!(
            self.round, 0,
            "parallel threshold must be chosen before the first tick"
        );
        self.tuning.parallel_threshold = events;
        self
    }

    /// The lookahead block width `K` (see
    /// [`with_lookahead`](EventRuntime::with_lookahead)).
    pub fn lookahead(&self) -> u64 {
        self.tuning.lookahead
    }

    /// The configured worker-thread count (see
    /// [`with_threads`](EventRuntime::with_threads); `0` = auto).
    pub fn threads(&self) -> usize {
        self.tuning.threads
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DistConfig {
        &self.cfg
    }

    /// Fleet size `N`.
    pub fn num_nodes(&self) -> usize {
        self.cfg.num_nodes()
    }

    /// Epochs completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.round
    }

    /// Cumulative message/fallback/backpressure counters.
    pub fn metrics(&self) -> Metrics {
        self.metrics
    }

    /// Committed counts per option over alive nodes — last epoch's in
    /// quiesced mode, the instantaneous commitments in async mode.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of nodes present for the *next* epoch, in O(1). With
    /// membership churn this can grow as well as shrink.
    pub fn alive_count(&self) -> usize {
        self.members.alive()
    }

    /// The per-node inbox capacity.
    pub fn queue_bound(&self) -> usize {
        self.queue_bound
    }

    /// The deepest any inbox has ever been — by construction never
    /// more than [`queue_bound`](EventRuntime::queue_bound).
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Messages waiting in `node`'s inbox: accepted, and their
    /// `Deliver` event not yet processed. Between ticks this is 0 for
    /// every node in quiesced mode; in async mode mail accepted in a
    /// tick's last time step is delivered in the next tick, even to a
    /// node that has left by then.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn inbox_depth(&self, node: usize) -> usize {
        assert!(node < self.cfg.num_nodes(), "node out of range");
        match &self.sharded {
            None => self.depth[node] as usize,
            Some(engine) => engine.depth_of(node),
        }
    }

    /// Whether the scheduler runs fully-async overlapping epochs.
    pub fn is_async(&self) -> bool {
        matches!(self.mode, Mode::Async(_))
    }

    /// The configured staleness bound, if the runtime is fully-async.
    pub fn staleness_bound(&self) -> Option<StalenessBound> {
        match self.mode {
            Mode::Quiesced => None,
            Mode::Async(bound) => Some(bound),
        }
    }

    /// `node`'s completed local epoch count. In quiesced mode every
    /// node completes exactly one epoch per tick, so this equals
    /// [`rounds_completed`](EventRuntime::rounds_completed); in async
    /// mode the counters drift apart as slow nodes fall behind.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn local_epoch(&self, node: usize) -> u64 {
        assert!(node < self.cfg.num_nodes(), "node out of range");
        match (self.mode, &self.sharded) {
            (Mode::Quiesced, _) => self.round,
            (Mode::Async(_), None) => self.epochs[node],
            (Mode::Async(_), Some(engine)) => engine.epoch_of(node),
        }
    }

    /// Max-minus-min completed local epoch over alive nodes — the
    /// fleet's current epoch overlap. Always 0 in quiesced mode (and
    /// for an all-crashed fleet).
    pub fn epoch_spread(&self) -> u64 {
        if !self.is_async() {
            return 0;
        }
        if let Some(engine) = &self.sharded {
            return engine.epoch_spread(&self.members);
        }
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for (i, &e) in self.epochs.iter().enumerate() {
            if self.members.is_present(i) {
                any = true;
                lo = lo.min(e);
                hi = hi.max(e);
            }
        }
        if any {
            hi - lo
        } else {
            0
        }
    }

    /// Pushes an event onto the schedule.
    fn push(&mut self, at: u64, ev: Event) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { at, seq, ev });
    }

    /// One latency draw for a message about to be sent.
    fn latency(&mut self) -> u64 {
        self.rng.gen_range(1..=MAX_MESSAGE_LATENCY)
    }

    /// Whether a message is lost on the link, per the fault plan.
    fn link_drops(&mut self) -> bool {
        let p = self.cfg.faults().drop_prob();
        p > 0.0 && self.rng.gen_bool(p)
    }

    /// Offers `node` a message; `deliver` is its `Deliver` event. On
    /// success the inbox grows by one and the event is scheduled, on
    /// overflow the message is dropped (backpressure).
    fn enqueue(&mut self, node: u32, deliver: Event, now: u64, rm: &mut RoundMetrics) {
        let depth = &mut self.depth[node as usize];
        if *depth as usize >= self.queue_bound {
            rm.queue_drops += 1;
            return;
        }
        *depth += 1;
        self.max_queue_depth = self.max_queue_depth.max(*depth as usize);
        self.push(now + DELIVER_DELAY, deliver);
    }

    /// Takes one delivered message off `node`'s inbox.
    fn dequeue(&mut self, node: u32) {
        let depth = &mut self.depth[node as usize];
        debug_assert!(*depth > 0, "delivery without a queued message");
        *depth -= 1;
    }

    /// Resolves node `i`'s stage 1 with `considered` and runs stage 2
    /// (adopt with the quality-dependent probability, else sit out).
    fn decide(&mut self, node: u32, considered: u32, rewards: &[bool], rm: &mut RoundMetrics) {
        let i = node as usize;
        debug_assert!(!self.pending[i].resolved, "node resolved twice");
        self.pending[i].resolved = true;
        let adopt_p = self
            .cfg
            .params()
            .adopt_probability(rewards[considered as usize]);
        if self.rng.gen_bool(adopt_p) {
            self.choices[i] = considered;
            self.counts[considered as usize] += 1;
            rm.committed += 1;
        }
    }

    /// Issues query `attempt` for `node` (or the uniform fallback once
    /// the retry budget is spent). `attempt == 1` is the stage-1 entry
    /// point and may take the `µ`-exploration branch instead.
    fn start_attempt(
        &mut self,
        node: u32,
        attempt: u32,
        now: u64,
        rewards: &[bool],
        rm: &mut RoundMetrics,
    ) {
        let i = node as usize;
        let n = self.cfg.num_nodes();
        let m = self.cfg.params().num_options();
        if attempt == 1 {
            let mu = self.cfg.params().mu();
            if self.rng.gen_bool(mu) {
                rm.explorations += 1;
                let considered = index_u32(self.rng.gen_range(0..m));
                self.decide(node, considered, rewards, rm);
                return;
            }
        }
        if attempt > MAX_QUERY_RETRIES || n == 1 {
            // Retry budget spent (or no peers to ask at all): uniform
            // fallback, exactly as in the round-synchronous runtime.
            rm.fallbacks += 1;
            let considered = index_u32(self.rng.gen_range(0..m));
            self.decide(node, considered, rewards, rm);
            return;
        }
        self.pending[i].attempt = attempt;
        rm.queries_sent += 1;
        // Ask a uniformly random *other* node what it used last epoch.
        let mut peer = self.rng.gen_range(0..n - 1);
        if peer >= i {
            peer += 1;
        }
        // The retry clock starts now, reply or no reply. (Quiesced
        // mode clears the heap every tick, so the epoch tag is inert.)
        self.push(
            now + RETRY_TIMEOUT,
            Event::Timeout {
                node,
                attempt,
                epoch: 0,
            },
        );
        // The query must survive the link to be scheduled for arrival.
        if !self.link_drops() {
            let at = now + self.latency();
            self.push(
                at,
                Event::QueryArrive {
                    from: node,
                    to: index_u32(peer),
                    epoch: 0,
                },
            );
        }
    }

    /// `node` handles the query from `from` its inbox just delivered.
    fn deliver_query(&mut self, node: u32, from: u32, now: u64) {
        self.dequeue(node);
        // Answer with the option committed last epoch; a node that sat
        // out stays silent and the querier's timeout drives the retry.
        let option = self.back[node as usize];
        if option != NO_CHOICE && !self.link_drops() {
            let at = now + self.latency();
            self.push(at, Event::ReplyArrive { node: from, option });
        }
    }

    /// `node` handles the reply carrying `option` its inbox just
    /// delivered.
    fn deliver_reply(&mut self, node: u32, option: u32, rewards: &[bool], rm: &mut RoundMetrics) {
        self.dequeue(node);
        if self.pending[node as usize].resolved {
            // A late duplicate (cannot normally happen: the timeout
            // window exceeds the worst-case round trip), ignored for
            // safety.
            return;
        }
        rm.replies_received += 1;
        self.decide(node, option, rewards, rm);
    }

    /// Executes one scheduler round against the fresh reward signals,
    /// returning what happened.
    ///
    /// In the default epoch-quiesced mode the round is one epoch run
    /// to quiescence: every alive node resolves both protocol stages
    /// and the event queue drains completely. In fully-async mode
    /// ([`with_async_epochs`](EventRuntime::with_async_epochs)) the
    /// round is instead one [`ASYNC_EPOCH_PERIOD`] window of virtual
    /// time — roughly one local epoch per healthy node, less for nodes
    /// mired in retries, with no barrier and with in-flight messages
    /// carrying over into the next tick. Decisions made during the
    /// tick probe this tick's `rewards`, whatever local epoch they
    /// belong to.
    ///
    /// # Panics
    ///
    /// Panics if `rewards.len()` differs from the number of options.
    pub fn tick(&mut self, rewards: &[bool]) -> RoundMetrics {
        assert_eq!(
            rewards.len(),
            self.cfg.params().num_options(),
            "rewards length must equal the number of options"
        );
        if self.sharded.is_some() {
            return self.tick_sharded(rewards);
        }
        assert!(
            self.tuning.lookahead == 1,
            "lookahead > 1 requires SchedulerKind::ShardedCalendar"
        );
        match self.mode {
            Mode::Quiesced => self.tick_quiesced(rewards),
            Mode::Async(bound) => self.tick_async(rewards, bound),
        }
    }

    /// One tick routed through the sharded calendar engine. The
    /// engine owns the per-node state; this wrapper keeps the
    /// runtime-level clocks, counters, and count cache in sync.
    fn tick_sharded(&mut self, rewards: &[bool]) -> RoundMetrics {
        self.round += 1;
        let t = self.round;
        let engine = self.sharded.as_mut().expect("sharded scheduler selected");
        let rm = engine.tick(
            self.mode,
            &self.cfg,
            self.queue_bound,
            &self.members,
            t,
            rewards,
            &self.tuning,
        );
        engine.write_counts(&mut self.counts);
        self.max_queue_depth = self.max_queue_depth.max(engine.max_queue_depth());
        self.members.advance_to(t + 1);
        self.metrics.absorb(&rm);
        rm
    }

    /// One epoch run to quiescence (the default mode).
    fn tick_quiesced(&mut self, rewards: &[bool]) -> RoundMetrics {
        self.round += 1;
        let t = self.round;
        let n = self.cfg.num_nodes();

        let mut rm = RoundMetrics {
            round: t,
            ..RoundMetrics::default()
        };

        // Swap buffers: `back` now holds last epoch's commitments (the
        // queryable snapshot); `choices` is rewritten over the epoch.
        std::mem::swap(&mut self.choices, &mut self.back);
        self.counts.fill(0);
        self.heap.clear();
        self.seq = 0;
        self.depth.fill(0);

        // Membership transitions land at the epoch boundary. With the
        // barrier, every (re)join bootstraps and resolves within this
        // very epoch, so the gauge is just the inflow.
        for &(_, kind) in self.members.recent() {
            match kind {
                Transition::Join => rm.joins += 1,
                Transition::Leave => rm.leaves += 1,
                Transition::Rejoin => rm.rejoins += 1,
                Transition::Crash => {}
            }
        }
        rm.bootstrapping = rm.joins + rm.rejoins;

        // Present nodes wake at jittered times; dead or departed nodes
        // are resolved (and silent) from the start. A node that just
        // (re)joined has `back == NO_CHOICE` (absent epochs write
        // NO_CHOICE) and bootstraps through the ordinary query path.
        for i in 0..n {
            self.choices[i] = NO_CHOICE;
            if self.members.is_present(i) {
                rm.alive += 1;
                self.pending[i] = Pending::default();
                let at = self.rng.gen_range(0..WAKE_SPREAD);
                self.push(
                    at,
                    Event::Wake {
                        node: index_u32(i),
                        inc: 0,
                    },
                );
            } else {
                // An absent node answers nothing: its snapshot slot is
                // cleared so a query landing here finds no commitment.
                self.back[i] = NO_CHOICE;
                self.pending[i] = Pending {
                    attempt: 0,
                    resolved: true,
                };
            }
        }
        debug_assert_eq!(rm.alive, self.members.alive(), "alive counter drifted");

        while let Some(Scheduled { at, ev, .. }) = self.heap.pop() {
            match ev {
                Event::Wake { node, .. } => self.start_attempt(node, 1, at, rewards, &mut rm),
                Event::QueryArrive { from, to, epoch } => {
                    // An absent peer (crashed or departed) swallows the
                    // query; the querier's timeout drives the retry.
                    if self.members.is_present(to as usize) {
                        let deliver = Event::DeliverQuery {
                            node: to,
                            from,
                            epoch,
                        };
                        self.enqueue(to, deliver, at, &mut rm);
                    }
                }
                Event::ReplyArrive { node, option } => {
                    self.enqueue(node, Event::DeliverReply { node, option }, at, &mut rm);
                }
                Event::DeliverQuery { node, from, .. } => self.deliver_query(node, from, at),
                Event::DeliverReply { node, option } => {
                    self.deliver_reply(node, option, rewards, &mut rm);
                }
                Event::Timeout {
                    node,
                    attempt,
                    epoch: _,
                } => {
                    let p = self.pending[node as usize];
                    if !p.resolved && p.attempt == attempt {
                        self.start_attempt(node, attempt + 1, at, rewards, &mut rm);
                    }
                }
            }
        }
        debug_assert!(
            self.pending.iter().all(|p| p.resolved),
            "epoch ended with unresolved nodes"
        );

        self.members.advance_to(t + 1);
        self.metrics.absorb(&rm);
        rm
    }

    /// Replaces node `i`'s current commitment, keeping the running
    /// per-option counts in sync (async mode maintains `counts`
    /// incrementally instead of rebuilding it every epoch).
    fn set_commit(&mut self, i: usize, new: NodeState) {
        let old = self.choices[i];
        if old != NO_CHOICE {
            self.counts[old as usize] -= 1;
        }
        if new != NO_CHOICE {
            self.counts[new as usize] += 1;
        }
        self.choices[i] = new;
    }

    /// Async stage 2: adopt or sit out, complete the local epoch, and
    /// schedule the next wake-up on the node's own cadence — the
    /// moment the barrier-free design hinges on: nothing here waits
    /// for the rest of the fleet.
    fn decide_async(
        &mut self,
        node: u32,
        considered: u32,
        now: u64,
        rewards: &[bool],
        rm: &mut RoundMetrics,
    ) {
        let i = node as usize;
        debug_assert!(!self.pending[i].resolved, "node resolved twice");
        self.pending[i].resolved = true;
        if self.boot[i] {
            // First epoch decision after a (re)join: the bootstrap is
            // over, whatever stage 1 produced.
            self.boot[i] = false;
            self.boot_count -= 1;
        }
        let adopt_p = self
            .cfg
            .params()
            .adopt_probability(rewards[considered as usize]);
        // The commitment being superseded becomes the one-slot
        // history peers can still be served from.
        self.back[i] = self.choices[i];
        if self.rng.gen_bool(adopt_p) {
            self.set_commit(i, considered);
            rm.committed += 1;
        } else {
            self.set_commit(i, NO_CHOICE);
        }
        self.epochs[i] += 1;
        // Next local epoch: one period after the last wake-up, or
        // immediately (plus jitter) if this epoch overran the period —
        // that overrun is how slow nodes drift behind their peers
        // (they catch back up by running epochs back-to-back once the
        // retry storm passes).
        let cadence = self.last_wake[i] + ASYNC_EPOCH_PERIOD;
        let at = cadence.max(now + 1) + self.rng.gen_range(0..ASYNC_WAKE_JITTER);
        self.push(
            at,
            Event::Wake {
                node,
                inc: self.incs[i],
            },
        );
    }

    /// Async counterpart of [`start_attempt`](EventRuntime::start_attempt):
    /// queries and timeouts are tagged with the local epoch that
    /// issued them, because the heap is never cleared and an abandoned
    /// timeout may surface epochs later.
    ///
    /// Deliberately mirrors the quiesced path stage for stage
    /// (µ-branch, retry budget, peer pick, timeout clock, link drop)
    /// rather than sharing code with it: the two must make the same
    /// protocol decisions in the same RNG order for the cross-mode
    /// law-equivalence tests to hold, so any change here must be
    /// mirrored in `start_attempt` and vice versa.
    fn start_attempt_async(
        &mut self,
        node: u32,
        attempt: u32,
        now: u64,
        rewards: &[bool],
        rm: &mut RoundMetrics,
    ) {
        let i = node as usize;
        let n = self.cfg.num_nodes();
        let m = self.cfg.params().num_options();
        if attempt == 1 {
            let mu = self.cfg.params().mu();
            if self.rng.gen_bool(mu) {
                rm.explorations += 1;
                let considered = index_u32(self.rng.gen_range(0..m));
                self.decide_async(node, considered, now, rewards, rm);
                return;
            }
        }
        if attempt > MAX_QUERY_RETRIES || n == 1 {
            rm.fallbacks += 1;
            let considered = index_u32(self.rng.gen_range(0..m));
            self.decide_async(node, considered, now, rewards, rm);
            return;
        }
        self.pending[i].attempt = attempt;
        rm.queries_sent += 1;
        let mut peer = self.rng.gen_range(0..n - 1);
        if peer >= i {
            peer += 1;
        }
        let epoch = self.epochs[i] + 1;
        self.push(
            now + RETRY_TIMEOUT,
            Event::Timeout {
                node,
                attempt,
                epoch,
            },
        );
        if !self.link_drops() {
            let at = now + self.latency();
            self.push(
                at,
                Event::QueryArrive {
                    from: node,
                    to: index_u32(peer),
                    epoch,
                },
            );
        }
    }

    /// Async counterpart of [`deliver_query`](EventRuntime::deliver_query):
    /// peers answer from their *latest* commitment (there is no
    /// previous-epoch snapshot without a barrier), and a responder
    /// whose information is staler than the bound withholds its reply.
    fn deliver_query_async(
        &mut self,
        node: u32,
        from: u32,
        epoch: u64,
        now: u64,
        rm: &mut RoundMetrics,
        bound: StalenessBound,
    ) {
        self.dequeue(node);
        let i = node as usize;
        // The querier at local epoch `e` would, under synchronized
        // execution, copy information committed at epoch `e - 1`.
        // Serve the snapshot nearest that epoch: the latest commitment
        // if the responder is at or behind the requested epoch
        // (staleness = the gap), else the one-slot history (a
        // responder that already completed the requested epoch still
        // holds what it committed then; one that raced further ahead
        // serves the oldest it has — fresher than asked, never stale).
        // Withhold the reply when the served information is staler
        // than the bound, and let the querier's timeout drive its
        // retry.
        let want = epoch.saturating_sub(1);
        let r = self.epochs[i];
        let (option, stale) = if want >= r {
            (self.choices[i], want - r)
        } else {
            (self.back[i], 0)
        };
        // Nothing to report after sitting that epoch out.
        if option == NO_CHOICE {
            return;
        }
        if !bound.allows(stale) {
            rm.stale_replies += 1;
            return;
        }
        if !self.link_drops() {
            let at = now + self.latency();
            self.push(at, Event::ReplyArrive { node: from, option });
        }
    }

    /// Async counterpart of [`deliver_reply`](EventRuntime::deliver_reply).
    fn deliver_reply_async(
        &mut self,
        node: u32,
        option: u32,
        now: u64,
        rewards: &[bool],
        rm: &mut RoundMetrics,
    ) {
        self.dequeue(node);
        if self.pending[node as usize].resolved {
            // A late duplicate (cannot normally happen: a delivered
            // reply always beats its timeout).
            return;
        }
        rm.replies_received += 1;
        self.decide_async(node, option, now, rewards, rm);
    }

    /// One fully-async tick: advance the scheduler through exactly one
    /// [`ASYNC_EPOCH_PERIOD`] window of virtual time. No barrier of
    /// any kind — a healthy node completes about one local epoch per
    /// window on its own cadence, a node mired in retry timeouts
    /// completes less than one and genuinely falls behind the fleet
    /// (catching up later by running epochs back-to-back), and
    /// in-flight messages, pending timeouts, and future wake-ups all
    /// survive into the next tick.
    fn tick_async(&mut self, rewards: &[bool], bound: StalenessBound) -> RoundMetrics {
        self.round += 1;
        let t = self.round;
        let n = self.cfg.num_nodes();
        let mut rm = RoundMetrics {
            round: t,
            ..RoundMetrics::default()
        };

        // Membership transitions land at the tick boundary, processed
        // in node order (the tracker's timeline order) so every
        // scheduler realizes the same sequence. A departing node's
        // commitment leaves the popularity counts, its history and
        // pending attempt are wiped (a rejoiner remembers nothing),
        // and a leave bumps its incarnation so wake-ups scheduled in
        // its old life die on arrival. A (re)joining node enters
        // bootstrapping and gets a jittered boot wake-up; everything
        // after that is the ordinary protocol.
        if self.members.any_scheduled() && !self.members.recent().is_empty() {
            let recent: Vec<(u32, Transition)> = self.members.recent().to_vec();
            for &(node, kind) in &recent {
                let i = node as usize;
                match kind {
                    Transition::Leave | Transition::Crash => {
                        if kind == Transition::Leave {
                            rm.leaves += 1;
                            self.incs[i] = self.incs[i].wrapping_add(1);
                        }
                        if self.choices[i] != NO_CHOICE {
                            self.set_commit(i, NO_CHOICE);
                        }
                        self.back[i] = NO_CHOICE;
                        self.pending[i] = Pending {
                            attempt: 0,
                            resolved: true,
                        };
                        if self.boot[i] {
                            self.boot[i] = false;
                            self.boot_count -= 1;
                        }
                    }
                    Transition::Join | Transition::Rejoin => {
                        if kind == Transition::Join {
                            rm.joins += 1;
                        } else {
                            rm.rejoins += 1;
                        }
                        if !self.boot[i] {
                            self.boot[i] = true;
                            self.boot_count += 1;
                        }
                        // The t == 1 seeding loop below covers nodes
                        // present from the start; later (re)joins
                        // schedule their own boot wake here.
                        if t > 1 {
                            let at = self.async_clock + self.rng.gen_range(0..WAKE_SPREAD);
                            self.push(
                                at,
                                Event::Wake {
                                    node,
                                    inc: self.incs[i],
                                },
                            );
                        }
                    }
                }
            }
        }
        rm.alive = self.members.alive();
        rm.bootstrapping = self.boot_count;

        // The very first tick seeds every node's epoch loop; from then
        // on each node perpetually re-schedules its own wake-ups.
        if t == 1 {
            for i in 0..n {
                if self.members.is_present(i) {
                    let at = self.rng.gen_range(0..WAKE_SPREAD);
                    self.push(
                        at,
                        Event::Wake {
                            node: index_u32(i),
                            inc: self.incs[i],
                        },
                    );
                }
            }
        }

        let window_end = self.async_clock + ASYNC_EPOCH_PERIOD;
        while self
            .heap
            .peek()
            .is_some_and(|scheduled| scheduled.at < window_end)
        {
            let Scheduled { at, ev, .. } = self.heap.pop().expect("peeked entry");
            match ev {
                Event::Wake { node, inc } => {
                    let i = node as usize;
                    // The incarnation tag kills wake-ups scheduled
                    // before a leave: they are the only events whose
                    // horizon (~WAKE_SPREAD + ASYNC_EPOCH_PERIOD)
                    // outlives a one-round absence.
                    if self.members.is_present(i) && inc == self.incs[i] {
                        self.pending[i] = Pending::default();
                        self.last_wake[i] = at;
                        self.start_attempt_async(node, 1, at, rewards, &mut rm);
                    }
                }
                Event::QueryArrive { from, to, epoch } => {
                    if self.members.is_present(to as usize) {
                        let deliver = Event::DeliverQuery {
                            node: to,
                            from,
                            epoch,
                        };
                        self.enqueue(to, deliver, at, &mut rm);
                    }
                }
                Event::ReplyArrive { node, option } => {
                    if self.members.is_present(node as usize) {
                        self.enqueue(node, Event::DeliverReply { node, option }, at, &mut rm);
                    }
                }
                // Mail already in the inbox of a node that has since
                // left or crashed is consumed unread, keeping
                // deliveries 1:1 with enqueues even for the dead.
                Event::DeliverQuery { node, .. } | Event::DeliverReply { node, .. }
                    if !self.members.is_present(node as usize) =>
                {
                    self.dequeue(node);
                }
                Event::DeliverQuery { node, from, epoch } => {
                    self.deliver_query_async(node, from, epoch, at, &mut rm, bound);
                }
                Event::DeliverReply { node, option } => {
                    self.deliver_reply_async(node, option, at, rewards, &mut rm);
                }
                Event::Timeout {
                    node,
                    attempt,
                    epoch,
                } => {
                    let i = node as usize;
                    if self.members.is_present(i) {
                        let p = self.pending[i];
                        // The epoch tag rejects timeouts abandoned by
                        // an earlier local epoch.
                        if !p.resolved && p.attempt == attempt && self.epochs[i] + 1 == epoch {
                            self.start_attempt_async(node, attempt + 1, at, rewards, &mut rm);
                        }
                    }
                }
            }
        }
        self.async_clock = window_end;

        self.members.advance_to(t + 1);
        self.metrics.absorb(&rm);
        rm
    }
}

impl GroupDynamics for EventRuntime {
    fn num_options(&self) -> usize {
        self.cfg.params().num_options()
    }

    fn write_distribution(&self, out: &mut [f64]) {
        let m = self.cfg.params().num_options();
        assert_eq!(
            out.len(),
            m,
            "buffer length must equal the number of options"
        );
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            out.fill(1.0 / m as f64);
            return;
        }
        for (slot, &c) in out.iter_mut().zip(&self.counts) {
            *slot = c as f64 / total as f64;
        }
    }

    /// Advances one epoch. Like the round-synchronous runtime, the
    /// event-driven runtime draws all randomness from its own seed;
    /// the caller's RNG is ignored.
    fn step(&mut self, rewards: &[bool], _rng: &mut dyn RngCore) {
        self.tick(rewards);
    }

    fn label(&self) -> &str {
        match self.mode {
            Mode::Quiesced => "social (event-driven)",
            Mode::Async(_) => "social (event-driven, async)",
        }
    }
}

impl ProtocolRuntime for EventRuntime {
    fn round(&mut self, rewards: &[bool]) -> RoundMetrics {
        self.tick(rewards)
    }

    fn metrics(&self) -> Metrics {
        EventRuntime::metrics(self)
    }

    fn num_nodes(&self) -> usize {
        EventRuntime::num_nodes(self)
    }

    fn alive_count(&self) -> usize {
        EventRuntime::alive_count(self)
    }

    fn rounds_completed(&self) -> u64 {
        EventRuntime::rounds_completed(self)
    }

    fn execution_model(&self) -> ExecutionModel {
        match self.mode {
            Mode::Quiesced => ExecutionModel::EpochQuiesced,
            Mode::Async(_) => ExecutionModel::FullyAsync,
        }
    }

    fn epoch_skew(&self) -> u64 {
        self.epoch_spread()
    }

    fn write_shard_loads(&self, out: &mut Vec<usize>) {
        match &self.sharded {
            Some(engine) => engine.write_shard_loads(&self.members, out),
            None => out.push(self.alive_count()),
        }
    }

    fn shard_rebalances(&self) -> u64 {
        self.sharded.as_ref().map_or(0, |e| e.rebalances())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultPlan;
    use sociolearn_core::Params;

    fn params() -> Params {
        Params::new(2, 0.65).unwrap()
    }

    #[test]
    fn initialization_matches_uniform_start() {
        let net = EventRuntime::new(DistConfig::new(Params::new(3, 0.6).unwrap(), 7), 1);
        assert_eq!(net.counts(), &[3, 2, 2]);
        let q = net.distribution();
        assert!((q[0] - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn clean_network_converges_to_best_option() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 500), 2);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let rewards = [rng.gen_bool(0.9), rng.gen_bool(0.3)];
            net.tick(&rewards);
        }
        assert!(
            net.distribution()[0] > 0.8,
            "share {}",
            net.distribution()[0]
        );
    }

    #[test]
    fn epoch_metrics_are_internally_consistent() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 4);
        for _ in 0..50 {
            let rm = net.tick(&[true, false]);
            assert!(rm.committed <= rm.alive);
            assert!(rm.alive <= 64);
            assert!(rm.replies_received <= rm.queries_sent);
            assert!(rm.queries_sent <= 64 * MAX_QUERY_RETRIES as u64);
            let handled = rm.explorations + rm.fallbacks + rm.replies_received;
            assert!(
                handled >= rm.alive as u64,
                "every alive node resolves stage 1"
            );
        }
        assert!(net.max_queue_depth() <= net.queue_bound());
        let m = net.metrics();
        assert_eq!(m.rounds, 50);
        assert!(m.messages_per_round() > 0.0);
    }

    #[test]
    fn total_loss_means_no_replies() {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5);
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        assert_eq!(net.metrics().replies_received, 0);
        assert!(net.metrics().fallbacks > 0);
    }

    #[test]
    fn crashed_nodes_leave_the_distribution() {
        let faults = FaultPlan::none().crash(0, 1).crash(1, 1).crash(2, 1);
        let mut net = EventRuntime::new(DistConfig::new(params(), 4).with_faults(faults), 6);
        let rm = net.tick(&[true, true]);
        assert_eq!(rm.alive, 1);
        assert_eq!(net.alive_count(), 1);
        assert!(net.counts().iter().sum::<u64>() <= 1);
    }

    #[test]
    fn single_node_fleet_never_queries() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 1), 7);
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        assert_eq!(net.metrics().queries_sent, 0);
        assert!(net.metrics().explorations + net.metrics().fallbacks > 0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
            let mut net =
                EventRuntime::new(DistConfig::new(params(), 50).with_faults(faults), seed);
            let mut out = Vec::new();
            for t in 0..40 {
                net.tick(&[t % 2 == 0, t % 3 == 0]);
                out.push(net.distribution());
            }
            (out, net.metrics())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn tiny_queue_bound_is_respected_under_load() {
        // A bound of 1 forces heavy backpressure in a dense fleet; the
        // high-water mark must never exceed the bound and drops must
        // be visible in the metrics.
        let mut net = EventRuntime::new(DistConfig::new(params(), 128), 9).with_queue_bound(1);
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        assert!(net.max_queue_depth() <= 1);
        assert!(net.metrics().queue_drops > 0, "bound 1 never overflowed");
        // Backpressure degrades copying but never learning.
        assert!(net.distribution()[0] > 0.5);
    }

    #[test]
    fn run_batch_matches_tick_loop() {
        let schedule: Vec<Vec<bool>> = (0..25).map(|t| vec![t % 2 == 0, t % 5 == 0]).collect();
        let faults = FaultPlan::with_drop_prob(0.1).unwrap().crash(2, 9);
        let mut batched = EventRuntime::new(
            DistConfig::new(params(), 30).with_faults(faults.clone()),
            13,
        );
        let mut looped = EventRuntime::new(DistConfig::new(params(), 30).with_faults(faults), 13);
        let batch = batched.run_batch(&schedule);
        for rewards in &schedule {
            looped.tick(rewards);
        }
        assert_eq!(batched.distribution(), looped.distribution());
        assert_eq!(batch, looped.metrics());
    }

    #[test]
    fn step_ignores_external_rng_stream() {
        let drive = |ext_seed: u64| {
            let mut net = EventRuntime::new(DistConfig::new(params(), 80), 13);
            let mut ext = SmallRng::seed_from_u64(ext_seed);
            for _ in 0..20 {
                net.step(&[true, false], &mut ext);
            }
            net.distribution()
        };
        assert_eq!(drive(1), drive(999));
    }

    #[test]
    fn async_clean_network_converges_to_best_option() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 500), 2)
            .with_async_epochs(StalenessBound::Unbounded);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let rewards = [rng.gen_bool(0.9), rng.gen_bool(0.3)];
            net.tick(&rewards);
        }
        assert!(
            net.distribution()[0] > 0.8,
            "share {}",
            net.distribution()[0]
        );
    }

    #[test]
    fn async_local_epochs_are_monotone_and_track_the_tick_cadence() {
        let faults = FaultPlan::with_drop_prob(0.4).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 60).with_faults(faults), 8)
            .with_async_epochs(StalenessBound::Epochs(1));
        let mut prev = vec![0u64; 60];
        for t in 1..=40u64 {
            net.tick(&[true, false]);
            for (i, slot) in prev.iter_mut().enumerate() {
                let e = net.local_epoch(i);
                assert!(e >= *slot, "node {i} epoch went backwards");
                // The cadence caps progress at about one epoch per
                // tick; retries under 40% loss may slow a node well
                // below that, but never to a crawl.
                assert!(e <= t + 2, "node {i} outran its cadence: {e} > {t} + 2");
                assert!(e >= t / 8, "node {i} stalled: {e} << {t}");
                *slot = e;
            }
        }
    }

    #[test]
    fn async_epochs_overlap_under_message_loss() {
        // Loss forces retry storms on some nodes while others cruise,
        // so local epochs must drift apart — the barrier really is
        // gone. (Quiesced mode reports spread 0 by definition.)
        let faults = FaultPlan::with_drop_prob(0.5).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 200).with_faults(faults), 5)
            .with_async_epochs(StalenessBound::Unbounded);
        let mut max_spread = 0;
        for _ in 0..60 {
            net.tick(&[true, false]);
            max_spread = max_spread.max(net.epoch_spread());
        }
        assert!(max_spread > 0, "epochs never overlapped");
    }

    #[test]
    fn async_unbounded_staleness_never_counts_stale_replies() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap().crash(1, 8);
        let mut net = EventRuntime::new(DistConfig::new(params(), 80).with_faults(faults), 6)
            .with_async_epochs(StalenessBound::Unbounded);
        for _ in 0..50 {
            let rm = net.tick(&[true, false]);
            assert_eq!(rm.stale_replies, 0);
        }
        assert_eq!(net.metrics().stale_replies, 0);
    }

    #[test]
    fn async_tight_staleness_bound_withholds_replies_under_loss() {
        // Heavy loss spreads the fleet's local epochs; with bound 0,
        // laggards must refuse queries from the nodes that raced
        // ahead.
        let faults = FaultPlan::with_drop_prob(0.6).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 150).with_faults(faults), 7)
            .with_async_epochs(StalenessBound::Epochs(0));
        for _ in 0..80 {
            net.tick(&[true, false]);
        }
        assert!(
            net.metrics().stale_replies > 0,
            "bound 0 under 60% loss never found a stale responder"
        );
        // Withheld replies push queriers toward retries/fallbacks, but
        // learning must survive.
        assert!(net.distribution()[0] > 0.5);
    }

    #[test]
    fn async_deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
            let mut net =
                EventRuntime::new(DistConfig::new(params(), 50).with_faults(faults), seed)
                    .with_async_epochs(StalenessBound::Epochs(2));
            let mut out = Vec::new();
            for t in 0..40 {
                net.tick(&[t % 2 == 0, t % 3 == 0]);
                out.push(net.distribution());
            }
            (out, net.metrics())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn async_crashed_nodes_leave_the_distribution_and_stop_pacing() {
        let faults = FaultPlan::none().crash(0, 5).crash(1, 5);
        let mut net = EventRuntime::new(DistConfig::new(params(), 6).with_faults(faults), 9)
            .with_async_epochs(StalenessBound::Unbounded);
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        assert_eq!(net.alive_count(), 4);
        assert!(net.counts().iter().sum::<u64>() <= 4);
        // Dead nodes' epochs froze at or near the crash round; the
        // fleet kept ticking past them.
        assert!(net.local_epoch(0) < net.local_epoch(5));
    }

    #[test]
    fn async_single_node_fleet_never_queries() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 1), 7)
            .with_async_epochs(StalenessBound::Epochs(0));
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        assert_eq!(net.metrics().queries_sent, 0);
        assert!(net.metrics().explorations + net.metrics().fallbacks > 0);
    }

    #[test]
    fn async_total_loss_means_no_replies() {
        let faults = FaultPlan::with_drop_prob(1.0).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 40).with_faults(faults), 5)
            .with_async_epochs(StalenessBound::Unbounded);
        for _ in 0..20 {
            net.tick(&[true, true]);
        }
        assert_eq!(net.metrics().replies_received, 0);
        assert!(net.metrics().fallbacks > 0);
    }

    #[test]
    fn execution_models_are_reported_through_the_trait() {
        let quiesced = EventRuntime::new(DistConfig::new(params(), 4), 1);
        let asynch = EventRuntime::new(DistConfig::new(params(), 4), 1)
            .with_async_epochs(StalenessBound::Epochs(3));
        assert_eq!(
            ProtocolRuntime::execution_model(&quiesced),
            ExecutionModel::EpochQuiesced
        );
        assert_eq!(
            ProtocolRuntime::execution_model(&asynch),
            ExecutionModel::FullyAsync
        );
        assert!(!quiesced.is_async());
        assert!(asynch.is_async());
        assert_eq!(asynch.staleness_bound(), Some(StalenessBound::Epochs(3)));
        assert_eq!(quiesced.staleness_bound(), None);
        assert_eq!(asynch.label(), "social (event-driven, async)");
    }

    #[test]
    fn staleness_bound_allows_and_formats() {
        assert!(StalenessBound::Unbounded.allows(u64::MAX));
        assert!(StalenessBound::Epochs(2).allows(2));
        assert!(!StalenessBound::Epochs(2).allows(3));
        assert_eq!(StalenessBound::Unbounded.to_string(), "unbounded");
        assert_eq!(StalenessBound::Epochs(4).to_string(), "4");
    }

    /// Drives one runtime config under every scheduler/shard-count in
    /// `kinds`, returning (per-tick distributions, per-tick round
    /// metrics, final cumulative metrics) per kind.
    #[allow(clippy::type_complexity)]
    fn drive_kinds(
        make: impl Fn() -> EventRuntime,
        kinds: &[SchedulerKind],
        ticks: u64,
    ) -> Vec<(Vec<Vec<f64>>, Vec<RoundMetrics>, Metrics)> {
        kinds
            .iter()
            .map(|&kind| {
                let mut net = make().with_scheduler(kind);
                let mut dists = Vec::new();
                let mut rms = Vec::new();
                for t in 0..ticks {
                    rms.push(net.tick(&[t % 2 == 0, t % 3 == 0]));
                    dists.push(net.distribution());
                }
                (dists, rms, EventRuntime::metrics(&net))
            })
            .collect()
    }

    #[test]
    fn sharded_results_are_byte_identical_across_shard_counts() {
        let kinds = [
            SchedulerKind::ShardedCalendar { shards: 1 },
            SchedulerKind::ShardedCalendar { shards: 2 },
            SchedulerKind::ShardedCalendar { shards: 4 },
            SchedulerKind::ShardedCalendar { shards: 7 },
        ];
        let faults = FaultPlan::with_drop_prob(0.3)
            .unwrap()
            .crash(5, 9)
            .crash(24, 9);
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 50).with_faults(faults.clone()),
                11,
            )
        };
        let runs = drive_kinds(make, &kinds, 30);
        for run in &runs[1..] {
            assert_eq!(
                runs[0].0, run.0,
                "distributions diverged across shard counts"
            );
            assert_eq!(
                runs[0].1, run.1,
                "round metrics diverged across shard counts"
            );
            assert_eq!(runs[0].2, run.2, "metrics diverged across shard counts");
        }
    }

    #[test]
    fn sharded_async_results_are_byte_identical_across_shard_counts() {
        let kinds = [
            SchedulerKind::ShardedCalendar { shards: 1 },
            SchedulerKind::ShardedCalendar { shards: 2 },
            SchedulerKind::ShardedCalendar { shards: 4 },
        ];
        let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(faults.clone()),
                13,
            )
            .with_async_epochs(StalenessBound::Epochs(1))
        };
        let runs = drive_kinds(make, &kinds, 40);
        for run in &runs[1..] {
            assert_eq!(
                runs[0].0, run.0,
                "distributions diverged across shard counts"
            );
            assert_eq!(
                runs[0].1, run.1,
                "round metrics diverged across shard counts"
            );
            assert_eq!(runs[0].2, run.2, "metrics diverged across shard counts");
        }
    }

    /// Runs `ticks` rounds with the given execution knobs and returns
    /// the full observable trajectory (distributions, round metrics,
    /// cumulative metrics).
    fn drive_tuned(
        make: impl Fn() -> EventRuntime,
        shards: usize,
        lookahead: u64,
        threads: usize,
        ticks: u64,
    ) -> (Vec<Vec<f64>>, Vec<RoundMetrics>, Metrics) {
        let mut net = make()
            .with_scheduler(SchedulerKind::ShardedCalendar { shards })
            .with_lookahead(lookahead)
            .with_threads(threads)
            // Force the pool path even at unit-test fleet sizes.
            .with_parallel_threshold(0);
        let mut dists = Vec::new();
        let mut rms = Vec::new();
        for t in 0..ticks {
            rms.push(net.tick(&[t % 2 == 0, t % 3 == 0]));
            dists.push(net.distribution());
        }
        (dists, rms, net.metrics())
    }

    #[test]
    fn lookahead_results_are_byte_identical_across_shards_and_threads() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap().crash(5, 9);
        for async_mode in [false, true] {
            let make = || {
                let net = EventRuntime::new(
                    DistConfig::new(params(), 50).with_faults(faults.clone()),
                    11,
                );
                if async_mode {
                    net.with_async_epochs(StalenessBound::Epochs(1))
                } else {
                    net
                }
            };
            for lookahead in [2, 4] {
                let baseline = drive_tuned(make, 1, lookahead, 1, 25);
                for (shards, threads) in [(1, 2), (4, 1), (4, 2), (7, 2)] {
                    let run = drive_tuned(make, shards, lookahead, threads, 25);
                    assert_eq!(
                        baseline, run,
                        "trajectory diverged at async={async_mode} K={lookahead} \
                         shards={shards} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn lookahead_one_replays_the_classic_trajectory() {
        // K = 1 must replay existing seeds bit-for-bit, pool or not.
        let make = || EventRuntime::new(DistConfig::new(params(), 50), 11);
        let classic = drive_kinds(make, &[SchedulerKind::ShardedCalendar { shards: 4 }], 25);
        let tuned = drive_tuned(make, 4, 1, 2, 25);
        assert_eq!(classic[0], tuned, "K = 1 diverged from the classic path");
    }

    #[test]
    #[should_panic(expected = "lookahead > 1 requires SchedulerKind::ShardedCalendar")]
    fn single_heap_tick_rejects_lookahead() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 8), 1).with_lookahead(2);
        net.tick(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "lookahead must be in")]
    fn zero_lookahead_is_rejected() {
        let _ = EventRuntime::new(DistConfig::new(params(), 8), 1).with_lookahead(0);
    }

    #[test]
    #[should_panic(expected = "lookahead must be in")]
    fn oversized_lookahead_is_rejected() {
        let _ =
            EventRuntime::new(DistConfig::new(params(), 8), 1).with_lookahead(MAX_LOOKAHEAD + 1);
    }

    #[test]
    fn lookahead_and_thread_knobs_are_reported() {
        let net = EventRuntime::new(DistConfig::new(params(), 8), 1)
            .with_lookahead(4)
            .with_threads(2);
        assert_eq!(net.lookahead(), 4);
        assert_eq!(net.threads(), 2);
        let default = EventRuntime::new(DistConfig::new(params(), 8), 1);
        assert_eq!(default.lookahead(), 1);
        assert_eq!(default.threads(), 0);
    }

    #[test]
    fn sharded_clean_network_converges_to_best_option() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 500), 2)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let rewards = [rng.gen_bool(0.9), rng.gen_bool(0.3)];
            net.tick(&rewards);
        }
        assert!(
            net.distribution()[0] > 0.8,
            "share {}",
            net.distribution()[0]
        );
    }

    #[test]
    fn sharded_async_clean_network_converges_to_best_option() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 500), 2)
            .with_async_epochs(StalenessBound::Unbounded)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..200 {
            let rewards = [rng.gen_bool(0.9), rng.gen_bool(0.3)];
            net.tick(&rewards);
        }
        assert!(
            net.distribution()[0] > 0.8,
            "share {}",
            net.distribution()[0]
        );
    }

    #[test]
    fn sharded_epoch_metrics_are_internally_consistent() {
        let faults = FaultPlan::with_drop_prob(0.3).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 64).with_faults(faults), 4)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        for _ in 0..50 {
            let rm = net.tick(&[true, false]);
            assert!(rm.committed <= rm.alive);
            assert!(rm.alive <= 64);
            assert!(rm.replies_received <= rm.queries_sent);
            let handled = rm.explorations + rm.fallbacks + rm.replies_received;
            assert!(
                handled >= rm.alive as u64,
                "every alive node resolves stage 1"
            );
        }
        assert!(net.max_queue_depth() <= net.queue_bound());
        let m = EventRuntime::metrics(&net);
        assert_eq!(m.rounds, 50);
        assert!(m.messages_per_round() > 0.0);
    }

    #[test]
    fn sharded_scheduler_reports_effective_shard_count() {
        let net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        assert_eq!(net.scheduler(), SchedulerKind::SingleHeap);
        let sharded = net.with_scheduler(SchedulerKind::ShardedCalendar { shards: 2 });
        assert_eq!(
            sharded.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 2 }
        );
        // Shard counts beyond the fleet size clamp to one node/shard.
        let tiny = EventRuntime::new(DistConfig::new(params(), 3), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 16 });
        assert_eq!(
            tiny.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 3 }
        );
        // An awkward split (9 nodes, 8 shards) still yields exactly 8
        // lanes — the partition balances range sizes instead of
        // rounding the lane count down.
        let mut awkward = EventRuntime::new(DistConfig::new(params(), 9), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 8 });
        assert_eq!(
            awkward.scheduler(),
            SchedulerKind::ShardedCalendar { shards: 8 }
        );
        let rm = awkward.tick(&[true, false]);
        assert_eq!(rm.alive, 9);
        // Selecting the single heap again is a no-op round trip.
        let back = tiny.with_scheduler(SchedulerKind::SingleHeap);
        assert_eq!(back.scheduler(), SchedulerKind::SingleHeap);
    }

    #[test]
    fn sharded_local_epochs_and_spread_are_tracked() {
        let faults = FaultPlan::with_drop_prob(0.5).unwrap();
        let mut net = EventRuntime::new(DistConfig::new(params(), 200).with_faults(faults), 5)
            .with_async_epochs(StalenessBound::Unbounded)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        let mut max_spread = 0;
        for t in 1..=60u64 {
            net.tick(&[true, false]);
            max_spread = max_spread.max(net.epoch_spread());
            for i in [0usize, 99, 199] {
                assert!(net.local_epoch(i) <= t + 2, "node {i} outran its cadence");
            }
        }
        assert!(max_spread > 0, "epochs never overlapped");
    }

    #[test]
    fn sharded_single_node_fleet_never_queries() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 1), 7)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        assert_eq!(EventRuntime::metrics(&net).queries_sent, 0);
        let m = EventRuntime::metrics(&net);
        assert!(m.explorations + m.fallbacks > 0);
    }

    #[test]
    fn sharded_deterministic_for_fixed_seed() {
        let run = |seed: u64| {
            let faults = FaultPlan::with_drop_prob(0.4).unwrap().crash(3, 10);
            let mut net =
                EventRuntime::new(DistConfig::new(params(), 50).with_faults(faults), seed)
                    .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
            let mut out = Vec::new();
            for t in 0..40 {
                net.tick(&[t % 2 == 0, t % 3 == 0]);
                out.push(net.distribution());
            }
            (out, EventRuntime::metrics(&net))
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
    }

    #[test]
    fn sharded_tiny_queue_bound_is_respected_under_load() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 128), 9)
            .with_queue_bound(1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        for _ in 0..30 {
            net.tick(&[true, false]);
        }
        assert!(net.max_queue_depth() <= 1);
        assert!(
            EventRuntime::metrics(&net).queue_drops > 0,
            "bound 1 never overflowed"
        );
        assert!(net.distribution()[0] > 0.5);
    }

    #[test]
    #[should_panic(expected = "shard count must be at least 1")]
    fn zero_shards_rejected() {
        let _ = EventRuntime::new(DistConfig::new(params(), 4), 1)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 0 });
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn scheduler_switch_after_first_tick_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true, false]);
        let _ = net.with_scheduler(SchedulerKind::ShardedCalendar { shards: 2 });
    }

    #[test]
    #[should_panic(expected = "before the first tick")]
    fn async_switch_after_first_tick_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true, false]);
        let _ = net.with_async_epochs(StalenessBound::Unbounded);
    }

    #[test]
    #[should_panic(expected = "queue bound")]
    fn zero_queue_bound_rejected() {
        let _ = EventRuntime::new(DistConfig::new(params(), 4), 1).with_queue_bound(0);
    }

    #[test]
    #[should_panic(expected = "rewards length")]
    fn reward_width_mismatch_rejected() {
        let mut net = EventRuntime::new(DistConfig::new(params(), 4), 1);
        net.tick(&[true]);
    }

    /// A kitchen-sink membership script: a restart, a crash, a region
    /// blinking out, and a late flash crowd, over a 48-node fleet.
    fn churn_faults() -> FaultPlan {
        FaultPlan::with_drop_prob(0.2)
            .unwrap()
            .crash(7, 12)
            .leave(3, 4)
            .rejoin(3, 9)
            .region_loss(20..28, 6, 14)
            .flash_crowd(6, 10)
    }

    #[test]
    fn quiesced_leave_and_rejoin_bootstrap_through_the_protocol() {
        let faults = FaultPlan::none().leave(3, 4).rejoin(3, 9);
        let mut net = EventRuntime::new(DistConfig::new(params(), 32).with_faults(faults), 21);
        for t in 1..=12u64 {
            let rm = net.tick(&[true, false]);
            match t {
                4 => {
                    assert_eq!(rm.leaves, 1);
                    assert_eq!(rm.alive, 31);
                }
                9 => {
                    assert_eq!(rm.rejoins, 1);
                    assert_eq!(rm.bootstrapping, 1);
                    assert_eq!(rm.alive, 32);
                }
                _ => {
                    assert_eq!(rm.leaves + rm.joins + rm.rejoins, 0);
                    assert_eq!(rm.bootstrapping, 0);
                }
            }
        }
        let m = EventRuntime::metrics(&net);
        assert_eq!((m.leaves, m.rejoins, m.joins), (1, 1, 0));
        assert_eq!(net.alive_count(), 32);
    }

    #[test]
    fn async_rejoiner_bootstraps_on_its_own_cadence() {
        let faults = FaultPlan::none().leave(5, 3).rejoin(5, 8);
        let mut net = EventRuntime::new(DistConfig::new(params(), 24).with_faults(faults), 23)
            .with_async_epochs(StalenessBound::Unbounded);
        let mut saw_boot = false;
        for t in 1..=20u64 {
            let rm = net.tick(&[true, false]);
            if t == 3 {
                assert_eq!(rm.leaves, 1);
                assert_eq!(rm.alive, 23);
            }
            if t == 8 {
                assert_eq!(rm.rejoins, 1);
                assert_eq!(rm.alive, 24);
            }
            saw_boot |= rm.bootstrapping > 0;
            if t > 10 {
                assert_eq!(rm.bootstrapping, 0, "bootstrap never completed");
            }
        }
        assert!(saw_boot, "the rejoin never showed in the gauge");
        let m = EventRuntime::metrics(&net);
        assert_eq!((m.leaves, m.rejoins), (1, 1));
        // The rejoined node keeps making progress after bootstrap.
        assert!(net.local_epoch(5) > 0);
    }

    #[test]
    fn flash_crowd_nodes_join_the_sharded_distribution_late() {
        let faults = FaultPlan::none().flash_crowd(6, 10);
        let mut net = EventRuntime::new(DistConfig::new(params(), 48).with_faults(faults), 29)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: 4 });
        // Absent nodes hold no commitment before their join round.
        assert_eq!(net.counts().iter().sum::<u64>(), 42);
        assert_eq!(net.alive_count(), 42);
        for t in 1..=12u64 {
            let rm = net.tick(&[true, false]);
            if t == 10 {
                assert_eq!(rm.joins, 6);
                assert_eq!(rm.bootstrapping, 6);
            }
            assert_eq!(rm.alive, if t < 10 { 42 } else { 48 });
        }
        assert_eq!(net.alive_count(), 48);
    }

    #[test]
    fn sharded_churn_results_are_byte_identical_across_shard_counts() {
        let kinds = [
            SchedulerKind::ShardedCalendar { shards: 1 },
            SchedulerKind::ShardedCalendar { shards: 2 },
            SchedulerKind::ShardedCalendar { shards: 4 },
            SchedulerKind::ShardedCalendar { shards: 8 },
        ];
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                17,
            )
        };
        let runs = drive_kinds(make, &kinds, 30);
        for run in &runs[1..] {
            assert_eq!(
                runs[0].0, run.0,
                "distributions diverged across shard counts under churn"
            );
            assert_eq!(
                runs[0].1, run.1,
                "round metrics diverged across shard counts under churn"
            );
            assert_eq!(runs[0].2, run.2, "metrics diverged across shard counts");
        }
    }

    #[test]
    fn sharded_async_churn_results_are_byte_identical_across_shard_counts() {
        let kinds = [
            SchedulerKind::ShardedCalendar { shards: 1 },
            SchedulerKind::ShardedCalendar { shards: 2 },
            SchedulerKind::ShardedCalendar { shards: 4 },
            SchedulerKind::ShardedCalendar { shards: 8 },
        ];
        let make = || {
            EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                19,
            )
            .with_async_epochs(StalenessBound::Epochs(2))
        };
        let runs = drive_kinds(make, &kinds, 40);
        for run in &runs[1..] {
            assert_eq!(
                runs[0].0, run.0,
                "distributions diverged across shard counts under churn"
            );
            assert_eq!(
                runs[0].1, run.1,
                "round metrics diverged across shard counts under churn"
            );
            assert_eq!(runs[0].2, run.2, "metrics diverged across shard counts");
        }
    }

    #[test]
    fn rolling_restart_matches_between_schedulers_in_law_and_counters() {
        // The two schedulers draw from different RNG streams, so only
        // the deterministic membership arithmetic must agree exactly.
        let run = |kind: SchedulerKind| {
            let faults = FaultPlan::none().rolling_restart(8, 4);
            let mut net = EventRuntime::new(DistConfig::new(params(), 32).with_faults(faults), 31)
                .with_scheduler(kind);
            let mut alive = Vec::new();
            for _ in 0..24 {
                alive.push(net.tick(&[true, false]).alive);
            }
            (alive, {
                let m = EventRuntime::metrics(&net);
                (m.leaves, m.rejoins, m.joins)
            })
        };
        let single = run(SchedulerKind::SingleHeap);
        let sharded = run(SchedulerKind::ShardedCalendar { shards: 4 });
        assert_eq!(single, sharded);
        assert_eq!(single.1, (32, 32, 0), "every node left and came back");
        assert!(
            *single.0.iter().min().unwrap() >= 24,
            "too many down at once"
        );
    }

    #[test]
    fn churn_epoch_message_bound_holds() {
        // Per quiesced epoch: at most MAX_QUERY_RETRIES queries per
        // present node, and never more replies than queries.
        for kind in [
            SchedulerKind::SingleHeap,
            SchedulerKind::ShardedCalendar { shards: 4 },
        ] {
            let mut net = EventRuntime::new(
                DistConfig::new(params(), 48).with_faults(churn_faults()),
                37,
            )
            .with_scheduler(kind);
            for _ in 0..20 {
                let rm = net.tick(&[true, false]);
                let cap = 2 * MAX_QUERY_RETRIES as u64 * rm.alive as u64;
                assert!(
                    rm.queries_sent + rm.replies_received <= cap,
                    "epoch message bound violated under churn ({kind})"
                );
            }
        }
    }
}
