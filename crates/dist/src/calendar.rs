//! The sharded calendar-queue scheduler: the [`EventRuntime`]'s
//! scalable execution engine, selected with
//! [`SchedulerKind::ShardedCalendar`].
//!
//! [`EventRuntime`]: crate::EventRuntime
//!
//! # Why
//!
//! The default single-heap scheduler keys every pending event in one
//! `BinaryHeap`, so each push/pop costs `O(log E)` comparisons over a
//! heap that holds several events per node — at fleet scale the sift
//! paths are cache-miss chains through tens of megabytes, and they
//! dominate the tick. This module replaces the heap with a **calendar
//! queue**: events are bucketed by virtual-time slot in a fixed ring
//! ([`RING_SLOTS`] wide), so enqueue is an `O(1)` append and dequeue
//! is a linear walk of one bucket. On top of the calendar, the fleet
//! is **sharded** by destination-node range: each shard owns the
//! per-node state of a contiguous node block and advances its own
//! local event stream one time window at a time, handing cross-shard
//! messages to per-shard-pair mailboxes that are drained at window
//! boundaries. Shards run on a persistent
//! [`sociolearn_sim::WorkerPool`] when a window is dense enough to pay
//! for the fan-out, and fall back to an in-thread sweep (with
//! identical results) when it is not.
//!
//! # Lookahead: multi-core execution in K-window blocks
//!
//! The protocol's message-latency floor is the classic
//! conservative-PDES *lookahead*: every `QueryArrive`/`ReplyArrive`
//! travels at least one tick, so shards can safely advance more than
//! one window between synchronizations. With
//! [`EventRuntime::with_lookahead(K)`] the virtual-time axis is cut
//! into blocks of K windows at absolute multiples of K, each lane
//! processes a whole block from its own calendar with **no**
//! cross-shard synchronization inside it, and the per-shard-pair
//! mailboxes are handed over once at the block barrier (each lane
//! pours its mail into its calendar at the start of its next block,
//! on its own thread). What makes that
//! sound is a *message due-time adjustment*: a message sent at `now`
//! with latency `l` becomes due at `max(now + l, block_end(now))` —
//! never inside the sender's current block. The adjustment applies to
//! every message, same-shard or cross-shard, so it is a property of
//! the *trajectory*, not of the partition: for a fixed K the results
//! stay byte-identical across shard counts and thread counts. At the
//! default `K = 1`, `block_end(now) = now + 1 <= now + l`, so the
//! adjustment is the identity and existing seeds replay bit-for-bit.
//! `K` is capped at [`MAX_LOOKAHEAD`]`= MAX_MESSAGE_LATENCY`, which
//! keeps two invariants intact: no adjusted delay exceeds the
//! protocol's existing latency ceiling (so the calendar ring horizon
//! is unchanged and `Calendar::push` cannot hit its ring-collision
//! panic), and a query round trip still always beats its retry
//! timeout (`2·max(l, K) + 2·DELIVER_DELAY < RETRY_TIMEOUT`), so the
//! retry/fallback structure of the law is preserved. Lanes run on a
//! persistent worker-thread pool ([`with_threads`]) — each lane's
//! block is a pure function of the lane and the shared tick context,
//! so the thread count only changes where work runs, never what it
//! computes.
//!
//! [`EventRuntime::with_lookahead(K)`]: crate::EventRuntime::with_lookahead
//! [`with_threads`]: crate::EventRuntime::with_threads
//!
//! # Determinism contract
//!
//! The engine is deterministic, and — stronger — its behavior is a
//! function of the seed alone, **independent of the shard count**:
//!
//! * Every event carries an intrinsic `(time, source node, per-source
//!   sequence number)` key. Within a window, a shard processes its due
//!   events in ascending `(src, seq)` order, so the total order within
//!   each window is fixed no matter which mailbox an event travelled
//!   through or how many shards exist.
//! * Randomness comes from **per-node RNG streams** split from the
//!   root seed (one `SmallRng` per node, seeded via a SplitMix64
//!   derivation). A node draws only from its own stream, so regrouping
//!   nodes into different shard counts cannot reorder anyone's draws.
//! * Every event the protocol schedules has a strictly positive
//!   delay, and under lookahead K every *message* is additionally
//!   deferred to the sender's block boundary, so nothing produced
//!   inside a K-window block can be due in that same block —
//!   cross-shard mailboxes drained at the barrier always deliver in
//!   time, and shards never need to peek at each other mid-block.
//!
//! Together these give the invariant the proptest suite pins down:
//! for a fixed seed, ticks produce **byte-identical metrics and
//! distributions for any shard count**, and the law of the process
//! matches the single-heap scheduler (KS-tested in
//! `tests/equivalence.rs`).
//!
//! # Membership churn and online rebalancing
//!
//! Scripted joins, leaves, and rejoins (the [`FaultPlan`] membership
//! builders) land at tick boundaries, mirroring the single-heap
//! scheduler decision for decision: a departing node's commitment
//! leaves the lane's popularity counts and its pending attempt is
//! wiped; a (re)joining node enters bootstrapping and re-learns a
//! commitment through the ordinary query/reply protocol — no state
//! transfer, no new message types. Because churn skews the load of a
//! fixed node→shard split, the engine also **rebalances ownership
//! online**: on any tick whose boundary carries membership
//! transitions, lane boundaries are recomputed to even out *present*
//! nodes and each migrating node's full state (choices, inbox depth,
//! local epoch, RNG stream, pending calendar entries) moves to its new
//! lane. An inbox is a bounded depth counter; messages ride in their
//! `Deliver` event, so queued mail moves with the calendar entries.
//! The move happens only between windows — when cross-shard
//! mailboxes are provably empty — and the same per-node-stream +
//! intrinsic-key argument that makes the partition invisible to the
//! protocol makes rebalancing semantically a no-op: byte-identity
//! across shard counts holds even while ownership shifts under churn.
//!
//! [`FaultPlan`]: crate::FaultPlan

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_core::Params;
use sociolearn_sim::WorkerPool;

use crate::cast::index_u32;
use crate::event::{
    Event, Mode, Pending, StalenessBound, ASYNC_EPOCH_PERIOD, ASYNC_WAKE_JITTER, DELIVER_DELAY,
    MAX_MESSAGE_LATENCY, RETRY_TIMEOUT, WAKE_SPREAD,
};
use crate::soa::{AlignedU32s, AlignedU64s};
use crate::{
    DistConfig, MembershipTracker, NodeState, RoundMetrics, Transition, MAX_QUERY_RETRIES,
    NO_CHOICE,
};

/// Number of time slots in a [`Calendar`] ring. A power of two, and
/// strictly larger than the longest delay the protocol ever schedules
/// (the async epoch period plus its wake jitter), so at most one
/// distinct virtual time can occupy a slot at any moment.
pub const RING_SLOTS: usize = 128;

// The ring must cover the longest scheduling delay: the async cadence
// (period + jitter), the initial wake spread, and a retry timeout all
// have to fit strictly inside one rotation.
const _: () = assert!(ASYNC_EPOCH_PERIOD + ASYNC_WAKE_JITTER < RING_SLOTS as u64);
const _: () = assert!(WAKE_SPREAD < RING_SLOTS as u64);
const _: () = assert!(RETRY_TIMEOUT < RING_SLOTS as u64);

/// Fewest due events in a block before the engine fans the shards out
/// on the thread pool; sparser blocks are swept in-thread (the two
/// paths produce identical results — this is a cost knob, not a
/// semantic one). Overridable per runtime via
/// [`EventRuntime::with_parallel_threshold`](crate::EventRuntime::with_parallel_threshold).
pub(crate) const PARALLEL_WINDOW_EVENTS: usize = 2_048;

/// Largest accepted lookahead `K` for
/// [`EventRuntime::with_lookahead`](crate::EventRuntime::with_lookahead).
///
/// Tied to [`MAX_MESSAGE_LATENCY`]: the lookahead adjustment defers a
/// message due at `now + l` to at most `now + max(l, K)`, so with
/// `K <= MAX_MESSAGE_LATENCY` no event's delay ever exceeds the
/// protocol's existing latency ceiling. That is the ring-horizon
/// guard (a K-window block can never push an entry beyond one
/// [`RING_SLOTS`] rotation, so `Calendar::push`'s collision panic is
/// unreachable) and the law guard (a query round trip still beats its
/// retry timeout — checked below).
pub const MAX_LOOKAHEAD: u64 = MAX_MESSAGE_LATENCY;

// The lookahead cap may not extend the scheduling horizon beyond the
// latency ceiling already covered by the ring asserts above...
const _: () = assert!(MAX_LOOKAHEAD <= MAX_MESSAGE_LATENCY);
// ...and a maximally-deferred query + reply round trip (each leg at
// most max(MAX_MESSAGE_LATENCY, MAX_LOOKAHEAD) = MAX_MESSAGE_LATENCY,
// plus an inbox Deliver hop per leg) must still preempt the sender's
// retry timeout, or lookahead would change the retry/fallback law.
const _: () = assert!(2 * MAX_MESSAGE_LATENCY + 2 * DELIVER_DELAY < RETRY_TIMEOUT);

/// The absolute-time end of the lookahead block containing `now`:
/// the next multiple of `lookahead` strictly after `now`.
#[inline]
fn block_end_of(now: u64, lookahead: u64) -> u64 {
    (now / lookahead + 1) * lookahead
}

/// The due time of a message sent at `now` with `latency`: deferred
/// to the sender's block boundary under lookahead (the identity when
/// `lookahead == 1`, since `latency >= 1`). Partition-independent —
/// it applies whether or not the message crosses shards — which is
/// what keeps trajectories byte-identical across shard counts.
#[inline]
fn msg_at(now: u64, latency: u64, ctx: &Ctx) -> u64 {
    (now + latency).max(block_end_of(now, ctx.lookahead))
}

/// Resolves the `threads` knob: `0` means "ask the OS", anything else
/// is taken literally. Thread count never affects results — only how
/// many cores sweep the lanes of a dense block.
fn effective_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        threads
    }
}

/// Which scheduler drives the [`EventRuntime`](crate::EventRuntime).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// The original scheduler: one global `BinaryHeap` keyed
    /// `(time, seq)`, one global RNG stream. Exactly the pre-sharding
    /// behavior, kept so every test can run both schedulers.
    SingleHeap,
    /// The sharded calendar-queue engine of this module. `shards` is
    /// clamped to the fleet size; randomness is split into per-node
    /// streams, so results are byte-identical across shard counts.
    ShardedCalendar {
        /// Number of destination-node-range shards (at least 1).
        shards: usize,
    },
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerKind::SingleHeap => f.write_str("single-heap"),
            SchedulerKind::ShardedCalendar { shards } => {
                write!(f, "sharded-calendar({shards})")
            }
        }
    }
}

/// One scheduled item in a [`Calendar`]: the payload plus the
/// intrinsic ordering key `(at, src, seq)` — virtual time, source
/// node, and the source's own monotone sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry<E> {
    /// Virtual time the entry is due.
    pub at: u64,
    /// The node (or producer id) that scheduled the entry.
    pub src: u32,
    /// The producer's own sequence number — FIFO tie-break for entries
    /// of the same `(at, src)`.
    pub seq: u32,
    /// The scheduled payload.
    pub payload: E,
}

impl<E> Entry<E> {
    /// The packed `(src, seq)` tie-break key: within one time slot,
    /// entries pop in ascending order of this key.
    fn order_key(&self) -> u64 {
        (u64::from(self.src) << 32) | u64::from(self.seq)
    }
}

/// A fixed-ring calendar queue: `O(1)` amortized enqueue, bucket-walk
/// dequeue, deterministic `(time, src, seq)` pop order.
///
/// The caller must keep every pending entry within one ring rotation
/// ([`RING_SLOTS`] virtual-time units) of the earliest pending entry —
/// the event runtime guarantees this by construction (all protocol
/// delays are shorter than the ring), and `push` checks it in debug
/// builds.
///
/// # Example
///
/// ```
/// use sociolearn_dist::{Calendar, Entry};
///
/// let mut cal = Calendar::new();
/// cal.push(Entry { at: 3, src: 1, seq: 0, payload: "b" });
/// cal.push(Entry { at: 1, src: 7, seq: 0, payload: "a" });
/// assert_eq!(cal.next_time(0), Some(1));
/// let due = cal.take_due(1);
/// assert_eq!(due[0].payload, "a");
/// assert_eq!(cal.next_time(2), Some(3));
/// ```
#[derive(Debug, Clone)]
pub struct Calendar<E> {
    /// `RING_SLOTS` buckets indexed by `time % RING_SLOTS`; each holds
    /// entries for exactly one virtual time at any moment.
    buckets: Vec<Vec<Entry<E>>>,
    /// Recycled bucket storage, so steady-state windows allocate
    /// nothing.
    spare: Vec<Entry<E>>,
    /// Total pending entries.
    len: usize,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Calendar::new()
    }
}

impl<E> Calendar<E> {
    /// An empty calendar.
    pub fn new() -> Self {
        Calendar {
            buckets: (0..RING_SLOTS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            len: 0,
        }
    }

    /// Pending entries across all slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `entry`. `O(1)`: one append to the slot
    /// `entry.at % RING_SLOTS`.
    ///
    /// # Panics
    ///
    /// Panics if `entry.at` collides with a different virtual time
    /// already occupying its ring slot — i.e. the caller violated the
    /// one-rotation window contract. A silent collision would corrupt
    /// the queue (mixed-time buckets, misreported `next_time`), so the
    /// single-comparison guard stays on in release builds.
    pub fn push(&mut self, entry: Entry<E>) {
        let slot = (entry.at as usize) & (RING_SLOTS - 1);
        let bucket = &mut self.buckets[slot];
        assert!(
            bucket.first().is_none_or(|e| e.at == entry.at),
            "calendar ring collision: slot {slot} holds t={} but got t={}",
            bucket.first().map_or(0, |e| e.at),
            entry.at,
        );
        bucket.push(entry);
        self.len += 1;
    }

    /// Entries due exactly at `now`, without removing them.
    pub fn due_len(&self, now: u64) -> usize {
        let bucket = &self.buckets[(now as usize) & (RING_SLOTS - 1)];
        if bucket.first().is_some_and(|e| e.at == now) {
            bucket.len()
        } else {
            0
        }
    }

    /// Removes and returns every entry due at `now`, sorted by the
    /// deterministic `(src, seq)` tie-break. Returns an empty vector
    /// when nothing is due. Hand the vector back through
    /// [`recycle`](Calendar::recycle) to keep the queue
    /// allocation-free in steady state.
    pub fn take_due(&mut self, now: u64) -> Vec<Entry<E>> {
        let slot = (now as usize) & (RING_SLOTS - 1);
        if self.buckets[slot].first().is_none_or(|e| e.at != now) {
            return Vec::new();
        }
        let mut due = std::mem::replace(&mut self.buckets[slot], std::mem::take(&mut self.spare));
        self.len -= due.len();
        due.sort_unstable_by_key(Entry::order_key);
        due
    }

    /// Returns a drained vector from [`take_due`](Calendar::take_due)
    /// so its capacity is reused by a later window.
    pub fn recycle(&mut self, mut bucket: Vec<Entry<E>>) {
        bucket.clear();
        if bucket.capacity() > self.spare.capacity() {
            self.spare = bucket;
        }
    }

    /// Removes and returns every pending entry, in no particular
    /// order. Used when shard ownership is rebalanced: the drained
    /// entries are re-pushed into their new owners' calendars, and
    /// [`take_due`](Calendar::take_due) re-derives the deterministic
    /// order from the intrinsic keys.
    pub fn drain_all(&mut self) -> Vec<Entry<E>> {
        let mut out = Vec::with_capacity(self.len);
        for bucket in &mut self.buckets {
            out.append(bucket);
        }
        self.len = 0;
        out
    }

    /// The earliest pending virtual time at or after `from`, scanning
    /// at most one ring rotation. `None` when the calendar is empty.
    pub fn next_time(&self, from: u64) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        for offset in 0..RING_SLOTS as u64 {
            let t = from + offset;
            let bucket = &self.buckets[(t as usize) & (RING_SLOTS - 1)];
            if let Some(first) = bucket.first() {
                debug_assert_eq!(first.at, t, "pending entry outside the ring window");
                return Some(t);
            }
        }
        None
    }
}

/// SplitMix64 finalizer used to derive per-node seeds from the root
/// seed: adjacent node indices map to decorrelated stream seeds, and
/// `SmallRng::seed_from_u64` expands each another SplitMix64 round.
fn node_stream_seed(root: u64, node: usize) -> u64 {
    let mut z = root
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The node an event is processed at — the shard-routing key.
fn event_target(ev: &Event) -> u32 {
    match ev {
        Event::Wake { node, .. }
        | Event::ReplyArrive { node, .. }
        | Event::DeliverQuery { node, .. }
        | Event::DeliverReply { node, .. }
        | Event::Timeout { node, .. } => *node,
        Event::QueryArrive { to, .. } => *to,
    }
}

/// The node→shard partition: lane `k` owns the contiguous node range
/// `bounds[k]..bounds[k + 1]`. Boundaries are chosen to even out the
/// *present* node count per lane (absent nodes cost nothing — they
/// schedule no events) and move when membership churn shifts the
/// load; the lane count itself is fixed at construction.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ShardMap {
    /// `lanes + 1` monotone boundaries; `bounds[0] == 0` and
    /// `bounds[lanes] == n`. A lane's range may be empty when fewer
    /// present nodes exist than lanes.
    bounds: Vec<u32>,
}

impl ShardMap {
    /// The effective lane count for `shards` requested over `n` nodes.
    fn lane_count(n: usize, shards: usize) -> usize {
        shards.clamp(1, n)
    }

    /// A partition of `n` nodes into `lanes` ranges balanced by
    /// *present* node count: lane `k` owns the present nodes with
    /// presence-rank in `[⌈alive·k/lanes⌉, ⌈alive·(k+1)/lanes⌉)`, so
    /// per-lane present loads differ by at most one. Trailing absent
    /// nodes land in the last lane.
    fn balanced(n: usize, lanes: usize, members: &MembershipTracker) -> Self {
        debug_assert!(lanes >= 1 && lanes <= n.max(1));
        let alive = (0..n).filter(|&i| members.is_present(i)).count();
        let mut bounds = vec![0u32; lanes + 1];
        bounds[lanes] = index_u32(n);
        let mut prefix = 0usize; // present nodes among 0..idx
        let mut k = 1usize;
        for idx in 0..n {
            while k < lanes && prefix >= (alive * k).div_ceil(lanes) {
                bounds[k] = index_u32(idx);
                k += 1;
            }
            if members.is_present(idx) {
                prefix += 1;
            }
        }
        while k < lanes {
            bounds[k] = index_u32(n);
            k += 1;
        }
        ShardMap { bounds }
    }

    /// Number of lanes in the partition.
    fn lanes(&self) -> usize {
        self.bounds.len() - 1
    }

    /// The lane owning `node`: the last lane whose base is at or
    /// below it. `O(log lanes)` over a handful of boundaries.
    #[inline]
    fn shard_of(&self, node: usize) -> usize {
        self.bounds.partition_point(|&b| b as usize <= node) - 1
    }

    /// The first node id of `lane`.
    fn base_of(&self, lane: usize) -> usize {
        self.bounds[lane] as usize
    }

    /// One past the last node id of `lane`.
    fn end_of(&self, lane: usize) -> usize {
        self.bounds[lane + 1] as usize
    }
}

/// Execution-tuning knobs the [`EventRuntime`](crate::EventRuntime)
/// hands the engine each tick: none of them changes results, only
/// where and in how large blocks the work runs (`lookahead` changes
/// the trajectory — deliberately — but never varies with `threads`
/// or `parallel_threshold`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecTuning {
    /// Block width K in windows; 1 = the classic per-window barrier.
    pub(crate) lookahead: u64,
    /// Worker threads for dense blocks; 0 = auto (one per core),
    /// 1 = always in-thread.
    pub(crate) threads: usize,
    /// Fewest due events in a block before fanning out.
    pub(crate) parallel_threshold: usize,
}

impl Default for ExecTuning {
    fn default() -> Self {
        ExecTuning {
            lookahead: 1,
            threads: 0,
            parallel_threshold: PARALLEL_WINDOW_EVENTS,
        }
    }
}

/// Read-only per-tick context shared by every shard. Owned (no
/// borrows) so lane jobs holding an `Arc<Ctx>` are `'static` and can
/// run on the persistent worker pool.
struct Ctx {
    params: Params,
    mode: Mode,
    n: usize,
    m: usize,
    /// The node→shard partition (owns event routing). A per-tick
    /// clone: rebalancing replaces the engine's map between ticks, so
    /// the context pins the partition the whole tick routes through.
    map: ShardMap,
    mu: f64,
    drop_prob: f64,
    has_faults: bool,
    queue_bound: usize,
    /// The 1-based runtime round (the membership clock).
    t: u64,
    /// Lookahead block width K (windows per barrier).
    lookahead: u64,
    rewards: Vec<bool>,
    /// Per-node presence this round, indexed by global node id — a
    /// snapshot of `MembershipTracker::is_present` maintained
    /// incrementally by the engine so worker threads never touch the
    /// tracker itself.
    present: Arc<Vec<bool>>,
}

/// Per-node protocol state a [`ShardLane`] owns — the same inventory
/// as the single-heap engine (commitment, one-slot history, local
/// epoch) plus the per-source sequence counter and incarnation tag
/// that give the sharded engine its intrinsic `(time, src, seq)`
/// total order. The inbox is transport bookkeeping outside this
/// budget: a bounded depth counter; messages ride in their `Deliver`
/// event. Still a constant footprint: rebalancing hands these across
/// lanes, it never grows them.
pub(crate) const SHARD_LANE_NODE_STATE_BYTES: usize = 2 * std::mem::size_of::<NodeState>()
    + std::mem::size_of::<u64>()
    + 2 * std::mem::size_of::<u32>();

// Compile-time bounded-memory budget for the sharded engine,
// mirroring `EVENT_NODE_STATE_BYTES` in `event.rs`.
const _: () = assert!(SHARD_LANE_NODE_STATE_BYTES <= 6 * crate::NODE_STATE_BYTES);

/// What a lane mailed to its peers during its last block: a count per
/// ring slot over the span `[lo, hi]` of arrival times. The engine
/// reads it between blocks to find the next window and size the next
/// block while the mail itself still waits in the peers' inbound
/// slots, so the mail is poured in by the next block's lane jobs
/// rather than by a pool hand-off of its own.
#[derive(Debug, Clone)]
struct Posted {
    counts: [u32; RING_SLOTS],
    lo: u64,
    hi: u64,
}

impl Posted {
    fn new() -> Self {
        Posted {
            counts: [0; RING_SLOTS],
            lo: u64::MAX,
            hi: 0,
        }
    }

    fn is_empty(&self) -> bool {
        self.lo == u64::MAX
    }

    /// Books one entry arriving at `at`.
    fn note(&mut self, at: u64) {
        self.counts[(at as usize) & (RING_SLOTS - 1)] += 1;
        self.lo = self.lo.min(at);
        self.hi = self.hi.max(at);
    }

    /// The earliest arrival time booked, if any.
    fn first(&self) -> Option<u64> {
        (!self.is_empty()).then_some(self.lo)
    }

    /// Entries booked within `[from, to)`. The span covers less than
    /// one ring rotation, so clamping to it rules out aliasing.
    fn due_in(&self, from: u64, to: u64) -> usize {
        if self.is_empty() {
            return 0;
        }
        (from.max(self.lo)..to.min(self.hi + 1))
            .map(|t| self.counts[(t as usize) & (RING_SLOTS - 1)] as usize)
            .sum()
    }

    fn clear(&mut self) {
        if self.is_empty() {
            return;
        }
        debug_assert!(self.hi - self.lo < RING_SLOTS as u64);
        for t in self.lo..=self.hi {
            self.counts[(t as usize) & (RING_SLOTS - 1)] = 0;
        }
        self.lo = u64::MAX;
        self.hi = 0;
    }
}

/// One shard: the full per-node state of a contiguous node range, its
/// calendar, and one outbound mailbox per peer shard.
///
/// The per-node scalars swept every window — commitments, epochs,
/// sequence counters — live in cache-line-aligned struct-of-arrays
/// ([`AlignedU32s`]/[`AlignedU64s`]): each lane's arrays start on
/// their own 64-byte line (no false sharing between lanes on worker
/// threads) and the inner loops stream whole lines.
#[derive(Debug, Clone)]
struct ShardLane {
    index: usize,
    /// First global node id owned by this lane.
    base: u32,
    // Per-node state, indexed by `global - base`.
    choices: AlignedU32s,
    back: AlignedU32s,
    epochs: AlignedU64s,
    last_wake: AlignedU64s,
    pending: Vec<Pending>,
    /// Per-node inbox depth: messages accepted, their `Deliver` event
    /// not yet processed.
    depth: AlignedU32s,
    rngs: Vec<SmallRng>,
    seqs: AlignedU32s,
    /// Per-node incarnation counters, bumped on every leave so a
    /// wake-up scheduled in an earlier life dies on arrival (async
    /// mode; quiesced epochs clear their schedule so the tag is
    /// inert there).
    incs: AlignedU32s,
    /// Whether each node is bootstrapping — (re)joined and not yet
    /// through its first epoch decision (async mode).
    boot: Vec<bool>,
    /// Number of set flags in `boot`, kept incrementally.
    boot_count: u64,
    /// Commitment counts per option over this lane's nodes.
    counts: Vec<u64>,
    calendar: Calendar<Event>,
    /// Per-destination-shard mailboxes, filled during a block.
    outboxes: Vec<Vec<Entry<Event>>>,
    /// Per-source-shard mailboxes: at the block barrier each peer's
    /// outbox for this lane is swapped in here, and the lane pours
    /// them into its own calendar at the start of its next job (the
    /// emptied buffers swap back out as the peers' next outboxes, so
    /// steady state allocates nothing).
    inbound: Vec<Vec<Entry<Event>>>,
    /// What this lane's outboxes received during its last block.
    posted: Posted,
    /// This tick's counter contributions (summed across lanes).
    rm: RoundMetrics,
    max_queue_depth: usize,
}

impl ShardLane {
    fn len(&self) -> usize {
        self.choices.len()
    }

    /// Tags and routes an event produced by global node `src`: its own
    /// calendar when the target is local, the matching mailbox when it
    /// is not.
    fn push_from(&mut self, src: u32, at: u64, ev: Event, ctx: &Ctx) {
        let local = (src - self.base) as usize;
        let seq = self.seqs[local];
        self.seqs[local] = seq.wrapping_add(1);
        let shard = ctx.map.shard_of(event_target(&ev) as usize);
        let entry = Entry {
            at,
            src,
            seq,
            payload: ev,
        };
        if shard == self.index {
            self.calendar.push(entry);
        } else {
            self.outboxes[shard].push(entry);
            self.posted.note(at);
        }
    }

    /// One latency draw from the sender's stream.
    fn latency(&mut self, local: usize) -> u64 {
        self.rngs[local].gen_range(1..=MAX_MESSAGE_LATENCY)
    }

    /// Whether a message sent by `local` is lost on the link.
    fn link_drops(&mut self, local: usize, ctx: &Ctx) -> bool {
        ctx.drop_prob > 0.0 && self.rngs[local].gen_bool(ctx.drop_prob)
    }

    /// Offers a local node a message; `deliver` is its `Deliver`
    /// event, scheduled on success, while overflow counts a
    /// backpressure drop. Mirrors the single-heap `enqueue`.
    fn enqueue(&mut self, local: usize, deliver: Event, now: u64, ctx: &Ctx) {
        let depth = self.depth[local];
        if depth as usize >= ctx.queue_bound {
            self.rm.queue_drops += 1;
            return;
        }
        self.depth[local] = depth + 1;
        self.max_queue_depth = self.max_queue_depth.max(depth as usize + 1);
        let node = self.base + index_u32(local);
        self.push_from(node, now + DELIVER_DELAY, deliver, ctx);
    }

    /// Takes one delivered message off a local node's inbox.
    fn dequeue(&mut self, local: usize) {
        debug_assert!(self.depth[local] > 0, "delivery without a queued message");
        self.depth[local] -= 1;
    }

    /// Replaces a local node's commitment, keeping the lane's counts
    /// in sync (the async path maintains counts incrementally).
    fn set_commit(&mut self, local: usize, new: NodeState) {
        let old = self.choices[local];
        if old != NO_CHOICE {
            self.counts[old as usize] -= 1;
        }
        if new != NO_CHOICE {
            self.counts[new as usize] += 1;
        }
        self.choices[local] = new;
    }

    // ---- epoch-quiesced protocol, mirrored stage for stage from the
    // ---- single-heap scheduler (same decisions, same RNG *shape*,
    // ---- but drawn from per-node streams). The mirroring is a hard
    // ---- contract: any protocol change in event.rs (µ-branch, retry
    // ---- budget, peer pick, staleness rule, crash handling) MUST be
    // ---- replicated here and in the async methods below, or the two
    // ---- schedulers silently drift apart in law — the KS tests in
    // ---- tests/equivalence.rs are the tripwire, not the guarantee.

    /// Quiesced stage 1 resolution + stage 2 adoption.
    fn decide_q(&mut self, local: usize, considered: u32, ctx: &Ctx) {
        debug_assert!(!self.pending[local].resolved, "node resolved twice");
        self.pending[local].resolved = true;
        let adopt_p = ctx
            .params
            .adopt_probability(ctx.rewards[considered as usize]);
        if self.rngs[local].gen_bool(adopt_p) {
            self.choices[local] = considered;
            self.counts[considered as usize] += 1;
            self.rm.committed += 1;
        }
    }

    /// Quiesced query attempt (or µ-exploration on attempt 1, or the
    /// uniform fallback once the retry budget is spent).
    fn start_attempt_q(&mut self, local: usize, attempt: u32, now: u64, ctx: &Ctx) {
        let node = self.base + index_u32(local);
        if attempt == 1 && self.rngs[local].gen_bool(ctx.mu) {
            self.rm.explorations += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide_q(local, considered, ctx);
            return;
        }
        if attempt > MAX_QUERY_RETRIES || ctx.n == 1 {
            self.rm.fallbacks += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide_q(local, considered, ctx);
            return;
        }
        self.pending[local].attempt = attempt;
        self.rm.queries_sent += 1;
        let g = node as usize;
        let mut peer = self.rngs[local].gen_range(0..ctx.n - 1);
        if peer >= g {
            peer += 1;
        }
        self.push_from(
            node,
            now + RETRY_TIMEOUT,
            Event::Timeout {
                node,
                attempt,
                epoch: 0,
            },
            ctx,
        );
        if !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            self.push_from(
                node,
                at,
                Event::QueryArrive {
                    from: node,
                    to: index_u32(peer),
                    epoch: 0,
                },
                ctx,
            );
        }
    }

    /// Quiesced delivery of a query: answer from last epoch's
    /// commitment.
    fn deliver_query_q(&mut self, local: usize, from: u32, now: u64, ctx: &Ctx) {
        self.dequeue(local);
        let option = self.back[local];
        if option != NO_CHOICE && !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            let node = self.base + index_u32(local);
            self.push_from(node, at, Event::ReplyArrive { node: from, option }, ctx);
        }
    }

    /// Quiesced delivery of a reply: resolve stage 1 unless already
    /// resolved.
    fn deliver_reply_q(&mut self, local: usize, option: u32, ctx: &Ctx) {
        self.dequeue(local);
        if self.pending[local].resolved {
            return;
        }
        self.rm.replies_received += 1;
        self.decide_q(local, option, ctx);
    }

    /// Resets the lane for a fresh quiesced epoch and wakes its
    /// present nodes at per-node jittered times. A node that just
    /// (re)joined has `back == NO_CHOICE` (absent epochs write
    /// NO_CHOICE) and bootstraps through the ordinary query path.
    fn begin_epoch(&mut self, ctx: &Ctx) {
        std::mem::swap(&mut self.choices, &mut self.back);
        self.counts.fill(0);
        self.rm = RoundMetrics::default();
        debug_assert!(self.calendar.is_empty(), "previous epoch left events");
        for local in 0..self.len() {
            self.choices[local] = NO_CHOICE;
            debug_assert_eq!(self.depth[local], 0, "previous epoch left mail");
            let node = self.base + index_u32(local);
            if ctx.present[node as usize] {
                self.rm.alive += 1;
                self.pending[local] = Pending::default();
                let at = self.rngs[local].gen_range(0..WAKE_SPREAD);
                self.push_from(node, at, Event::Wake { node, inc: 0 }, ctx);
            } else {
                // An absent node answers nothing: its snapshot slot is
                // cleared so a query landing here finds no commitment.
                self.back[local] = NO_CHOICE;
                self.pending[local] = Pending {
                    attempt: 0,
                    resolved: true,
                };
            }
        }
    }

    /// Handles one due quiesced-mode event.
    fn handle_q(&mut self, entry: Entry<Event>, now: u64, ctx: &Ctx) {
        match entry.payload {
            Event::Wake { node, .. } => {
                self.start_attempt_q((node - self.base) as usize, 1, now, ctx);
            }
            Event::QueryArrive { from, to, epoch } => {
                if !ctx.has_faults || ctx.present[to as usize] {
                    let deliver = Event::DeliverQuery {
                        node: to,
                        from,
                        epoch,
                    };
                    self.enqueue((to - self.base) as usize, deliver, now, ctx);
                }
            }
            Event::ReplyArrive { node, option } => {
                let deliver = Event::DeliverReply { node, option };
                self.enqueue((node - self.base) as usize, deliver, now, ctx);
            }
            Event::DeliverQuery { node, from, .. } => {
                self.deliver_query_q((node - self.base) as usize, from, now, ctx);
            }
            Event::DeliverReply { node, option } => {
                self.deliver_reply_q((node - self.base) as usize, option, ctx);
            }
            Event::Timeout {
                node,
                attempt,
                epoch: _,
            } => {
                let local = (node - self.base) as usize;
                let p = self.pending[local];
                if !p.resolved && p.attempt == attempt {
                    self.start_attempt_q(local, attempt + 1, now, ctx);
                }
            }
        }
    }

    // ---- fully-async protocol, mirrored from the single-heap async
    // ---- path: local epoch counters, epoch-tagged queries/timeouts,
    // ---- staleness filtering, cadence-scheduled wake-ups.

    /// Async stage 2 + local-epoch completion + next wake-up.
    fn decide_async(&mut self, local: usize, considered: u32, now: u64, ctx: &Ctx) {
        debug_assert!(!self.pending[local].resolved, "node resolved twice");
        self.pending[local].resolved = true;
        if self.boot[local] {
            // First epoch decision after a (re)join: the bootstrap is
            // over, whatever stage 1 produced.
            self.boot[local] = false;
            self.boot_count -= 1;
        }
        let adopt_p = ctx
            .params
            .adopt_probability(ctx.rewards[considered as usize]);
        self.back[local] = self.choices[local];
        if self.rngs[local].gen_bool(adopt_p) {
            self.set_commit(local, considered);
            self.rm.committed += 1;
        } else {
            self.set_commit(local, NO_CHOICE);
        }
        self.epochs[local] += 1;
        let cadence = self.last_wake[local] + ASYNC_EPOCH_PERIOD;
        let at = cadence.max(now + 1) + self.rngs[local].gen_range(0..ASYNC_WAKE_JITTER);
        let node = self.base + index_u32(local);
        self.push_from(
            node,
            at,
            Event::Wake {
                node,
                inc: self.incs[local],
            },
            ctx,
        );
    }

    /// Async query attempt with epoch-tagged timeout/query events.
    fn start_attempt_async(&mut self, local: usize, attempt: u32, now: u64, ctx: &Ctx) {
        let node = self.base + index_u32(local);
        if attempt == 1 && self.rngs[local].gen_bool(ctx.mu) {
            self.rm.explorations += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide_async(local, considered, now, ctx);
            return;
        }
        if attempt > MAX_QUERY_RETRIES || ctx.n == 1 {
            self.rm.fallbacks += 1;
            let considered = index_u32(self.rngs[local].gen_range(0..ctx.m));
            self.decide_async(local, considered, now, ctx);
            return;
        }
        self.pending[local].attempt = attempt;
        self.rm.queries_sent += 1;
        let g = node as usize;
        let mut peer = self.rngs[local].gen_range(0..ctx.n - 1);
        if peer >= g {
            peer += 1;
        }
        let epoch = self.epochs[local] + 1;
        self.push_from(
            node,
            now + RETRY_TIMEOUT,
            Event::Timeout {
                node,
                attempt,
                epoch,
            },
            ctx,
        );
        if !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            self.push_from(
                node,
                at,
                Event::QueryArrive {
                    from: node,
                    to: index_u32(peer),
                    epoch,
                },
                ctx,
            );
        }
    }

    /// Async delivery of a query, with responder-side staleness
    /// filtering.
    fn deliver_query_async(
        &mut self,
        local: usize,
        from: u32,
        epoch: u64,
        now: u64,
        ctx: &Ctx,
        bound: StalenessBound,
    ) {
        self.dequeue(local);
        let want = epoch.saturating_sub(1);
        let r = self.epochs[local];
        let (option, stale) = if want >= r {
            (self.choices[local], want - r)
        } else {
            (self.back[local], 0)
        };
        if option == NO_CHOICE {
            return;
        }
        if !bound.allows(stale) {
            self.rm.stale_replies += 1;
            return;
        }
        if !self.link_drops(local, ctx) {
            let at = msg_at(now, self.latency(local), ctx);
            let node = self.base + index_u32(local);
            self.push_from(node, at, Event::ReplyArrive { node: from, option }, ctx);
        }
    }

    /// Async delivery of a reply.
    fn deliver_reply_async(&mut self, local: usize, option: u32, now: u64, ctx: &Ctx) {
        self.dequeue(local);
        if self.pending[local].resolved {
            return;
        }
        self.rm.replies_received += 1;
        self.decide_async(local, option, now, ctx);
    }

    /// Handles one due fully-async event.
    fn handle_async(&mut self, entry: Entry<Event>, now: u64, ctx: &Ctx, bound: StalenessBound) {
        match entry.payload {
            Event::Wake { node, inc } => {
                let local = (node - self.base) as usize;
                // The incarnation tag kills wake-ups scheduled before
                // a leave: they are the only events whose horizon
                // outlives a one-round absence.
                if ctx.present[node as usize] && inc == self.incs[local] {
                    self.pending[local] = Pending::default();
                    self.last_wake[local] = now;
                    self.start_attempt_async(local, 1, now, ctx);
                }
            }
            Event::QueryArrive { from, to, epoch } => {
                if ctx.present[to as usize] {
                    let deliver = Event::DeliverQuery {
                        node: to,
                        from,
                        epoch,
                    };
                    self.enqueue((to - self.base) as usize, deliver, now, ctx);
                }
            }
            Event::ReplyArrive { node, option } => {
                if ctx.present[node as usize] {
                    let deliver = Event::DeliverReply { node, option };
                    self.enqueue((node - self.base) as usize, deliver, now, ctx);
                }
            }
            // Mail already in the inbox of a node that has since left
            // or crashed is consumed unread, keeping deliveries 1:1
            // with enqueues even for the dead.
            Event::DeliverQuery { node, .. } | Event::DeliverReply { node, .. }
                if !ctx.present[node as usize] =>
            {
                self.dequeue((node - self.base) as usize);
            }
            Event::DeliverQuery { node, from, epoch } => {
                let local = (node - self.base) as usize;
                self.deliver_query_async(local, from, epoch, now, ctx, bound);
            }
            Event::DeliverReply { node, option } => {
                self.deliver_reply_async((node - self.base) as usize, option, now, ctx);
            }
            Event::Timeout {
                node,
                attempt,
                epoch,
            } => {
                let local = (node - self.base) as usize;
                if ctx.present[node as usize] {
                    let p = self.pending[local];
                    if !p.resolved && p.attempt == attempt && self.epochs[local] + 1 == epoch {
                        self.start_attempt_async(local, attempt + 1, now, ctx);
                    }
                }
            }
        }
    }

    /// Processes every event due at `now`, in `(src, seq)` order.
    fn run_window(&mut self, now: u64, ctx: &Ctx) {
        let due = self.calendar.take_due(now);
        match ctx.mode {
            Mode::Quiesced => {
                for &entry in &due {
                    self.handle_q(entry, now, ctx);
                }
            }
            Mode::Async(bound) => {
                for &entry in &due {
                    self.handle_async(entry, now, ctx, bound);
                }
            }
        }
        self.calendar.recycle(due);
    }

    /// Processes every window in `[start, block_end)` this lane has
    /// events for, touching nothing outside the lane — the unit of
    /// work a worker thread executes between barriers. Sound because
    /// the `msg_at` deferral guarantees no event produced inside the
    /// block (by any lane) is due before `block_end`.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Ctx) {
        let mut cursor = start;
        while let Some(w) = self.calendar.next_time(cursor) {
            if w >= block_end {
                break;
            }
            self.run_window(w, ctx);
            cursor = w + 1;
        }
    }

    /// Pours the mail peers handed over at the last block barrier into
    /// this lane's calendar, and forgets what this lane posted itself:
    /// every lane takes its mail in the same pass, so the peers are
    /// pouring that in alongside. Push order is free: `take_due`
    /// re-sorts every window by `(src, seq)`.
    fn take_mail(&mut self) {
        for bucket in &mut self.inbound {
            for entry in bucket.drain(..) {
                self.calendar.push(entry);
            }
        }
        self.posted.clear();
    }

    /// Due events within `[from, to)` in this lane's calendar plus
    /// the mail it posted in its last block — at most
    /// `2 * MAX_LOOKAHEAD` slot peeks. Summed over lanes this counts
    /// every event due in the window, mail not yet poured in included.
    fn due_in(&self, from: u64, to: u64) -> usize {
        (from..to).map(|t| self.calendar.due_len(t)).sum::<usize>() + self.posted.due_in(from, to)
    }

    /// The earliest pending time at or after `from` in this lane's
    /// calendar or its last block's posted mail.
    fn next_time(&self, from: u64) -> Option<u64> {
        let own = self.calendar.next_time(from);
        match self.posted.first() {
            Some(at) => {
                debug_assert!(at >= from, "mail posted behind the cursor");
                Some(own.map_or(at, |t| t.min(at)))
            }
            None => own,
        }
    }
}

/// The sharded calendar-queue engine behind
/// [`SchedulerKind::ShardedCalendar`]. Owned by the
/// [`EventRuntime`](crate::EventRuntime), which routes ticks here when
/// the sharded scheduler is selected.
#[derive(Debug, Clone)]
pub(crate) struct ShardedEngine {
    /// The balanced node→shard partition.
    map: ShardMap,
    lanes: Vec<ShardLane>,
    /// Virtual time already consumed by async ticks.
    async_clock: u64,
    /// Online rebalances that actually moved a lane boundary.
    rebalances: u64,
    /// Per-node presence snapshot, maintained incrementally from
    /// membership transitions at every tick boundary and shared with
    /// lane jobs via the tick context. Clones of the engine share it
    /// until the next transition (`Arc::make_mut` copies on write).
    present: Arc<Vec<bool>>,
    /// Persistent worker threads for dense blocks, created lazily at
    /// first fan-out (an `Arc` so a cloned engine — the twin-runtime
    /// test pattern — shares rather than respawns; the pool
    /// serializes submissions internally).
    pool: Option<Arc<WorkerPool>>,
}

impl ShardedEngine {
    /// Builds the engine: exactly `min(shards, n)` lanes over
    /// contiguous node ranges balanced by round-1 presence, with one
    /// RNG stream per node split from `seed`. Nodes outside the
    /// initial fleet (join-scripted flash crowds) start with no
    /// commitment.
    pub(crate) fn new(
        cfg: &DistConfig,
        seed: u64,
        shards: usize,
        members: &MembershipTracker,
    ) -> Self {
        let n = cfg.num_nodes();
        let m = cfg.params().num_options();
        let lane_count = ShardMap::lane_count(n, shards);
        let map = ShardMap::balanced(n, lane_count, members);
        debug_assert_eq!(map.lanes(), lane_count);
        let lanes = (0..lane_count)
            .map(|index| {
                let base = map.base_of(index);
                let len = map.end_of(index) - base;
                let mut counts = vec![0u64; m];
                let choices: AlignedU32s = (base..base + len)
                    .map(|i| {
                        if members.in_initial_fleet(i) {
                            let c = crate::uniform_start_choice(i, m);
                            counts[c as usize] += 1;
                            c
                        } else {
                            NO_CHOICE
                        }
                    })
                    .collect();
                ShardLane {
                    index,
                    base: index_u32(base),
                    choices,
                    back: AlignedU32s::with_len(len, NO_CHOICE),
                    epochs: AlignedU64s::with_len(len, 0),
                    last_wake: AlignedU64s::with_len(len, 0),
                    pending: vec![Pending::default(); len],
                    depth: AlignedU32s::with_len(len, 0),
                    rngs: (0..len)
                        .map(|local| SmallRng::seed_from_u64(node_stream_seed(seed, base + local)))
                        .collect(),
                    seqs: AlignedU32s::with_len(len, 0),
                    incs: AlignedU32s::with_len(len, 0),
                    boot: vec![false; len],
                    boot_count: 0,
                    counts,
                    calendar: Calendar::new(),
                    outboxes: (0..lane_count).map(|_| Vec::new()).collect(),
                    inbound: (0..lane_count).map(|_| Vec::new()).collect(),
                    posted: Posted::new(),
                    rm: RoundMetrics::default(),
                    max_queue_depth: 0,
                }
            })
            .collect();
        let present = Arc::new((0..n).map(|i| members.is_present(i)).collect());
        ShardedEngine {
            map,
            lanes,
            async_clock: 0,
            rebalances: 0,
            present,
            pool: None,
        }
    }

    /// The effective shard count (after clamping to the fleet size).
    pub(crate) fn num_shards(&self) -> usize {
        self.lanes.len()
    }

    /// `node`'s completed local epoch counter.
    pub(crate) fn epoch_of(&self, node: usize) -> u64 {
        let lane = &self.lanes[self.map.shard_of(node)];
        lane.epochs[node - lane.base as usize]
    }

    /// Max-minus-min completed local epoch over present nodes.
    pub(crate) fn epoch_spread(&self, members: &MembershipTracker) -> u64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        let mut any = false;
        for lane in &self.lanes {
            for (local, &e) in lane.epochs.iter().enumerate() {
                if members.is_present(lane.base as usize + local) {
                    any = true;
                    lo = lo.min(e);
                    hi = hi.max(e);
                }
            }
        }
        if any {
            hi - lo
        } else {
            0
        }
    }

    /// Sums the per-lane commitment counts into `out`.
    pub(crate) fn write_counts(&self, out: &mut [u64]) {
        out.fill(0);
        for lane in &self.lanes {
            for (slot, &c) in out.iter_mut().zip(&lane.counts) {
                *slot += c;
            }
        }
    }

    /// Online rebalances performed so far (only those that actually
    /// moved a lane boundary count — churn at an already-balanced
    /// partition is free and unreported).
    pub(crate) fn rebalances(&self) -> u64 {
        self.rebalances
    }

    /// Appends each lane's *present*-node load to `out` in lane order
    /// — the per-shard load a telemetry sink charts to see whether
    /// the online rebalancer is keeping the partition even.
    pub(crate) fn write_shard_loads(&self, members: &MembershipTracker, out: &mut Vec<usize>) {
        for lane in &self.lanes {
            let base = lane.base as usize;
            let load = (base..base + lane.choices.len())
                .filter(|&i| members.is_present(i))
                .count();
            out.push(load);
        }
    }

    /// Messages waiting in `node`'s inbox.
    pub(crate) fn depth_of(&self, node: usize) -> usize {
        let lane = &self.lanes[self.map.shard_of(node)];
        lane.depth[node - lane.base as usize] as usize
    }

    /// The deepest any inbox has ever been.
    pub(crate) fn max_queue_depth(&self) -> usize {
        self.lanes
            .iter()
            .map(|l| l.max_queue_depth)
            .max()
            .unwrap_or(0)
    }

    /// The earliest pending virtual time at or after `from`, across
    /// all lanes.
    fn next_window(&self, from: u64) -> Option<u64> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.next_time(from))
            .min()
    }

    /// Whether per-lane work of `work` items is worth fanning out on
    /// the worker pool: more than one lane, more than one thread, and
    /// at least the density threshold. Below it the fan-out costs more
    /// than it saves (and spawning the pool would cost resident memory
    /// in small runs that never need it).
    fn fans_out(&self, work: usize, tuning: &ExecTuning) -> bool {
        self.lanes.len() > 1 && tuning.threads > 1 && work >= tuning.parallel_threshold
    }

    /// Runs `job` on every lane: on the persistent worker pool (spawned
    /// on first use) when `parallel`, in-thread otherwise. Each job
    /// touches only its own lane, so the two paths give identical
    /// results.
    fn for_each_lane(
        &mut self,
        parallel: bool,
        tuning: &ExecTuning,
        job: impl Fn(&mut ShardLane) + Send + Sync + 'static,
    ) {
        if !parallel {
            self.lanes.iter_mut().for_each(job);
            return;
        }
        // `tuning.threads` arrives already resolved by `tick` — never
        // 0 — so no OS query happens on the per-block path.
        let pool = Arc::clone(
            self.pool
                .get_or_insert_with(|| Arc::new(WorkerPool::new(tuning.threads))),
        );
        let lanes = std::mem::take(&mut self.lanes);
        self.lanes = pool.map(lanes, move |mut lane| {
            job(&mut lane);
            lane
        });
    }

    /// Runs one K-window lookahead block `[start, block_end)` on every
    /// lane — each lane first pours in the mail its peers handed over
    /// at the previous barrier — then hands this block's cross-shard
    /// mail over at the barrier. The lane jobs run on the worker pool
    /// when the block is dense and in-thread when it is sparse
    /// (identical results either way): one pool hand-off per block.
    fn run_block(&mut self, start: u64, block_end: u64, ctx: &Arc<Ctx>, tuning: &ExecTuning) {
        let due: usize = self.lanes.iter().map(|l| l.due_in(start, block_end)).sum();
        if due == 0 {
            return;
        }
        let parallel = self.fans_out(due, tuning);
        let cx = Arc::clone(ctx);
        self.for_each_lane(parallel, tuning, move |lane| {
            lane.take_mail();
            lane.run_block(start, block_end, &cx);
        });
        // Block barrier: swap every non-empty outbox into its
        // destination's inbound slot (pointer swaps only; the empty
        // buffer coming back is the sender's next outbox). The mail
        // stays there until the next lane job, or `settle_mail`.
        let lanes = self.lanes.len();
        for src in 0..lanes {
            for dst in 0..lanes {
                if src == dst || self.lanes[src].outboxes[dst].is_empty() {
                    continue;
                }
                let mail = std::mem::take(&mut self.lanes[src].outboxes[dst]);
                let spare = std::mem::replace(&mut self.lanes[dst].inbound[src], mail);
                self.lanes[src].outboxes[dst] = spare;
            }
        }
    }

    /// Pours any mail still waiting in inbound slots into the lanes'
    /// calendars, so that between ticks all pending events sit in the
    /// calendars. Only an async tick can end with mail waiting: a
    /// quiesced epoch runs until nothing is pending.
    fn settle_mail(&mut self, tuning: &ExecTuning) {
        let waiting: usize = self
            .lanes
            .iter()
            .flat_map(|l| &l.inbound)
            .map(Vec::len)
            .sum();
        if waiting > 0 {
            let parallel = self.fans_out(waiting, tuning);
            self.for_each_lane(parallel, tuning, ShardLane::take_mail);
        }
    }

    /// Sums the lanes' per-tick counters into one report.
    fn collect_rm(&self, t: u64) -> RoundMetrics {
        let mut rm = RoundMetrics {
            round: t,
            ..RoundMetrics::default()
        };
        for lane in &self.lanes {
            rm.alive += lane.rm.alive;
            rm.committed += lane.rm.committed;
            rm.queries_sent += lane.rm.queries_sent;
            rm.replies_received += lane.rm.replies_received;
            rm.fallbacks += lane.rm.fallbacks;
            rm.explorations += lane.rm.explorations;
            rm.queue_drops += lane.rm.queue_drops;
            rm.stale_replies += lane.rm.stale_replies;
        }
        rm
    }

    /// One tick under `mode`: a full epoch run to quiescence, or one
    /// async epoch-period window of virtual time. A tick boundary
    /// carrying membership transitions first rebalances shard
    /// ownership to the new present-node load.
    #[allow(clippy::too_many_arguments)] // the runtime's full tick context, assembled in one place
    pub(crate) fn tick(
        &mut self,
        mode: Mode,
        cfg: &DistConfig,
        queue_bound: usize,
        members: &MembershipTracker,
        t: u64,
        rewards: &[bool],
        tuning: &ExecTuning,
    ) -> RoundMetrics {
        if !members.recent().is_empty() {
            self.refresh_present(members);
            if self.lanes.len() > 1 {
                self.rebalance(members, cfg.num_nodes());
            }
        }
        let ctx = Arc::new(Ctx {
            params: *cfg.params(),
            mode,
            n: cfg.num_nodes(),
            m: cfg.params().num_options(),
            map: self.map.clone(),
            mu: cfg.params().mu(),
            drop_prob: cfg.faults().drop_prob(),
            has_faults: members.any_scheduled(),
            queue_bound,
            t,
            rewards: rewards.to_vec(),
            lookahead: tuning.lookahead,
            present: Arc::clone(&self.present),
        });
        // Resolve the auto thread knob exactly once per tick:
        // `available_parallelism` is an OS query, far too expensive to
        // repeat on the per-block path.
        let tuning = ExecTuning {
            threads: effective_threads(tuning.threads),
            ..*tuning
        };
        match mode {
            Mode::Quiesced => self.tick_quiesced(&ctx, members, &tuning),
            Mode::Async(_) => self.tick_async(&ctx, members, &tuning),
        }
    }

    /// Applies this tick's membership transitions to the engine's
    /// presence snapshot — the lane-visible view shipped to worker
    /// threads inside [`Ctx`]. Maintained incrementally so a tick
    /// without churn shares the previous `Arc` and copies nothing.
    fn refresh_present(&mut self, members: &MembershipTracker) {
        let present = Arc::make_mut(&mut self.present);
        for &(node, kind) in members.recent() {
            present[node as usize] = matches!(kind, Transition::Join | Transition::Rejoin);
        }
        debug_assert!(
            (0..present.len()).all(|i| present[i] == members.is_present(i)),
            "presence snapshot drifted from the membership tracker"
        );
    }

    /// Recomputes lane boundaries to even out *present* nodes and
    /// migrates each moving node's full state — commitment, inbox
    /// depth, local epoch, RNG stream, incarnation, and pending
    /// calendar entries (queued mail rides in its `Deliver` entry) —
    /// to its new owner. Runs only between ticks, where
    /// cross-shard outboxes are provably empty, so nothing is in
    /// flight mid-move; per-node RNG streams and intrinsic event keys
    /// make the new partition produce byte-identical results.
    fn rebalance(&mut self, members: &MembershipTracker, n: usize) {
        let new_map = ShardMap::balanced(n, self.lanes.len(), members);
        if new_map == self.map {
            return;
        }
        self.rebalances += 1;
        let lane_count = self.lanes.len();
        let m = self.lanes[0].counts.len();
        let depth_watermark = self.max_queue_depth();
        let mut entries: Vec<Entry<Event>> = Vec::new();
        let mut choices: Vec<u32> = Vec::with_capacity(n);
        let mut back: Vec<u32> = Vec::with_capacity(n);
        let mut epochs: Vec<u64> = Vec::with_capacity(n);
        let mut last_wake: Vec<u64> = Vec::with_capacity(n);
        let mut pending = Vec::with_capacity(n);
        let mut depth: Vec<u32> = Vec::with_capacity(n);
        let mut rngs = Vec::with_capacity(n);
        let mut seqs: Vec<u32> = Vec::with_capacity(n);
        let mut incs: Vec<u32> = Vec::with_capacity(n);
        let mut boot = Vec::with_capacity(n);
        // Lanes own ascending contiguous ranges, so appending in lane
        // order flattens back to global node order. The aligned
        // struct-of-arrays fields flatten through plain `Vec`s and
        // re-chunk on the collect below.
        for mut lane in std::mem::take(&mut self.lanes) {
            debug_assert!(
                lane.posted.is_empty()
                    && lane.outboxes.iter().chain(&lane.inbound).all(Vec::is_empty),
                "rebalance crossed a window with undelivered mail"
            );
            entries.append(&mut lane.calendar.drain_all());
            choices.extend(lane.choices.drain_all());
            back.extend(lane.back.drain_all());
            epochs.extend(lane.epochs.drain_all());
            last_wake.extend(lane.last_wake.drain_all());
            pending.append(&mut lane.pending);
            depth.extend(lane.depth.drain_all());
            rngs.append(&mut lane.rngs);
            seqs.extend(lane.seqs.drain_all());
            incs.extend(lane.incs.drain_all());
            boot.append(&mut lane.boot);
        }
        let mut choices = choices.into_iter();
        let mut back = back.into_iter();
        let mut epochs = epochs.into_iter();
        let mut last_wake = last_wake.into_iter();
        let mut pending = pending.into_iter();
        let mut depth = depth.into_iter();
        let mut rngs = rngs.into_iter();
        let mut seqs = seqs.into_iter();
        let mut incs = incs.into_iter();
        let mut boot = boot.into_iter();
        self.lanes = (0..lane_count)
            .map(|index| {
                let base = new_map.base_of(index);
                let len = new_map.end_of(index) - base;
                let lane_choices: AlignedU32s = choices.by_ref().take(len).collect();
                let mut counts = vec![0u64; m];
                for &c in lane_choices.iter() {
                    if c != NO_CHOICE {
                        counts[c as usize] += 1;
                    }
                }
                let lane_boot: Vec<bool> = boot.by_ref().take(len).collect();
                let boot_count = lane_boot.iter().filter(|&&b| b).count() as u64;
                ShardLane {
                    index,
                    base: index_u32(base),
                    choices: lane_choices,
                    back: back.by_ref().take(len).collect(),
                    epochs: epochs.by_ref().take(len).collect(),
                    last_wake: last_wake.by_ref().take(len).collect(),
                    pending: pending.by_ref().take(len).collect(),
                    depth: depth.by_ref().take(len).collect(),
                    rngs: rngs.by_ref().take(len).collect(),
                    seqs: seqs.by_ref().take(len).collect(),
                    incs: incs.by_ref().take(len).collect(),
                    boot: lane_boot,
                    boot_count,
                    counts,
                    calendar: Calendar::new(),
                    outboxes: (0..lane_count).map(|_| Vec::new()).collect(),
                    inbound: (0..lane_count).map(|_| Vec::new()).collect(),
                    posted: Posted::new(),
                    rm: RoundMetrics::default(),
                    max_queue_depth: 0,
                }
            })
            .collect();
        // The depth gauge is an engine-wide high-water mark; park it
        // on the first lane so `max_queue_depth()` keeps reporting it.
        self.lanes[0].max_queue_depth = depth_watermark;
        self.map = new_map;
        for entry in entries {
            let owner = self.map.shard_of(event_target(&entry.payload) as usize);
            self.lanes[owner].calendar.push(entry);
        }
    }

    /// Folds the tick's membership transitions into `rm`'s churn
    /// counters.
    fn count_churn(members: &MembershipTracker, rm: &mut RoundMetrics) {
        for &(_, kind) in members.recent() {
            match kind {
                Transition::Join => rm.joins += 1,
                Transition::Leave => rm.leaves += 1,
                Transition::Rejoin => rm.rejoins += 1,
                Transition::Crash => {}
            }
        }
    }

    /// One epoch run to quiescence: reset, wake, then drain the
    /// calendar in lookahead-K blocks until no lane holds a pending
    /// event.
    fn tick_quiesced(
        &mut self,
        ctx: &Arc<Ctx>,
        members: &MembershipTracker,
        tuning: &ExecTuning,
    ) -> RoundMetrics {
        // The epoch reset touches every node, so it fans out on the
        // same density gate as a block, with the fleet size as its
        // work count.
        let parallel = self.fans_out(ctx.n, tuning);
        let cx = Arc::clone(ctx);
        self.for_each_lane(parallel, tuning, move |lane| lane.begin_epoch(&cx));
        let mut cursor = 0u64;
        while let Some(w) = self.next_window(cursor) {
            let block_end = block_end_of(w, tuning.lookahead);
            self.run_block(w, block_end, ctx, tuning);
            cursor = block_end;
        }
        debug_assert!(
            self.lanes
                .iter()
                .all(|lane| lane.pending.iter().all(|p| p.resolved)),
            "epoch ended with unresolved nodes"
        );
        debug_assert!(
            self.lanes
                .iter()
                .all(|lane| lane.posted.is_empty() && lane.inbound.iter().all(Vec::is_empty)),
            "epoch ended with mail waiting"
        );
        let mut rm = self.collect_rm(ctx.t);
        // With the quiescence barrier, every (re)join bootstraps and
        // resolves within this very epoch: the gauge is the inflow.
        Self::count_churn(members, &mut rm);
        rm.bootstrapping = rm.joins + rm.rejoins;
        debug_assert_eq!(rm.alive, members.alive(), "alive counter drifted");
        rm
    }

    /// One async tick: advance through one epoch-period window of
    /// virtual time in lookahead-K blocks; in-flight events survive
    /// into the next tick.
    fn tick_async(
        &mut self,
        ctx: &Arc<Ctx>,
        members: &MembershipTracker,
        tuning: &ExecTuning,
    ) -> RoundMetrics {
        for lane in &mut self.lanes {
            lane.rm = RoundMetrics::default();
        }
        // Membership transitions land at the tick boundary, processed
        // in node order — mirroring the single-heap async path, with
        // the join wake jitter drawn from the joining node's own
        // stream so the draw is shard-count invariant. A departing
        // node's commitment leaves the popularity counts, its history
        // and pending attempt are wiped, and a leave bumps its
        // incarnation; a (re)joining node enters bootstrapping.
        for &(node, kind) in members.recent() {
            let lane = &mut self.lanes[self.map.shard_of(node as usize)];
            let local = (node - lane.base) as usize;
            match kind {
                Transition::Leave | Transition::Crash => {
                    if kind == Transition::Leave {
                        lane.incs[local] = lane.incs[local].wrapping_add(1);
                    }
                    if lane.choices[local] != NO_CHOICE {
                        lane.set_commit(local, NO_CHOICE);
                    }
                    lane.back[local] = NO_CHOICE;
                    lane.pending[local] = Pending {
                        attempt: 0,
                        resolved: true,
                    };
                    if lane.boot[local] {
                        lane.boot[local] = false;
                        lane.boot_count -= 1;
                    }
                }
                Transition::Join | Transition::Rejoin => {
                    if !lane.boot[local] {
                        lane.boot[local] = true;
                        lane.boot_count += 1;
                    }
                    // The t == 1 seeding loop below covers nodes
                    // present from the start; later (re)joins schedule
                    // their own boot wake here.
                    if ctx.t > 1 {
                        let at = self.async_clock + lane.rngs[local].gen_range(0..WAKE_SPREAD);
                        lane.push_from(
                            node,
                            at,
                            Event::Wake {
                                node,
                                inc: lane.incs[local],
                            },
                            ctx,
                        );
                    }
                }
            }
        }
        // The very first tick seeds every node's epoch loop.
        if ctx.t == 1 {
            for lane in &mut self.lanes {
                for local in 0..lane.len() {
                    let node = lane.base + index_u32(local);
                    if ctx.present[node as usize] {
                        let at = lane.rngs[local].gen_range(0..WAKE_SPREAD);
                        lane.push_from(
                            node,
                            at,
                            Event::Wake {
                                node,
                                inc: lane.incs[local],
                            },
                            ctx,
                        );
                    }
                }
            }
        }
        let window_end = self.async_clock + ASYNC_EPOCH_PERIOD;
        let mut cursor = self.async_clock;
        while let Some(w) = self.next_window(cursor) {
            if w >= window_end {
                break;
            }
            // A lookahead block never reaches past the tick boundary:
            // events due in the next epoch period belong to the next
            // tick's metrics window.
            let block_end = block_end_of(w, tuning.lookahead).min(window_end);
            self.run_block(w, block_end, ctx, tuning);
            cursor = block_end;
        }
        self.settle_mail(tuning);
        self.async_clock = window_end;
        let mut rm = self.collect_rm(ctx.t);
        rm.alive = members.alive();
        Self::count_churn(members, &mut rm);
        rm.bootstrapping = self.lanes.iter().map(|l| l.boot_count).sum();
        rm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at: u64, src: u32, seq: u32) -> Entry<u32> {
        Entry {
            at,
            src,
            seq,
            payload: src * 1000 + seq,
        }
    }

    #[test]
    fn calendar_pops_in_time_then_src_seq_order() {
        let mut cal = Calendar::new();
        cal.push(entry(5, 2, 0));
        cal.push(entry(3, 9, 1));
        cal.push(entry(5, 1, 7));
        cal.push(entry(5, 2, 1));
        assert_eq!(cal.len(), 4);
        assert_eq!(cal.next_time(0), Some(3));
        let due = cal.take_due(3);
        assert_eq!(due.len(), 1);
        cal.recycle(due);
        assert_eq!(cal.next_time(4), Some(5));
        let due = cal.take_due(5);
        let keys: Vec<(u32, u32)> = due.iter().map(|e| (e.src, e.seq)).collect();
        assert_eq!(keys, vec![(1, 7), (2, 0), (2, 1)]);
        assert!(cal.is_empty());
    }

    #[test]
    fn posted_counts_mail_per_window_across_the_ring_seam() {
        let mut posted = Posted::new();
        assert!(posted.is_empty());
        assert_eq!(posted.first(), None);
        assert_eq!(posted.due_in(0, 1000), 0);
        // Times straddle a ring rotation (slots 126, 127, 0, 1).
        for at in [126, 129, 127, 129, 128] {
            posted.note(at);
        }
        assert_eq!(posted.first(), Some(126));
        assert_eq!(posted.due_in(126, 128), 2);
        assert_eq!(posted.due_in(128, 130), 3);
        // Slot 1 again one rotation later: outside the span, not aliased.
        assert_eq!(posted.due_in(257, 258), 0);
        posted.clear();
        assert!(posted.is_empty());
        assert_eq!(posted.due_in(0, 1000), 0);
        posted.note(300);
        assert_eq!(posted.due_in(300, 301), 1);
        assert_eq!(posted.due_in(129, 130), 0);
    }

    #[test]
    fn calendar_take_due_on_empty_slot_is_empty() {
        let mut cal = Calendar::<u32>::new();
        cal.push(entry(10, 0, 0));
        assert!(cal.take_due(9).is_empty());
        assert_eq!(cal.due_len(9), 0);
        assert_eq!(cal.due_len(10), 1);
        assert_eq!(cal.len(), 1);
    }

    #[test]
    fn calendar_ring_wraps_across_rotations() {
        let mut cal = Calendar::<u32>::new();
        // Three full rotations of pushes one slot ahead of the cursor.
        for step in 0..(3 * RING_SLOTS as u64) {
            cal.push(entry(step + 1, 0, step as u32));
            let due = cal.take_due(step + 1);
            assert_eq!(due.len(), 1, "step {step}");
            assert_eq!(due[0].seq, step as u32);
            cal.recycle(due);
        }
        assert!(cal.is_empty());
    }

    #[test]
    fn node_stream_seeds_are_distinct() {
        let seeds: std::collections::HashSet<u64> =
            (0..10_000).map(|i| node_stream_seed(42, i)).collect();
        assert_eq!(seeds.len(), 10_000);
        assert_ne!(node_stream_seed(1, 0), node_stream_seed(2, 0));
    }

    #[test]
    fn scheduler_kind_displays() {
        assert_eq!(SchedulerKind::SingleHeap.to_string(), "single-heap");
        assert_eq!(
            SchedulerKind::ShardedCalendar { shards: 4 }.to_string(),
            "sharded-calendar(4)"
        );
    }
}
