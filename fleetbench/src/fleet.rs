//! The two fleet workloads: the epoch-quiesced sharded engine at
//! N=1e5, and the `experiments watch` default session (fully-async
//! sharded engine under a rolling restart, with the live dashboard
//! redrawn every tick) run through `run_watch`.

use crate::layers::POOL_THREADS;
use crate::trace::{layer_totals, Tracer};
use crate::workload::{Layer, Phase, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sociolearn_core::{BernoulliRewards, GroupDynamics, Params, RewardModel};
use sociolearn_dist::{
    DistConfig, EventRuntime, FaultPlan, Metrics, MetricsRecorder, ProtocolRuntime, RoundMetrics,
    SchedulerKind, StalenessBound, TelemetryFrame, TelemetrySink, TickObservation,
};
use sociolearn_experiments::watch::{run_watch, WatchConfig};
use sociolearn_plot::{LiveSvg, LiveTerm, SeriesRegistry};
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const M: usize = 4;
const BETA: f64 = 0.6;
const SHARDS: usize = 8;

/// The rewards every fleet sees: linear qualities 0.9 … 0.1.
fn rewards_env() -> BernoulliRewards {
    BernoulliRewards::linear(M, 0.9, 0.1).expect("valid linear rewards")
}

/// The reward stream's own generator, split from the runtime's seed
/// the same way `experiments watch` splits it.
fn env_rng(seed: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15)
}

/// Per-tick correctness checks, the exact regret and message counts,
/// and the per-layer protocol counters of one phase.
struct Ledger {
    n: usize,
    etas: Vec<f64>,
    best: f64,
    share: Vec<f64>,
    loads: Vec<usize>,
    failed: u64,
    ticks: u64,
    regret_sum: f64,
    msgs: u64,
    queries: u64,
    replies: u64,
    fallbacks: u64,
    drops: u64,
    max_skew: u64,
    imbalance_sum: f64,
    rebalances: u64,
}

impl Ledger {
    fn new(n: usize, env: &BernoulliRewards) -> Self {
        let etas = env.etas().to_vec();
        let best = etas.iter().copied().fold(f64::MIN, f64::max);
        Ledger {
            n,
            share: vec![0.0; etas.len()],
            etas,
            best,
            loads: Vec::new(),
            failed: 0,
            ticks: 0,
            regret_sum: 0.0,
            msgs: 0,
            queries: 0,
            replies: 0,
            fallbacks: 0,
            drops: 0,
            max_skew: 0,
            imbalance_sum: 0.0,
            rebalances: 0,
        }
    }

    /// Checks the invariants after one tick and books its counts.
    /// Returns whether every invariant held.
    fn after_tick(&mut self, rt: &EventRuntime, rm: &RoundMetrics) -> bool {
        rt.write_distribution(&mut self.share);
        let total: f64 = self.share.iter().sum();
        let cum = ProtocolRuntime::metrics(rt);
        let ok = (total - 1.0).abs() <= 1e-9
            && rm.committed <= rm.alive
            && rm.alive <= self.n
            && cum.replies_received <= cum.queries_sent;
        if !ok {
            self.failed += 1;
        }
        let expected: f64 = self.share.iter().zip(&self.etas).map(|(p, e)| p * e).sum();
        self.ticks += 1;
        self.regret_sum += self.best - expected;
        self.msgs += rm.queries_sent + rm.replies_received;
        self.queries += rm.queries_sent;
        self.replies += rm.replies_received;
        self.fallbacks += rm.fallbacks;
        self.drops += rm.queue_drops;
        self.max_skew = self.max_skew.max(rt.epoch_skew());
        self.loads.clear();
        rt.write_shard_loads(&mut self.loads);
        let top = self.loads.iter().copied().max().unwrap_or(0) as f64;
        let avg = self.loads.iter().sum::<usize>() as f64 / self.loads.len().max(1) as f64;
        self.imbalance_sum += if avg > 0.0 { top / avg } else { 1.0 };
        self.rebalances = rt.shard_rebalances();
        ok
    }

    /// Adds another phase's protocol counters to this one's.
    fn absorb(&mut self, other: &Ledger) {
        self.ticks += other.ticks;
        self.msgs += other.msgs;
        self.queries += other.queries;
        self.replies += other.replies;
        self.fallbacks += other.fallbacks;
        self.drops += other.drops;
        self.max_skew = self.max_skew.max(other.max_skew);
        self.imbalance_sum += other.imbalance_sum;
        // Rebalances are cumulative within a session: keep one
        // session's count.
        self.rebalances = self.rebalances.max(other.rebalances);
    }

    fn regret(&self) -> f64 {
        self.regret_sum / self.ticks.max(1) as f64
    }

    fn msgs_per_node_round(&self) -> f64 {
        self.msgs as f64 / (self.n as f64 * self.ticks.max(1) as f64)
    }

    /// The exact counts, rendered to compare two phases bit for bit.
    fn exact(&self, rt: &EventRuntime) -> String {
        format!(
            "{:?} regret={:e} msgs={}",
            ProtocolRuntime::metrics(rt),
            self.regret(),
            self.msgs
        )
    }

    fn protocol_layers(&self) -> Vec<Layer> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        vec![
            ("dist.event.reply_ratio", ratio(self.replies, self.queries)),
            (
                "dist.event.fallback_rate",
                self.fallbacks as f64 / (self.n as f64 * self.ticks as f64),
            ),
            (
                "dist.event.drops_per_query",
                ratio(self.drops, self.queries),
            ),
            ("dist.event.rebalances", self.rebalances as f64),
            ("dist.event.max_epoch_skew", self.max_skew as f64),
            (
                "dist.event.shard_imbalance",
                self.imbalance_sum / self.ticks as f64,
            ),
        ]
    }
}

/// Per-layer figures of the engine's round span.
fn round_layers(tr: &Tracer, round: &'static str, ticks: u64, msgs: u64) -> Vec<Layer> {
    let totals = layer_totals(tr.spans());
    let Some(r) = totals.get(round) else {
        return Vec::new();
    };
    vec![
        (
            "dist.event.ms_per_tick",
            r.self_ns as f64 / ticks as f64 / 1e6,
        ),
        ("dist.event.ns_per_msg", r.self_ns as f64 / msgs as f64),
        ("dist.event.msgs_per_tick", msgs as f64 / ticks as f64),
    ]
}

/// `fleet-sharded-n1e5`: the epoch-quiesced engine on 8 calendar
/// shards, lookahead 4, two threads, N=1e5, 1% message loss, no sink.
pub struct ShardedFleet;

impl ShardedFleet {
    const N: usize = 100_000;
    const WARMUP_TICKS: u64 = 5;
    /// The block the exact metrics cover, and the fewest timed ticks.
    /// Regret drifts slowly with the shared reward draws, so a short
    /// block makes it swing from seed to seed; 400 ticks also leave 40
    /// samples beyond the p90.
    const EXACT_TICKS: u64 = 400;
    /// Ticks of the round-synchronous reference in the traced run.
    const ROUNDSYNC_TICKS: u64 = 20;

    fn config() -> DistConfig {
        let params = Params::new(M, BETA).expect("valid params");
        let loss = FaultPlan::with_drop_prob(0.01).expect("valid drop probability");
        DistConfig::new(params, Self::N).with_faults(loss)
    }

    /// `Runtime::round` at the same N, seed and rewards: ns per
    /// node-round of the round-synchronous reference.
    fn roundsync_ns_per_node_round(seed: u64, tr: &mut Tracer) -> f64 {
        let mut rt = sociolearn_dist::Runtime::new(Self::config(), seed);
        let mut env = rewards_env();
        let mut rng = env_rng(seed);
        let mut rewards = vec![false; M];
        let first = tr.spans().len();
        for t in 0..Self::WARMUP_TICKS + Self::ROUNDSYNC_TICKS {
            env.sample(t, &mut rng, &mut rewards);
            if t < Self::WARMUP_TICKS {
                rt.round(&rewards);
            } else {
                tr.set_tick(t);
                tr.span("Runtime::round", || rt.round(&rewards));
            }
        }
        let totals = layer_totals(&tr.spans()[first..]);
        totals["Runtime::round"].self_ns as f64 / (Self::N as f64 * Self::ROUNDSYNC_TICKS as f64)
    }
}

/// A built fleet, its reward stream, and the tick it resumes at.
pub struct FleetState {
    rt: EventRuntime,
    env: BernoulliRewards,
    rng: SmallRng,
    t: u64,
    seed: u64,
}

impl Workload for ShardedFleet {
    type State = FleetState;

    fn setup(&self, seed: u64) -> Result<FleetState, String> {
        let mut rt = EventRuntime::new(Self::config(), seed)
            .with_scheduler(SchedulerKind::ShardedCalendar { shards: SHARDS })
            .with_lookahead(4)
            .with_threads(POOL_THREADS);
        let mut env = rewards_env();
        let mut rng = env_rng(seed);
        let mut rewards = vec![false; M];
        for t in 0..Self::WARMUP_TICKS {
            env.sample(t, &mut rng, &mut rewards);
            rt.round(&rewards);
        }
        Ok(FleetState {
            rt,
            env,
            rng,
            t: Self::WARMUP_TICKS,
            seed,
        })
    }

    fn timed(
        &self,
        st: FleetState,
        tr: &mut Tracer,
        budget: Duration,
        _full: bool,
    ) -> Result<Phase, String> {
        let FleetState {
            mut rt,
            mut env,
            mut rng,
            t: t0,
            seed,
        } = st;
        let mut ledger = Ledger::new(Self::N, &env);
        let mut rewards = vec![false; M];
        let mut phase = Phase {
            threads: POOL_THREADS,
            ..Phase::default()
        };
        let (mut exact_regret, mut exact_msgs) = (0.0, 0.0);
        let start = Instant::now();
        let mut t = t0;
        while t - t0 < Self::EXACT_TICKS || start.elapsed() < budget {
            tr.set_tick(t);
            let tick_start = Instant::now();
            env.sample(t, &mut rng, &mut rewards);
            let rm = tr.span("ProtocolRuntime::round", || rt.round(&rewards));
            phase.op_ms.push(tick_start.elapsed().as_secs_f64() * 1e3);
            ledger.after_tick(&rt, &rm);
            t += 1;
            if t - t0 == Self::EXACT_TICKS {
                phase.unit_s.push(start.elapsed().as_secs_f64());
                exact_regret = ledger.regret();
                exact_msgs = ledger.msgs_per_node_round();
                phase.exact = ledger.exact(&rt);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();
        let ticks = t - t0;
        phase.attempted = ticks;
        phase.failed = ledger.failed;
        phase.node_rounds_per_s = Self::N as f64 * ticks as f64 / wall_s;
        phase.regret = exact_regret;
        phase.msgs_per_node_round = exact_msgs;
        if tr.enabled() {
            phase.layers = round_layers(tr, "ProtocolRuntime::round", ticks, ledger.msgs);
            phase.layers.extend(ledger.protocol_layers());
            let round = layer_totals(tr.spans())["ProtocolRuntime::round"];
            let event_ns = round.self_ns as f64 / (Self::N as f64 * ticks as f64);
            let sync_ns = Self::roundsync_ns_per_node_round(seed, tr);
            phase
                .layers
                .push(("dist.runtime.ns_per_node_round", sync_ns));
            phase
                .layers
                .push(("dist.event.vs_roundsync", event_ns / sync_ns));
        }
        Ok(phase)
    }
}

/// `watch-async-churn-n2e3`: the `experiments watch` default session —
/// fully-async engine, unbounded staleness, 8 shards, K=1, two
/// threads, N=2000, rolling restart, recorder attached, dashboard
/// redrawn every tick into memory, one SVG snapshot at the end.
///
/// The untraced run times `run_watch` itself. What `run_watch` does
/// not expose — the runtime after each tick, for the per-tick checks
/// and the regret, and a span per layer call — comes from [`replay`],
/// which makes the same calls one by one; its counters and SVG must
/// equal `run_watch`'s at the same seed.
pub struct WatchSession {
    /// Where `run_watch` writes its SVG snapshot.
    pub out_dir: PathBuf,
}

impl WatchSession {
    /// Sessions in the exact block, each at its own seed: one session's
    /// regret swings with its reward draws, sixteen averaged do not.
    /// Later sessions repeat the cycle and must match it exactly.
    const SEEDS: usize = 16;

    fn session_seed(seed: u64, slot: usize) -> u64 {
        seed.wrapping_add(slot as u64 * 0x9e37_79b9_7f4a_7c15)
    }

    /// The `experiments watch` defaults, with the dashboard redrawn
    /// every tick and the engine pinned at two threads.
    fn config(&self, seed: u64) -> WatchConfig {
        WatchConfig {
            name: "fleetbench".into(),
            cadence: 1,
            threads: POOL_THREADS,
            seed,
            out_dir: self.out_dir.clone(),
            ..WatchConfig::default()
        }
    }

    /// One `run_watch` session, its tick laps appended to `op_ms`.
    /// Returns its fingerprint.
    fn run(&self, seed: u64, op_ms: &mut Vec<f64>, screen: &mut Vec<u8>) -> Result<String, String> {
        let mut laps = TickLaps::new(op_ms);
        screen.clear();
        let out = run_watch(&self.config(seed), &mut || laps.lap(), screen)?;
        Ok(fingerprint(&out.metrics, &out.svg))
    }
}

/// A session's counters and SVG, rendered to compare two runs of it.
fn fingerprint(metrics: &Metrics, svg: &str) -> String {
    format!("{metrics:?} svg={:016x}", fnv1a(svg.as_bytes()))
}

/// The per-tick stopwatch of a watch session, read once a tick right
/// after the round, where `run_watch` calls its `tick_ms` closure: a
/// lap is one round plus the previous tick's redraw. The first lap,
/// which also holds the build, is not kept as a tick sample.
struct TickLaps<'a> {
    last: Instant,
    first: bool,
    op_ms: &'a mut Vec<f64>,
}

impl<'a> TickLaps<'a> {
    fn new(op_ms: &'a mut Vec<f64>) -> Self {
        TickLaps {
            last: Instant::now(),
            first: true,
            op_ms,
        }
    }

    fn lap(&mut self) -> f64 {
        let now = Instant::now();
        let ms = now.duration_since(self.last).as_secs_f64() * 1e3;
        self.last = now;
        if !std::mem::take(&mut self.first) {
            self.op_ms.push(ms);
        }
        ms
    }
}

/// What a replayed session leaves behind.
struct Replayed {
    metrics: Metrics,
    svg: String,
    frame_bytes: u64,
}

/// `run_watch` at `cfg`, one call at a time, each layer call inside a
/// span, with the ledger's checks after every tick.
fn replay(
    cfg: &WatchConfig,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    op_ms: &mut Vec<f64>,
    screen: &mut Vec<u8>,
) -> Result<Replayed, String> {
    let params = Params::new(cfg.m, cfg.beta).map_err(|e| e.to_string())?;
    // `--churn rolling`: tenth-of-fleet batches, one every eighth of the
    // session.
    let churn = FaultPlan::none().rolling_restart((cfg.n / 10).max(1), (cfg.ticks / 8).max(2));
    let mut rt = EventRuntime::new(DistConfig::new(params, cfg.n).with_faults(churn), cfg.seed)
        .with_async_epochs(StalenessBound::Unbounded)
        .with_scheduler(SchedulerKind::ShardedCalendar { shards: cfg.shards })
        .with_lookahead(cfg.lookahead)
        .with_threads(cfg.threads);
    let mut env = rewards_env();
    let mut rng = env_rng(cfg.seed);
    let mut rewards = vec![false; cfg.m];
    let mut recorder = MetricsRecorder::new(cfg.window);
    let mut proto = SeriesRegistry::new(cfg.window);
    let mut wall = SeriesRegistry::new(cfg.window);
    let ms_series = wall.gauge("ms/tick", "ms");
    let term = LiveTerm::new();
    let mut laps = TickLaps::new(op_ms);
    let mut frame_bytes = 0u64;
    screen.clear();
    for t in 0..cfg.ticks {
        tr.set_tick(t);
        env.sample(t, &mut rng, &mut rewards);
        let id = tr.enter("ProtocolRuntime::observed_round");
        let rm = rt.observed_round(
            &rewards,
            &mut TracedSink {
                inner: &mut recorder,
                tr,
            },
        );
        tr.exit(id);
        recorder.record_wall_ms(laps.lap());
        let frame = recorder.latest().expect("a frame is recorded every tick");
        let ms = frame.wall_ms.unwrap_or(0.0);
        tr.span("SeriesRegistry::push", || wall.push(ms_series, ms));
        push_frame(&mut proto, frame, tr);
        let text = format!(
            "{}{}\n",
            tr.span("LiveTerm::render", || term.render(&proto)),
            tr.span("LiveTerm::render", || term.render(&wall))
        );
        screen
            .write_all(text.as_bytes())
            .map_err(|e| format!("dashboard write failed: {e}"))?;
        frame_bytes += text.len() as u64;
        ledger.after_tick(&rt, &rm);
    }
    let title = format!(
        "{} · N={} m={} beta={} · {:?}/{:?} · seed {}",
        cfg.name, cfg.n, cfg.m, cfg.beta, cfg.model, cfg.churn, cfg.seed
    );
    let svg = tr.span("LiveSvg::render", || LiveSvg::new(&title).render(&proto));
    Ok(Replayed {
        metrics: ProtocolRuntime::metrics(&rt),
        svg,
        frame_bytes,
    })
}

/// Forwards observations to the recorder inside a span.
struct TracedSink<'a> {
    inner: &'a mut MetricsRecorder,
    tr: &'a mut Tracer,
}

impl TelemetrySink for TracedSink<'_> {
    fn on_tick(&mut self, obs: &TickObservation) {
        let id = self.tr.enter("MetricsRecorder::on_tick");
        self.inner.on_tick(obs);
        self.tr.exit(id);
    }
}

/// `experiments watch`'s `push_frame`: each series is looked up by name
/// and pushed every tick, one span per registry call.
fn push_frame(reg: &mut SeriesRegistry, f: &TelemetryFrame, tr: &mut Tracer) {
    let lo = f.shard_loads.iter().min().copied().unwrap_or(0);
    let hi = f.shard_loads.iter().max().copied().unwrap_or(0);
    let d = &f.delta;
    let series: [(&str, &str, bool, f64); 11] = [
        ("alive", "nodes", true, f.alive as f64),
        ("commit fraction", "", true, f.commit_fraction),
        ("epoch skew", "epochs", true, f.epoch_skew as f64),
        ("queries", "msgs/tick", false, d.queries_sent as f64),
        ("replies", "msgs/tick", false, d.replies_received as f64),
        ("fallbacks", "/tick", false, d.fallbacks as f64),
        ("queue drops", "/tick", false, d.queue_drops as f64),
        ("stale replies", "/tick", false, d.stale_replies as f64),
        (
            "churn events",
            "/tick",
            false,
            (d.joins + d.leaves + d.rejoins) as f64,
        ),
        ("rebalances", "/tick", false, f.rebalances as f64),
        ("shard imbalance", "nodes", true, (hi - lo) as f64),
    ];
    let mut ids = Vec::with_capacity(series.len());
    for (name, unit, gauge, _) in series {
        ids.push(tr.span("SeriesRegistry::register", || {
            if gauge {
                reg.gauge(name, unit)
            } else {
                reg.counter(name, unit)
            }
        }));
    }
    for (id, (.., v)) in ids.into_iter().zip(series) {
        tr.span("SeriesRegistry::push", || reg.push(id, v));
    }
}

impl Workload for WatchSession {
    type State = u64;

    /// Runs one whole untimed `run_watch` session.
    fn setup(&self, seed: u64) -> Result<u64, String> {
        self.run(seed, &mut Vec::new(), &mut Vec::new())?;
        Ok(seed)
    }

    /// Untraced, times back-to-back `run_watch` sessions, then replays
    /// the first cycle untimed for the per-tick checks and the regret.
    /// Traced, times replayed sessions, each checked as it runs.
    fn timed(
        &self,
        seed: u64,
        tr: &mut Tracer,
        budget: Duration,
        _full: bool,
    ) -> Result<Phase, String> {
        let mut phase = Phase {
            threads: POOL_THREADS,
            ..Phase::default()
        };
        let ticks_per_session = self.config(seed).ticks;
        let n = self.config(seed).n;
        let mut screen = Vec::new();
        let mut total = Ledger::new(n, &rewards_env());
        let (mut frame_bytes, mut svg_bytes) = (0u64, 0u64);
        let mut cycle: Vec<String> = Vec::with_capacity(Self::SEEDS);
        let mut exact: Vec<String> = Vec::with_capacity(Self::SEEDS);
        let (mut regret, mut msgs) = (0.0, 0.0);
        // Books a checked session of the first cycle.
        let mut book = |ledger: &Ledger, print: &str, failed: &mut u64| {
            *failed += ledger.failed;
            regret += ledger.regret() / Self::SEEDS as f64;
            msgs += ledger.msgs_per_node_round() / Self::SEEDS as f64;
            exact.push(format!(
                "{print} regret={:e} msgs={}",
                ledger.regret(),
                ledger.msgs
            ));
        };
        let start = Instant::now();
        let mut sessions = 0usize;
        while sessions < Self::SEEDS || start.elapsed() < budget {
            let slot = sessions % Self::SEEDS;
            let session_seed = Self::session_seed(seed, slot);
            let session_start = Instant::now();
            let print = if tr.enabled() {
                let mut ledger = Ledger::new(n, &rewards_env());
                let cfg = self.config(session_seed);
                let out = replay(&cfg, tr, &mut ledger, &mut phase.op_ms, &mut screen)?;
                let print = fingerprint(&out.metrics, &out.svg);
                frame_bytes += out.frame_bytes;
                svg_bytes += out.svg.len() as u64;
                total.absorb(&ledger);
                if sessions < Self::SEEDS {
                    book(&ledger, &print, &mut phase.failed);
                } else {
                    phase.failed += ledger.failed;
                }
                print
            } else {
                self.run(session_seed, &mut phase.op_ms, &mut screen)?
            };
            phase.unit_s.push(session_start.elapsed().as_secs_f64());
            if sessions < Self::SEEDS {
                cycle.push(print);
            } else if print != cycle[slot] {
                // Same seed, same session: anything else is a bug.
                phase.failed += 1;
            }
            sessions += 1;
        }
        let wall_s = start.elapsed().as_secs_f64();
        let ticks = sessions as u64 * ticks_per_session;
        if !tr.enabled() {
            // Every timed session repeated one of these; the replay
            // checks each tick of them and must end where `run_watch`
            // ended.
            let mut quiet = Tracer::new(false);
            for (slot, print) in cycle.iter().enumerate() {
                let mut ledger = Ledger::new(n, &rewards_env());
                let cfg = self.config(Self::session_seed(seed, slot));
                let out = replay(&cfg, &mut quiet, &mut ledger, &mut Vec::new(), &mut screen)?;
                let replayed = fingerprint(&out.metrics, &out.svg);
                if replayed != *print {
                    eprintln!("replay differs from run_watch:\n  run_watch {print}\n  replay    {replayed}");
                    phase.failed += 1;
                }
                book(&ledger, print, &mut phase.failed);
            }
        }
        phase.exact = exact.join("\n");
        phase.regret = regret;
        phase.msgs_per_node_round = msgs;
        phase.attempted = ticks;
        phase.node_rounds_per_s = n as f64 * ticks as f64 / wall_s;
        if tr.enabled() {
            let sessions = sessions as u64;
            let totals = layer_totals(tr.spans());
            let total_ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
            let registry_ns =
                total_ns("SeriesRegistry::register") + total_ns("SeriesRegistry::push");
            phase.layers = round_layers(tr, "ProtocolRuntime::observed_round", ticks, total.msgs);
            phase.layers.extend(total.protocol_layers());
            phase.layers.extend([
                (
                    "dist.telemetry.us_per_tick",
                    total_ns("MetricsRecorder::on_tick") / ticks as f64 / 1e3,
                ),
                (
                    "plot.registry.us_per_tick",
                    registry_ns / ticks as f64 / 1e3,
                ),
                (
                    "plot.liveterm.us_per_frame",
                    total_ns("LiveTerm::render") / ticks as f64 / 1e3,
                ),
                (
                    "plot.liveterm.bytes_per_frame",
                    frame_bytes as f64 / ticks as f64,
                ),
                (
                    "plot.livesvg.ms_per_render",
                    total_ns("LiveSvg::render") / sessions as f64 / 1e6,
                ),
                ("plot.livesvg.bytes", svg_bytes as f64 / sessions as f64),
            ]);
        }
        Ok(phase)
    }
}

/// FNV-1a, to fingerprint a rendered snapshot.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
