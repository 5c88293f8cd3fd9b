//! Layer probes that do not depend on the workload — the calendar
//! replay, the worker-pool fan-out and the reward draw — plus the
//! host probe, peak memory and the machine stamp.

use crate::trace::{layer_totals, Tracer};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_core::{BernoulliRewards, RewardModel};
use sociolearn_dist::{Calendar, Entry, MAX_MESSAGE_LATENCY};
use sociolearn_sim::WorkerPool;
use std::hint::black_box;
use std::time::Instant;

/// Entries one shard lane's calendar holds per virtual-time window in
/// `fleet-sharded-n1e5`: about 3.8e5 calendar entries per tick
/// (1e5 wakes, 1.8e5 queries, 0.97e5 replies at N=1e5, m=4, 1% loss),
/// over the 32-window wake spread, over 8 lanes.
pub const CAL_ENTRIES_PER_WINDOW: usize = 1_500;
const CAL_WINDOWS: u64 = 400;

/// Empty jobs per `WorkerPool::map` call and pool threads: one job per
/// shard lane of the 8-shard engines, on the benchmark's 2 threads.
const POOL_JOBS: usize = 8;
pub const POOL_THREADS: usize = 2;
const POOL_CALLS: usize = 2_000;

const REWARD_CALLS: u64 = 20_000;

/// Per-layer figures from the workload-independent probes.
pub struct LayerProbe {
    pub calendar_ns_per_entry: f64,
    pub pool_us_per_map: f64,
    pub reward_us_per_tick: f64,
}

/// Replays the calendar, the pool fan-out and the reward draw under
/// `tr` (which must be enabled) and reads their spans back.
pub fn probe_layers(tr: &mut Tracer, seed: u64) -> LayerProbe {
    assert!(tr.enabled(), "layer probes read their figures from spans");
    let first = tr.spans().len();

    let mut rng = SmallRng::seed_from_u64(seed);
    let mut cal: Calendar<u64> = Calendar::new();
    let mut seq = 0u32;
    let lane_nodes = 100_000 / 8;
    // Fill the ring's horizon first so every replayed window both
    // schedules and drains a full window's worth of entries.
    for now in 0..CAL_WINDOWS + MAX_MESSAGE_LATENCY {
        tr.set_tick(now);
        let id = tr.enter("Calendar::push+take_due");
        for _ in 0..CAL_ENTRIES_PER_WINDOW {
            seq = seq.wrapping_add(1);
            cal.push(Entry {
                at: now + rng.gen_range(1..=MAX_MESSAGE_LATENCY),
                src: rng.gen_range(0..lane_nodes),
                seq,
                payload: u64::from(seq),
            });
        }
        let due = cal.take_due(now);
        black_box(due.len());
        cal.recycle(due);
        tr.exit(id);
    }

    let pool = WorkerPool::new(POOL_THREADS);
    for call in 0..POOL_CALLS {
        tr.set_tick(call as u64);
        let id = tr.enter("WorkerPool::map");
        let out = pool.map(vec![(); POOL_JOBS], |()| black_box(0u8));
        tr.exit(id);
        black_box(out);
    }
    drop(pool);

    let mut env = BernoulliRewards::linear(4, 0.9, 0.1).expect("valid linear rewards");
    let mut rewards = [false; 4];
    for t in 0..REWARD_CALLS {
        tr.set_tick(t);
        let id = tr.enter("BernoulliRewards::sample");
        env.sample(t, &mut rng, &mut rewards);
        tr.exit(id);
        black_box(&rewards);
    }

    let totals = layer_totals(&tr.spans()[first..]);
    let cal = totals["Calendar::push+take_due"];
    let pool = totals["WorkerPool::map"];
    let reward = totals["BernoulliRewards::sample"];
    LayerProbe {
        // The first MAX_MESSAGE_LATENCY windows only fill the ring.
        calendar_ns_per_entry: cal.total_ns as f64
            / ((CAL_WINDOWS + MAX_MESSAGE_LATENCY) as usize * CAL_ENTRIES_PER_WINDOW) as f64,
        pool_us_per_map: pool.total_ns as f64 / pool.calls as f64 / 1e3,
        reward_us_per_tick: reward.total_ns as f64 / reward.calls as f64 / 1e3,
    }
}

/// Array size of the host probe: 16 MiB of `u32`s, four times a
/// core's 4 MiB L2 and well inside a shared L3 of a few hundred MiB.
const PROBE_WORDS: usize = 4 << 20;
const PROBE_STEPS: usize = 500_000;
const PROBE_REPS: usize = 5;

/// A fixed pointer-chasing random-read loop: milliseconds per pass,
/// median of a few passes. Its input is the same on every run, so a
/// change in it is a change in the host, not in the program.
pub fn host_probe_ms() -> f64 {
    // Sattolo's shuffle gives a single cycle through every slot.
    let mut next: Vec<u32> = (0..PROBE_WORDS as u32).collect();
    let mut rng = SmallRng::seed_from_u64(0x5eed_cafe);
    for i in (1..PROBE_WORDS).rev() {
        let j = rng.gen_range(0..i);
        next.swap(i, j);
    }
    let mut times = Vec::with_capacity(PROBE_REPS);
    let mut at = 0u32;
    for _ in 0..PROBE_REPS {
        let start = Instant::now();
        for _ in 0..PROBE_STEPS {
            at = next[at as usize];
        }
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    black_box(at);
    crate::stats::median(&times).expect("probe ran")
}

/// Runs [`host_probe_ms`] in a child process, so its array never
/// counts towards this process's peak memory.
pub fn host_probe_in_child() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--host-probe")
        .output()
        .map_err(|e| format!("host probe did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("host probe failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("host probe printed {text:?}"))
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("process status has no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// `nproc` and the CPU model, stamped on every result.
pub fn machine_stamp() -> (usize, String) {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    (nproc, model)
}
