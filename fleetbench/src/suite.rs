//! `suite-quick`: every registered experiment through
//! `experiments::run_by_id` in quick mode, into a scratch output
//! directory inside the benchmark's own tree.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{Layer, Phase, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sociolearn_experiments::{registry, run_by_id, ExpContext};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The experiments that dominate a quick pass, reported one by one;
/// the rest are summed into `experiments.other_s`.
const HEAVY: [(&str, &str); 4] = [
    ("E9", "experiments.E9_s"),
    ("E15", "experiments.E15_s"),
    ("E17", "experiments.E17_s"),
    ("E19", "experiments.E19_s"),
];

/// The experiments' seed: the `experiments` CLI default, the seed the
/// repository's smoke test checks every verdict at. The quick verdicts
/// are statistical and some fail at other seeds (E13 at seed 4), so the
/// benchmark's `--seed` orders the experiments within each pass
/// instead.
const SUITE_SEED: u64 = 20170508;

/// Passes a full run makes at least: with 18 experiments a pass, six
/// passes give the 100 operations the p90 latency needs.
const MIN_PASSES: usize = 6;

pub struct QuickSuite {
    /// Where scratch output directories are made.
    pub scratch: PathBuf,
}

/// A quick-suite context and its output directory, removed on drop.
pub struct SuiteState {
    ctx: ExpContext,
    order: SmallRng,
}

impl Drop for SuiteState {
    fn drop(&mut self) {
        // Best effort: a leftover directory is ignored by git anyway.
        let _ = std::fs::remove_dir_all(&self.ctx.out_dir);
    }
}

/// E15's own figures from one pass: the message-passing experiment's
/// regret, message cost and simulated node-rounds.
#[derive(Debug, Clone, PartialEq)]
struct E15Figures {
    regret: f64,
    msgs_per_node_round: f64,
    node_rounds: f64,
}

/// Reads E15's artifacts: the mean regret and messages per round over
/// its runtime × condition rows (`E15.csv`) and the fleet size,
/// horizon and replications from its report header (`E15.md`).
fn read_e15(dir: &Path) -> Result<E15Figures, String> {
    let csv = std::fs::read_to_string(dir.join("E15.csv")).map_err(|e| format!("E15.csv: {e}"))?;
    let md = std::fs::read_to_string(dir.join("E15.md")).map_err(|e| format!("E15.md: {e}"))?;
    let mut lines = csv.lines();
    let header: Vec<&str> = lines.next().ok_or("E15.csv is empty")?.split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or(format!("E15.csv has no {name} column"))
    };
    let (regret_col, msgs_col) = (col("regret")?, col("msgs_per_round")?);
    let (mut regret, mut msgs, mut rows) = (0.0, 0.0, 0usize);
    for line in lines {
        let cells: Vec<&str> = line.split(',').collect();
        let num = |c: usize| -> Result<f64, String> {
            cells
                .get(c)
                .and_then(|v| v.parse().ok())
                .ok_or(format!("bad E15.csv row {line:?}"))
        };
        regret += num(regret_col)?;
        msgs += num(msgs_col)?;
        rows += 1;
    }
    if rows == 0 {
        return Err("E15.csv has no rows".into());
    }
    let after = |key: &str| -> Result<f64, String> {
        let rest = &md[md.find(key).ok_or(format!("E15.md lacks {key:?}"))? + key.len()..];
        let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
        digits
            .parse()
            .map_err(|_| format!("E15.md: no number after {key:?}"))
    };
    let n = after("N = ")?;
    let horizon = after("horizon ")?;
    let reps = after(&format!("horizon {horizon}, "))?;
    Ok(E15Figures {
        regret: regret / rows as f64,
        msgs_per_node_round: msgs / rows as f64 / n,
        node_rounds: n * horizon * reps * rows as f64,
    })
}

/// E15 alone in quick mode at context seeds `1..=seeds`: its regret
/// and messages per node-round at each. The suite reads these figures
/// at one fixed seed, so a change of E15's trajectories moves them the
/// way a change of seed would; this spread says how far that can be.
/// E15's verdict is not checked here: it is statistical, and the suite
/// checks it at its own seed.
pub fn e15_by_seed(scratch: &Path, seeds: u64) -> Result<Vec<(u64, f64, f64)>, String> {
    let dir = scratch.join(format!("e15-seeds-{}", std::process::id()));
    let mut rows = Vec::new();
    for seed in 1..=seeds {
        run_by_id("E15", &ExpContext::new(&dir, true, seed))?;
        let fig = read_e15(&dir)?;
        rows.push((seed, fig.regret, fig.msgs_per_node_round));
    }
    // Best effort: a leftover directory is ignored by git anyway.
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rows)
}

impl Workload for QuickSuite {
    type State = SuiteState;

    /// Makes the output directory and warms up on every experiment but
    /// the four heavy ones, which dominate a pass and are long enough
    /// not to need it.
    fn setup(&self, seed: u64) -> Result<SuiteState, String> {
        let dir = self
            .scratch
            .join(format!("suite-{}-{seed}", std::process::id()));
        let state = SuiteState {
            ctx: ExpContext::new(&dir, true, SUITE_SEED),
            order: SmallRng::seed_from_u64(seed),
        };
        // Verdicts are checked on the timed passes.
        for e in registry() {
            if HEAVY.iter().all(|(id, _)| *id != e.id) {
                run_by_id(e.id, &state.ctx)?;
            }
        }
        Ok(state)
    }

    fn timed(
        &self,
        mut state: SuiteState,
        tr: &mut Tracer,
        budget: Duration,
        full: bool,
    ) -> Result<Phase, String> {
        let ids: Vec<&'static str> = registry().iter().map(|e| e.id).collect();
        let mut order: Vec<usize> = (0..ids.len()).collect();
        let min_passes = if full { MIN_PASSES } else { 1 };
        let mut phase = Phase {
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            ..Phase::default()
        };
        let mut per_id: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut first: Option<(Vec<bool>, E15Figures)> = None;
        let start = Instant::now();
        let mut passes = 0;
        while passes < min_passes || start.elapsed() < budget {
            let pass_start = Instant::now();
            let mut verdicts = vec![false; ids.len()];
            for k in (1..order.len()).rev() {
                order.swap(k, state.order.gen_range(0..=k));
            }
            for &i in &order {
                let id = ids[i];
                tr.set_tick(i as u64);
                let op_start = Instant::now();
                let result = tr.span("experiments::run_by_id", || run_by_id(id, &state.ctx));
                let secs = op_start.elapsed().as_secs_f64();
                phase.op_ms.push(secs * 1e3);
                per_id.entry(id).or_default().push(secs);
                let ok = match result {
                    Ok(report) => report.pass && state.ctx.path(&format!("{id}.md")).is_file(),
                    Err(err) => {
                        eprintln!("{id}: {err}");
                        false
                    }
                };
                phase.failed += u64::from(!ok);
                verdicts[i] = ok;
            }
            phase.unit_s.push(pass_start.elapsed().as_secs_f64());
            phase.attempted += ids.len() as u64;
            match read_e15(&state.ctx.out_dir) {
                Ok(fig) if first.is_none() => first = Some((verdicts, fig)),
                // Same seed, same suite: the figures must repeat.
                Ok(fig) => phase.failed += u64::from(first.as_ref() != Some(&(verdicts, fig))),
                Err(err) => {
                    eprintln!("E15 artifacts: {err}");
                    phase.failed += 1;
                }
            }
            passes += 1;
        }
        if let Some((verdicts, fig)) = &first {
            phase.regret = fig.regret;
            phase.msgs_per_node_round = fig.msgs_per_node_round;
            let e15_s = median(&per_id["E15"]).expect("E15 ran");
            phase.node_rounds_per_s = fig.node_rounds / e15_s;
            phase.exact = format!("{verdicts:?} {fig:?}");
        }
        // Eighteen experiments spread over four orders of magnitude put
        // the plain median of all runs on the edge between two of them,
        // where one slow run moves it, and the median of the experiments'
        // medians is the mean of two small ones, which jitter most. The
        // geometric mean of each experiment's median weighs every
        // experiment alike on a log scale.
        let per_exp: Vec<f64> = per_id
            .values()
            .map(|v| median(v).expect("ran") * 1e3)
            .collect();
        let mean_ln = per_exp.iter().map(|ms| ms.ln()).sum::<f64>() / per_exp.len() as f64;
        phase.typical_op_ms = Some(mean_ln.exp());
        if tr.enabled() {
            // Span ticks are registry indices: sum each experiment's spans.
            let mut span_ns = vec![0u64; ids.len()];
            for s in tr
                .spans()
                .iter()
                .filter(|s| s.name == "experiments::run_by_id")
            {
                span_ns[s.tick as usize] += s.end - s.start;
            }
            let mean_s = |i: usize| span_ns[i] as f64 / passes as f64 / 1e9;
            let heavy = |i: usize| HEAVY.iter().position(|(h, _)| *h == ids[i]);
            let mut layers: Vec<Layer> = HEAVY.iter().map(|(_, name)| (*name, 0.0)).collect();
            let mut other = 0.0;
            for i in 0..ids.len() {
                match heavy(i) {
                    Some(k) => layers[k].1 = mean_s(i),
                    None => other += mean_s(i),
                }
            }
            layers.push(("experiments.other_s", other));
            phase.layers = layers;
        }
        Ok(phase)
    }
}
