//! What every workload provides, and what one timed phase reports.

use crate::trace::Tracer;
use std::time::Duration;

/// One named per-layer figure.
pub type Layer = (&'static str, f64);

/// The outcome of one timed phase of a workload.
#[derive(Debug, Default)]
pub struct Phase {
    /// Latency of each operation (a tick, or an experiment), ms.
    pub op_ms: Vec<f64>,
    /// The typical operation's latency, ms, where the plain median of
    /// `op_ms` is ill-conditioned (operations of very different sizes);
    /// `None` takes the median of `op_ms`.
    pub typical_op_ms: Option<f64>,
    /// Wall time of each fixed unit of work (the 400-tick block, a watch
    /// session, a suite pass), s.
    pub unit_s: Vec<f64>,
    /// Node-rounds simulated per second of wall time.
    pub node_rounds_per_s: f64,
    /// Operations run.
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// Time-averaged expected regret over the exact block.
    pub regret: f64,
    /// (queries + replies) per node-round over the exact block.
    pub msgs_per_node_round: f64,
    /// Every exact count of the phase, rendered; a traced and an
    /// untraced phase at one seed must agree on it.
    pub exact: String,
    /// Workload-specific per-layer figures (meaningful when traced).
    pub layers: Vec<Layer>,
    /// Worker threads the phase pinned (the engine pool, if any).
    pub threads: usize,
}

/// A benchmark workload.
pub trait Workload {
    /// Everything built before timing starts.
    type State;

    /// Constructs the runtime, generates inputs and runs the warm-up.
    fn setup(&self, seed: u64) -> Result<Self::State, String>;

    /// Runs for at least `budget` (and at least the workload's fixed
    /// exact block), with spans recorded into `tr` when it is enabled.
    /// `full` asks for enough operations to report the p90 latency.
    fn timed(
        &self,
        state: Self::State,
        tr: &mut Tracer,
        budget: Duration,
        full: bool,
    ) -> Result<Phase, String>;
}
