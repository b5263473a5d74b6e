//! Operation latency: calls into the program timed one at a time.
//!
//! On the decision service an operation is one `decide`. The engine
//! has no request of its own, so the simulation workloads take their
//! operation latency from a separate stepped pass over the same input:
//! one `run_until` per contact instant of the measured phase. Their
//! throughput (`contacts_per_s`) comes from an unstepped pass timed
//! around one `run_to_end`, and the ratio of the two passes' replay
//! times is printed as the stepping overhead. A run steps its one input
//! several times and keeps the best time of each operation
//! ([`keep_best`]).

use std::time::Instant;

use dtn_core::time::Time;
use dtn_sim::engine::{ContactSource, Scheme, Simulator};

use crate::stats::{percentile, Pct};

/// The per-operation latency limit.
pub const LIMIT_NS: u64 = 1_000_000;

/// Drives `sim` to the end of its input one contact instant at a time:
/// `next_instant` yields the start of the next contact instant (the
/// first one strictly after the contact the source holds), and each
/// `run_until` up to it is one timed operation. Stopping exactly at
/// event times keeps the run bit-identical to one `run_to_end` (the
/// engine samples at the next event either way); every stepped pass
/// checks it against its unstepped twin.
pub fn step_to_end<S: Scheme, C: ContactSource>(
    sim: &mut Simulator<S, C>,
    mut next_instant: impl FnMut() -> Option<Time>,
    op_ns: &mut Vec<u64>,
) {
    while let Some(until) = next_instant() {
        let t = Instant::now();
        sim.run_until(until);
        op_ns.push(t.elapsed().as_nanos() as u64);
    }
    let t = Instant::now();
    sim.run_to_end();
    op_ns.push(t.elapsed().as_nanos() as u64);
}

/// Folds one more stepped pass over the same input into `best`, keeping
/// each operation's least time. Repeated passes do the same operations
/// in the same order, so a preemption or an interrupt that lands on an
/// operation in one pass drops out, while a host that stays slower
/// slows every pass.
pub fn keep_best(best: &mut Vec<u64>, pass: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(pass);
        return;
    }
    assert_eq!(best.len(), pass.len(), "passes over one input step alike");
    for (b, &p) in best.iter_mut().zip(pass) {
        *b = (*b).min(p);
    }
}

/// One pass's operations, summarised so the samples can be dropped
/// (the harness's own buffers must not grow the peak RSS it reports).
#[derive(Debug, Clone, Copy)]
pub struct OpSummary {
    /// Operations timed.
    pub ops: u64,
    /// Median service time.
    pub p50: Pct,
    /// 99th-percentile service time.
    pub p99: Pct,
    /// Operations whose own service time exceeded [`LIMIT_NS`] — the
    /// latency a back-to-back caller sees.
    pub over_limit: u64,
}

impl OpSummary {
    /// Summarises `op_ns`. Fails when a percentile has fewer than ten
    /// samples beyond it.
    pub fn of(op_ns: &[u64]) -> Result<Self, String> {
        let mut sorted = op_ns.to_vec();
        sorted.sort_unstable();
        let need = |p: Option<Pct>, what: &str| {
            p.ok_or_else(|| format!("{what}: fewer than 10 of {} samples beyond", op_ns.len()))
        };
        Ok(OpSummary {
            ops: op_ns.len() as u64,
            p50: need(percentile(&sorted, 0.5), "op p50")?,
            p99: need(percentile(&sorted, 0.99), "op p99")?,
            over_limit: op_ns.iter().filter(|&&t| t > LIMIT_NS).count() as u64,
        })
    }

    /// One line with the sample support of every percentile.
    pub fn describe(&self) -> String {
        format!(
            "{} ops, p50 {:.2} us, p99 {:.2} us ({} beyond), {} over 1 ms",
            self.ops,
            self.p50.value as f64 / 1e3,
            self.p99.value as f64 / 1e3,
            self.p99.beyond,
            self.over_limit,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_best_takes_each_operations_least_time() {
        let mut best = Vec::new();
        keep_best(&mut best, &[5, 9, 2]);
        assert_eq!(best, [5, 9, 2]);
        // A 400 ns hit on the second operation of one pass drops out.
        keep_best(&mut best, &[6, 400, 3]);
        keep_best(&mut best, &[4, 8, 2]);
        assert_eq!(best, [4, 8, 2]);
    }
}
