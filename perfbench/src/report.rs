//! What one run reports: the end-to-end metrics (untraced), the
//! per-layer table (traced), the correctness verdict and the final JSON
//! line.

use std::time::Instant;

use dtn_sim::profiler::ProfileReport;

use crate::ops::OpSummary;
use crate::stats::median;

/// End-to-end metrics, in print order, with their units. Every workload
/// reports every one of them (see `README.md` for what each means on
/// each workload).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("contacts_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("failed_share", "share"),
];

/// Per-layer metrics of the traced run, in print order: name, unit, and
/// the end-to-end metric (and workload) each should move. A layer the
/// workload never enters reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("trace.gen_s", "s", "setup_s, all"),
    ("sim.engine.warmup_s", "s", "setup_s, all"),
    ("core.ncl.election_s", "s", "setup_s, mostly city-10k"),
    (
        "core.path.search_us",
        "us",
        "setup_s on city-10k, contacts_per_s on fig10-mit",
    ),
    (
        "sim.oracle.rebuilds",
        "count",
        "contacts_per_s on fig10-mit, not the baselines",
    ),
    (
        "sim.oracle.table_recomputes",
        "count",
        "contacts_per_s on fig10-mit, not the baselines",
    ),
    (
        "sim.oracle.table_hits",
        "count",
        "contacts_per_s on fig10-mit, not the baselines",
    ),
    (
        "sim.oracle.hit_ratio",
        "share",
        "contacts_per_s on fig10-mit, not the baselines",
    ),
    (
        "core.knapsack.solves",
        "count",
        "contacts_per_s on fig10-mit (~1%), flat on city-10k",
    ),
    (
        "core.knapsack.solve_s",
        "s",
        "contacts_per_s on fig10-mit (~1%), flat on city-10k",
    ),
    (
        "workload.gen_s",
        "s",
        "contacts_per_s, fig10-mit and city-10k",
    ),
    ("sim.engine.replay_s", "s", "contacts_per_s, all"),
    (
        "sim.engine.contact_commit_self_s",
        "s",
        "contacts_per_s, op_p50_us, all",
    ),
    ("cache.intentional_s", "s", "contacts_per_s, op_p99_us, all"),
    ("cache.nocache_s", "s", "contacts_per_s on fig10-mit"),
    ("cache.randomcache_s", "s", "contacts_per_s on fig10-mit"),
    ("cache.cachedata_s", "s", "contacts_per_s on fig10-mit"),
    ("cache.bundlecache_s", "s", "contacts_per_s on fig10-mit"),
    ("serve.answer_p50_us", "us", "op_p50_us on serve-200"),
    ("serve.answer_p99_us", "us", "op_p99_us on serve-200"),
    ("serve.place_p99_us", "us", "op_p99_us on serve-200"),
    ("serve.route_p99_us", "us", "op_p99_us on serve-200"),
    ("serve.ingest_share", "share", "op_p50_us on serve-200"),
    (
        "serve.snapshot_changes",
        "count",
        "contacts_per_s (decisions/s) on serve-200",
    ),
    (
        "serve.top10_answer_share",
        "share",
        "contacts_per_s (decisions/s) on serve-200",
    ),
    (
        "serve.open_p999_us_at_10k",
        "us",
        "contacts_per_s (decisions/s) on serve-200",
    ),
    (
        "serve.max_rate_at_1ms",
        "1/s",
        "informational (rests on two stalls)",
    ),
    (
        "residual_s",
        "s",
        "accounting: wall time the table does not cover",
    ),
    (
        "trace_overhead",
        "ratio",
        "accounting: traced / untraced wall time",
    ),
];

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Whether a run started at `started` that has made `done` repetitions
/// makes another: always below `min`, and otherwise while another one,
/// at the mean time of those made, and `reserve` seconds after it still
/// end within `seconds`. The host's speed swings by up to 2x over
/// minutes, so a run is sized by the time its repetitions take, not by
/// a nominal repetition time.
pub fn another(started: Instant, done: u64, min: u64, reserve: f64, seconds: u64) -> bool {
    let elapsed = secs(started);
    done < min || elapsed + elapsed / done as f64 + reserve <= seconds as f64
}

/// The seed of the committed instances: every library entry point the gates
/// compare against (`figures::fig10`, `ScaleConfig::city`,
/// `ServeBenchConfig::full`) builds its trace with it.
pub const COMMITTED_SEED: u64 = 42;

/// The input seed `i` of a run started with `--seed seed`. Input 0 is
/// the committed instance, identical in every run; later inputs take
/// SplitMix64 of `(seed, i)`, so the same `--seed` always sees the same
/// inputs.
pub fn input_seed(seed: u64, i: u64) -> u64 {
    if i == 0 {
        return COMMITTED_SEED;
    }
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-layer table of one traced run.
pub struct Layers {
    values: Vec<f64>,
    traced_wall_s: f64,
    untraced_wall_s: f64,
    top_level_s: f64,
    notes: Vec<String>,
}

impl Layers {
    /// An all-zero table for a traced run of `traced_wall_s` whose
    /// untraced runs of the same input took `untraced_wall_s` on average.
    pub fn new(traced_wall_s: f64, untraced_wall_s: f64) -> Self {
        Layers {
            values: vec![0.0; PER_LAYER.len()],
            traced_wall_s,
            untraced_wall_s,
            top_level_s: 0.0,
            notes: Vec::new(),
        }
    }

    fn slot(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|&(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric {name}"))
    }

    /// Sets one row.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::slot(name)] = value;
    }

    /// Sets a top-level span row: it counts toward the accounted wall
    /// time that `residual_s` is measured against.
    pub fn top(&mut self, name: &str, value: f64) {
        self.set(name, value);
        self.top_level_s += value;
    }

    /// Counts a top-level span that has no row of its own toward the
    /// accounted wall time.
    pub fn account(&mut self, value: f64) {
        self.top_level_s += value;
    }

    /// Adds a free-text line printed under the table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Folds one engine phase profile into the knapsack and
    /// contact-commit rows.
    pub fn add_profile(&mut self, profile: Option<&ProfileReport>) {
        let Some(profile) = profile else { return };
        for e in &profile.entries {
            match e.phase {
                "knapsack_solve" => {
                    self.values[Self::slot("core.knapsack.solves")] += e.calls as f64;
                    self.values[Self::slot("core.knapsack.solve_s")] += e.total_ns as f64 * 1e-9;
                }
                "contact_commit" => {
                    self.values[Self::slot("sim.engine.contact_commit_self_s")] +=
                        e.self_ns as f64 * 1e-9;
                }
                _ => {}
            }
        }
    }

    /// Sets the oracle rows from the probe's cumulative counters.
    pub fn oracle(&mut self, rebuilds: u64, recomputes: u64, hits: u64) {
        self.note(format!(
            "oracle rows are cumulative as of the last of {rebuilds} snapshot rebuilds: \
             the probe sees the counters only on rebuild events"
        ));
        self.set("sim.oracle.rebuilds", rebuilds as f64);
        self.set("sim.oracle.table_recomputes", recomputes as f64);
        self.set("sim.oracle.table_hits", hits as f64);
        let lookups = recomputes + hits;
        if lookups > 0 {
            self.set("sim.oracle.hit_ratio", hits as f64 / lookups as f64);
        }
    }

    /// Times `search(source)` on 32 sources spread over `nodes` and sets
    /// `core.path.search_us` to the median call.
    pub fn path_search_us(&mut self, nodes: usize, mut search: impl FnMut(dtn_core::ids::NodeId)) {
        let sources = 32.min(nodes).max(1);
        let times: Vec<f64> = (0..sources)
            .map(|k| {
                let src = dtn_core::ids::NodeId((k * nodes / sources) as u32);
                let t = Instant::now();
                search(src);
                secs(t) * 1e6
            })
            .collect();
        self.set("core.path.search_us", median(&times));
    }

    fn finish(&mut self) {
        self.set("residual_s", self.traced_wall_s - self.top_level_s);
        self.set(
            "trace_overhead",
            self.traced_wall_s / self.untraced_wall_s.max(f64::MIN_POSITIVE),
        );
    }
}

/// Everything one run of one workload reports.
pub struct Outcome {
    workload: &'static str,
    /// Operations attempted (scheme passes, or decisions).
    pub attempted: u64,
    /// Operations that failed (returned an error).
    pub failed: u64,
    /// Correctness mismatches; any entry fails the run.
    pub problems: Vec<String>,
    /// The traced run's table (`--trace 1` only).
    pub layers: Option<Layers>,
    e2e: Vec<Option<f64>>,
}

impl Outcome {
    /// An empty outcome for `workload`.
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            layers: None,
            e2e: vec![None; END_TO_END.len()],
        }
    }

    /// Prints a free-text line ahead of the metrics.
    pub fn note(&self, line: String) {
        println!("{}  {line}", self.workload);
    }

    /// Sets one end-to-end metric.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = END_TO_END
            .iter()
            .position(|&(n, _)| n == name)
            .unwrap_or_else(|| panic!("unknown end-to-end metric {name}"));
        self.e2e[i] = Some(value);
    }

    /// `setup_s`: the median set-up time over the run's repetitions.
    pub fn setup_s(&mut self, per_repetition: &[f64]) {
        self.set("setup_s", median(per_repetition));
    }

    /// `contacts_per_s`: the best repetition's (see [`Outcome::op_latency`]).
    pub fn contacts_per_s(&mut self, per_repetition: &[f64]) {
        self.set(
            "contacts_per_s",
            per_repetition.iter().copied().fold(0.0, f64::max),
        );
    }

    /// `op_p50_us` and `op_p99_us` from `best_ns`, each operation's best
    /// time over the run's repetitions of one input; a missing
    /// percentile is recorded as a problem. Every timing but set-up is
    /// taken at its best over a run: the host slows whole stretches of a
    /// run, often for tens of seconds and by up to 2x, and never speeds
    /// one up, while a change to the code moves every repetition alike.
    pub fn op_latency(&mut self, best_ns: &[u64]) {
        match OpSummary::of(best_ns) {
            Ok(s) => {
                self.note(format!("each operation at its best: {}", s.describe()));
                self.set("op_p50_us", s.p50.value as f64 / 1e3);
                self.set("op_p99_us", s.p99.value as f64 / 1e3);
            }
            Err(e) => self.problems.push(format!("{}: {e}", self.workload)),
        }
    }

    /// `failed_share`: `failed` of `attempted` requests.
    pub fn failed_share(&mut self, failed: u64, attempted: u64) {
        self.set("failed_share", failed as f64 / attempted.max(1) as f64);
    }

    /// `peak_rss_mb`: the process's VmHWM now. Call it once the measured
    /// iterations are done and before any correctness re-runs.
    pub fn sample_rss(&mut self) {
        self.set(
            "peak_rss_mb",
            dtn_core::sys::peak_rss_bytes() as f64 / (1024.0 * 1024.0),
        );
    }

    /// Prints the human-readable report and the final JSON line; returns
    /// whether the run was correct.
    pub fn print(mut self, traced: bool) -> bool {
        for (i, &(name, _)) in END_TO_END.iter().enumerate() {
            if !traced && self.e2e[i].is_none() {
                self.problems
                    .push(format!("end-to-end metric {name} was not measured"));
            }
        }
        let w = self.workload;
        if !traced {
            println!("== {w}: end-to-end (untraced)");
            for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
                if let Some(v) = self.e2e[i] {
                    println!("{w}  {name:<24} {v:>16.6} {unit}");
                }
            }
        }
        let mut metrics = Vec::new();
        if traced {
            let layers = self
                .layers
                .as_mut()
                .expect("traced run fills the layer table");
            layers.finish();
            println!("== {w}: per-layer (traced run)");
            for (i, &(name, unit, moves)) in PER_LAYER.iter().enumerate() {
                println!(
                    "{w}  {name:<34} {:>16.6} {unit:<6} -> {moves}",
                    layers.values[i]
                );
                metrics.push((name, layers.values[i], unit));
            }
            for line in &layers.notes {
                println!("{w}  note: {line}");
            }
        } else {
            for (i, &(name, unit)) in END_TO_END.iter().enumerate() {
                metrics.push((name, self.e2e[i].unwrap_or(f64::NAN), unit));
            }
        }
        for p in &self.problems {
            println!("{w}  MISMATCH: {p}");
        }
        let correct = self.problems.is_empty();
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, v, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        );
        correct
    }
}

/// A finite number with all its digits; non-finite values (never
/// expected) become `null` so the line stays valid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::json::JsonValue;

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(JsonValue::as_str)
                        .unwrap_or("")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let doc = JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|&(n, u, _)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
        let workloads: Vec<String> = listed(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, ["fig10-mit", "serve-200"]);
    }

    #[test]
    fn another_keeps_the_minimum_then_fits_the_seconds() {
        let started = Instant::now();
        // Below the minimum a run goes on whatever the time.
        assert!(another(started, 0, 2, 1e9, 1));
        assert!(another(started, 1, 2, 1e9, 1));
        // Past it, another repetition (about no time here) and the
        // reserve must fit.
        assert!(another(started, 2, 2, 5.0, 10));
        assert!(!another(started, 2, 2, 11.0, 10));
    }

    #[test]
    fn iteration_zero_is_the_committed_instance() {
        assert_eq!(input_seed(7, 0), COMMITTED_SEED);
        assert_eq!(input_seed(7, 1), input_seed(7, 1));
        assert_ne!(input_seed(7, 1), input_seed(8, 1));
        assert_ne!(input_seed(7, 1), input_seed(7, 2));
    }
}
