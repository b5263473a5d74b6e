//! `fig10-mit`: the paper's §VI-B base point (Fig. 10 at T_L = 1 week)
//! on the MIT Reality preset at full trace length, all five schemes.
//!
//! Why this workload: it is the paper's headline experiment on a dense
//! graph (97 nodes, ~115k contacts, K = 8). The intentional scheme's
//! path oracle, knapsack and NCL election do real work here, while the
//! four baselines replay the same trace through the bare engine and
//! bypass all three — an oracle change should move
//! `cache.intentional_s` and leave the baseline times flat.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use dtn_cache::experiment::{
    build_scheme, run_experiment, run_experiment_with, ExperimentConfig, ExperimentReport,
};
use dtn_cache::intentional::IntentionalConfig;
use dtn_cache::reference::ReferenceIntentionalScheme;
use dtn_cache::{CachingScheme, NetworkSetup, SchemeKind};
use dtn_core::graph::ContactGraph;
use dtn_core::ids::NodeId;
use dtn_core::time::Time;
use dtn_sim::engine::{SimConfig, Simulator, TraceSource};
use dtn_sim::probe::RecordingProbe;
use dtn_sim::profiler::ProfileReport;
use dtn_trace::synthetic::SyntheticTraceBuilder;
use dtn_trace::{ContactTrace, TracePreset};
use dtn_workload::{Workload, WorkloadConfig};

use crate::ops::{self, step_to_end};
use crate::report::{another, input_seed, secs, Layers, Outcome, COMMITTED_SEED};

/// Points a run measures however short `--seconds` is.
const MIN_POINTS: u64 = 3;

/// The §VI-B base configuration: every `ExperimentConfig` default
/// (K = 8, T_L = 1 week, s_avg = 100 Mb, Zipf s = 1, 200–600 Mb buffers).
fn config() -> ExperimentConfig {
    ExperimentConfig::default()
}

fn horizon(cfg: &ExperimentConfig) -> f64 {
    cfg.horizon
        .unwrap_or_else(|| cfg.mean_data_lifetime.as_secs_f64().max(3600.0))
}

fn sim_config(cfg: &ExperimentConfig, seed: u64, profile: bool) -> SimConfig {
    SimConfig {
        buffer_range: cfg.buffer_range,
        sample_interval: cfg.sample_interval,
        epoch_interval: cfg.epoch_interval,
        path_refresh: cfg.path_refresh,
        seed,
        profile,
        ..SimConfig::default()
    }
}

/// The trace is the one `figures::fig10` builds: the preset at the
/// committed seed. The input seed drives the workload, the buffers and
/// every protocol draw, as the figure's own seed sweep does; a new trace
/// per seed would swing the replay time by 2x and drown any change in
/// the code.
fn trace() -> ContactTrace {
    SyntheticTraceBuilder::from_preset(TracePreset::MitReality)
        .seed(COMMITTED_SEED)
        .build()
}

/// One scheme's pass through warm-up → election → workload → replay.
struct SchemeRun {
    kind: SchemeKind,
    warmup_s: f64,
    election_s: f64,
    workload_s: f64,
    replay_s: f64,
    report: ExperimentReport,
    profile: Option<ProfileReport>,
    /// `(rebuilds, table_recomputes, table_hits)` from a counters-only
    /// probe (traced intentional pass only).
    oracle: Option<(u64, u64, u64)>,
}

/// One point: the trace plus all five scheme passes.
struct Point {
    gen_s: f64,
    /// Wall time of the trace and the five passes.
    wall_s: f64,
    /// Contacts in the measured half, dispatched once per scheme.
    measured_contacts: u64,
    runs: Vec<SchemeRun>,
}

/// A simulator of one scheme over the committed trace.
type Sim<'t> = Simulator<Box<dyn CachingScheme>, TraceSource<'t>>;

/// What the phases before the measured one left beside the simulator.
struct Phases {
    kind: SchemeKind,
    probe: Option<Rc<RefCell<RecordingProbe>>>,
    warmup_s: f64,
    election_s: f64,
    workload_s: f64,
    data_items: u64,
}

/// Takes `kind` through warm-up, election and workload injection
/// exactly as `run_experiment` does, timing each call into the program,
/// and returns the simulator ready for the measured phase.
fn prepare<'t>(
    trace: &'t ContactTrace,
    kind: SchemeKind,
    cfg: &ExperimentConfig,
    seed: u64,
    traced: bool,
) -> (Sim<'t>, Phases) {
    let mut sim = Simulator::new(
        trace,
        build_scheme(kind, cfg),
        sim_config(cfg, seed, traced),
    );
    let probe = (traced && kind == SchemeKind::Intentional)
        .then(|| Rc::new(RefCell::new(RecordingProbe::new().without_event_stream())));
    if let Some(p) = &probe {
        sim.set_probe(Box::new(Rc::clone(p)));
    }
    let mid = trace.midpoint();

    let t = Instant::now();
    sim.run_until(mid);
    let warmup_s = secs(t);

    let t = Instant::now();
    let capacities: Vec<u64> = (0..trace.node_count() as u32)
        .map(|n| sim.buffer_capacity(NodeId(n)))
        .collect();
    let rate_table = sim.rate_table().clone();
    sim.scheme_mut().configure(&NetworkSetup {
        rate_table: &rate_table,
        now: mid,
        capacities,
        horizon: horizon(cfg),
        path_refresh: cfg.path_refresh,
    });
    let election_s = secs(t);

    let t = Instant::now();
    let end = Time(trace.duration().as_secs());
    let workload = Workload::generate(
        trace.node_count(),
        &WorkloadConfig {
            generation_probability: cfg.generation_probability,
            mean_lifetime: cfg.mean_data_lifetime,
            mean_size: cfg.mean_data_size,
            zipf_exponent: cfg.zipf_exponent,
            query_constraint: cfg.query_constraint,
            window: (mid, end),
            seed,
        },
    );
    let data_items = workload.items().len() as u64;
    sim.add_workload(workload.into_events());
    let workload_s = secs(t);

    let phases = Phases {
        kind,
        probe,
        warmup_s,
        election_s,
        workload_s,
        data_items,
    };
    (sim, phases)
}

/// The scheme's report once the measured phase, which took `replay_s`,
/// has run.
fn finish(mut sim: Sim<'_>, p: Phases, replay_s: f64) -> SchemeRun {
    let Phases {
        kind,
        probe,
        warmup_s,
        election_s,
        workload_s,
        data_items,
    } = p;
    if probe.is_some() {
        drop(sim.take_probe());
    }
    let metrics = sim.metrics().clone();
    SchemeRun {
        kind,
        warmup_s,
        election_s,
        workload_s,
        replay_s,
        report: ExperimentReport {
            scheme: kind,
            queries_issued: metrics.queries_issued,
            success_ratio: metrics.success_ratio(),
            avg_delay_hours: metrics.avg_delay_hours(),
            avg_copies_per_item: metrics.avg_copies_per_item(),
            avg_replacements_per_item: metrics.avg_replacements_per_item(),
            data_items,
            central_nodes: sim.scheme().central_nodes().to_vec(),
            ncl_query_load: sim.scheme().ncl_query_load().to_vec(),
            bytes_per_satisfied_query: metrics.bytes_per_satisfied_query(),
            metrics,
        },
        profile: sim.profile_report(),
        oracle: probe.map(|p| p.borrow().oracle_counters()),
    }
}

/// Runs `scheme` phase by phase exactly as `run_experiment` does; the
/// measured phase is one timed `run_to_end`.
fn run_scheme(
    trace: &ContactTrace,
    kind: SchemeKind,
    cfg: &ExperimentConfig,
    seed: u64,
    traced: bool,
) -> SchemeRun {
    let (mut sim, phases) = prepare(trace, kind, cfg, seed, traced);
    let t = Instant::now();
    sim.run_to_end();
    let replay_s = secs(t);
    finish(sim, phases, replay_s)
}

/// Runs `kind` once more on the same input, untraced, its measured
/// phase stepped one contact instant at a time: one timed operation per
/// instant (the instants after the first, see [`measured_instants`]).
fn run_stepped(
    trace: &ContactTrace,
    kind: SchemeKind,
    cfg: &ExperimentConfig,
    seed: u64,
    instants: &[Time],
    op_ns: &mut Vec<u64>,
) -> SchemeRun {
    let (mut sim, phases) = prepare(trace, kind, cfg, seed, false);
    op_ns.clear();
    let mut next = instants.iter().skip(1).copied();
    let t = Instant::now();
    step_to_end(&mut sim, || next.next(), op_ns);
    let replay_s = secs(t);
    finish(sim, phases, replay_s)
}

/// Distinct contact start times of the measured half, ascending.
fn measured_instants(trace: &ContactTrace) -> Vec<Time> {
    let mid = trace.midpoint();
    let mut instants: Vec<Time> = trace
        .contacts()
        .iter()
        .map(|c| c.start)
        .filter(|&t| t >= mid)
        .collect();
    instants.dedup();
    instants
}

/// One point on input `seed`: the trace and the five scheme passes.
fn run_point(seed: u64, traced: bool) -> Point {
    let started = Instant::now();
    let t = Instant::now();
    let trace = trace();
    let gen_s = secs(t);
    let cfg = config();
    let runs = SchemeKind::ALL
        .iter()
        .map(|&kind| run_scheme(&trace, kind, &cfg, seed, traced))
        .collect();
    let wall_s = secs(started);
    let mid = trace.midpoint();
    Point {
        gen_s,
        wall_s,
        measured_contacts: trace.contacts().iter().filter(|c| c.start >= mid).count() as u64,
        runs,
    }
}

impl Point {
    fn setup_s(&self) -> f64 {
        self.gen_s
            + self
                .runs
                .iter()
                .map(|r| r.warmup_s + r.election_s)
                .sum::<f64>()
    }

    fn replay_s(&self) -> f64 {
        self.runs.iter().map(|r| r.replay_s).sum()
    }

    fn intentional(&self) -> &SchemeRun {
        self.runs
            .iter()
            .find(|r| r.kind == SchemeKind::Intentional)
            .expect("intentional scheme runs")
    }

    /// The deterministic outputs the gate compares bit for bit: each
    /// scheme's success ratio, delay, copies and queries.
    fn outputs(&self) -> Vec<(SchemeKind, u64, u64, u64, u64)> {
        self.runs
            .iter()
            .map(|r| {
                (
                    r.kind,
                    r.report.success_ratio.to_bits(),
                    r.report.avg_delay_hours.to_bits(),
                    r.report.avg_copies_per_item.to_bits(),
                    r.report.queries_issued,
                )
            })
            .collect()
    }
}

/// Checks the harness's phase-by-phase pipeline against
/// `run_experiment` on the same inputs, scheme by scheme.
fn check_against_library(
    trace: &ContactTrace,
    point: &Point,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let cfg = config();
    for run in &point.runs {
        let lib = run_experiment(trace, run.kind, &cfg, seed);
        if lib != run.report {
            problems.push(format!(
                "fig10-mit: {} pipeline differs from run_experiment (success {} vs {})",
                run.kind, run.report.success_ratio, lib.success_ratio
            ));
        }
    }
}

/// The intentional scheme's `Metrics` must equal the reference
/// implementation's on the same inputs.
fn check_against_reference(
    trace: &ContactTrace,
    point: &Point,
    seed: u64,
    problems: &mut Vec<String>,
) {
    let cfg = config();
    let reference = run_experiment_with(
        trace,
        SchemeKind::Intentional,
        Box::new(ReferenceIntentionalScheme::new(IntentionalConfig {
            ncl_count: cfg.ncl_count,
            response: cfg.response,
            replacement: cfg.replacement,
            probabilistic_selection: cfg.probabilistic_selection,
            response_routing: cfg.response_routing,
            ncl_selection: cfg.ncl_selection,
            ..IntentionalConfig::default()
        })),
        &cfg,
        seed,
    );
    if reference.metrics != point.intentional().report.metrics {
        problems
            .push("fig10-mit: intentional Metrics differ from ReferenceIntentionalScheme".into());
    }
}

/// Runs the workload. Untraced: as many points as fit in `seconds` (at
/// least [`MIN_POINTS`]), all on the one input `seed` derives, every
/// point's outputs checked against the first's, then the library gate;
/// each point is followed by a stepped intentional pass on the
/// committed input, checked against an unstepped one. Traced: the
/// committed input untraced, traced and untraced again, the gates, and
/// the per-layer table.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new("fig10-mit");
    let s0 = input_seed(seed, 0);
    if !traced {
        // Every point repeats the same work, so each timing is taken at
        // its best over the run: a scheme's replay, and each operation
        // of the stepped passes (see `Outcome::op_latency`).
        let s = input_seed(seed, 1);
        // The operations are stepped on the committed input in every
        // run: the median operation's cost follows the workload draw
        // (8.2 us on one seed's input and 13.0 us on another's, each
        // repeatably), which would make the spread over seeds that of
        // the inputs, not of the code.
        let trace = trace();
        let cfg = config();
        let instants = measured_instants(&trace);
        let twin = run_scheme(&trace, SchemeKind::Intentional, &cfg, s0, false);
        let mut pass_ns = Vec::with_capacity(instants.len());
        let mut best_ns = Vec::with_capacity(instants.len());
        let mut best_replay = [f64::INFINITY; SchemeKind::ALL.len()];
        let mut setup = Vec::new();
        // Only the first point is kept whole, for the gates, so the
        // harness's own memory does not grow with the number of points.
        let mut first: Option<Point> = None;
        let started = Instant::now();
        // The library gate after the points takes about one point's
        // unstepped passes.
        for i in 0.. {
            let gate_s = first.as_ref().map_or(0.0, |f| f.wall_s);
            if !another(started, i, MIN_POINTS, gate_s, seconds) {
                break;
            }
            let p = run_point(s, false);
            let stepped = run_stepped(
                &trace,
                SchemeKind::Intentional,
                &cfg,
                s0,
                &instants,
                &mut pass_ns,
            );
            out.note(format!(
                "point {i} input_seed {s}: setup {:.4} s, replay {:.4} s (intentional {:.4} s), \
                 wall {:.4} s; stepped intentional replay on input_seed {s0} {:.4} s, \
                 stepping overhead x{:.4}",
                p.setup_s(),
                p.replay_s(),
                p.intentional().replay_s,
                p.wall_s,
                stepped.replay_s,
                stepped.replay_s / twin.replay_s
            ));
            ops::keep_best(&mut best_ns, &pass_ns);
            if stepped.report != twin.report {
                out.problems.push(format!(
                    "fig10-mit: stepped intentional pass {i} differs from its run_to_end pass"
                ));
            }
            if first.as_ref().is_some_and(|f| f.outputs() != p.outputs()) {
                out.problems.push(format!(
                    "fig10-mit: point {i}'s outputs differ from point 0's"
                ));
            }
            for (best, run) in best_replay.iter_mut().zip(&p.runs) {
                *best = best.min(run.replay_s);
            }
            setup.push(p.setup_s());
            first.get_or_insert(p);
        }
        out.sample_rss();
        let first = first.expect("a run measures at least one point");
        check_against_library(&trace, &first, s, &mut out.problems);
        out.attempted = setup.len() as u64 * SchemeKind::ALL.len() as u64;
        out.setup_s(&setup);
        out.set(
            "contacts_per_s",
            (first.measured_contacts * first.runs.len() as u64) as f64
                / best_replay.iter().sum::<f64>(),
        );
        let report = &first.intentional().report;
        out.failed_share(
            report.queries_issued - report.metrics.queries_satisfied,
            report.queries_issued,
        );
        out.op_latency(&best_ns);
        return out;
    }

    let before = run_point(s0, false);
    let p = run_point(s0, true);
    let after = run_point(s0, false);
    out.sample_rss();
    out.attempted = 3 * SchemeKind::ALL.len() as u64;
    if before.outputs() != p.outputs() || after.outputs() != p.outputs() {
        out.problems
            .push("fig10-mit: traced run's outputs differ from the untraced runs".into());
    }
    let trace = trace();
    check_against_library(&trace, &before, s0, &mut out.problems);
    check_against_reference(&trace, &p, s0, &mut out.problems);

    let mut layers = Layers::new(p.wall_s, (before.wall_s + after.wall_s) / 2.0);
    layers.top("trace.gen_s", p.gen_s);
    layers.top(
        "sim.engine.warmup_s",
        p.runs.iter().map(|r| r.warmup_s).sum(),
    );
    layers.top(
        "core.ncl.election_s",
        p.runs.iter().map(|r| r.election_s).sum(),
    );
    layers.top("workload.gen_s", p.runs.iter().map(|r| r.workload_s).sum());
    layers.top("sim.engine.replay_s", p.replay_s());
    for r in &p.runs {
        layers.set(scheme_layer(r.kind), r.replay_s);
        layers.add_profile(r.profile.as_ref());
    }
    if let Some((rebuilds, recomputes, hits)) = p.intentional().oracle {
        layers.oracle(rebuilds, recomputes, hits);
    }
    // One full single-source search on the warm-up graph.
    let cfg = config();
    let mid = trace.midpoint();
    let mut warm = Simulator::new(
        &trace,
        build_scheme(SchemeKind::NoCache, &cfg),
        sim_config(&cfg, s0, false),
    );
    warm.run_until(mid);
    let graph = ContactGraph::from_rate_table(warm.rate_table(), mid);
    let h = horizon(&cfg);
    layers.path_search_us(graph.node_count(), |src| {
        std::hint::black_box(dtn_core::path::shortest_paths(&graph, src, h));
    });
    out.layers = Some(layers);
    out
}

/// The per-scheme replay row name.
fn scheme_layer(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Intentional => "cache.intentional_s",
        SchemeKind::NoCache => "cache.nocache_s",
        SchemeKind::RandomCache => "cache.randomcache_s",
        SchemeKind::CacheData => "cache.cachedata_s",
        SchemeKind::BundleCache => "cache.bundlecache_s",
        SchemeKind::Flooding => "cache.flooding_s",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_core::time::Duration;

    #[test]
    fn pipeline_equals_run_experiment_on_a_tiny_trace() {
        let trace = SyntheticTraceBuilder::new(14)
            .duration(Duration::days(2))
            .target_contacts(5_000)
            .seed(3)
            .build();
        let cfg = ExperimentConfig {
            ncl_count: 3,
            mean_data_lifetime: Duration::hours(8),
            mean_data_size: 1 << 20,
            buffer_range: (8 << 20, 16 << 20),
            ..ExperimentConfig::default()
        };
        let instants = measured_instants(&trace);
        let mut op_ns = Vec::new();
        for kind in SchemeKind::ALL {
            let lib = run_experiment(&trace, kind, &cfg, 9);
            assert!(lib.queries_issued > 0);
            for traced in [false, true] {
                let run = run_scheme(&trace, kind, &cfg, 9, traced);
                assert_eq!(run.report, lib, "{kind} traced={traced}");
            }
            let run = run_stepped(&trace, kind, &cfg, 9, &instants, &mut op_ns);
            assert_eq!(run.report, lib, "{kind} stepped");
            // One op per measured contact instant.
            assert_eq!(op_ns.len(), instants.len());
        }
    }
}
