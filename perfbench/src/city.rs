//! `city-10k`: `ScaleConfig::city(10_000)` on the streaming path —
//! contacts generated on the fly into a `StreamSource`, community-scoped
//! NCL election, a sparse rate table and the bounded-reach path oracle.
//!
//! Why this workload: it is the only one where NCL election is a
//! visible share of wall time, and each contact in the measured half
//! costs far more than in warm-up. It exercises the oracle a second way
//! (bounded reach instead of full tables) while the knapsack stays
//! nearly idle, so a knapsack change should leave it flat.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use bench::scale::{run_scale, ScaleConfig};
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_cache::{CachingScheme, NetworkSetup};
use dtn_core::graph::CsrGraph;
use dtn_core::ids::{DataId, NodeId};
use dtn_core::ncl::SelectionStrategy;
use dtn_core::path::{bounded_shortest_paths, ReachScratch};
use dtn_core::time::{Duration, Time};
use dtn_sim::engine::{SimConfig, Simulator, StreamSource, WorkloadEvent};
use dtn_sim::message::DataItem;
use dtn_sim::probe::RecordingProbe;
use dtn_sim::profiler::ProfileReport;
use dtn_trace::synthetic::{ContactStream, SyntheticTraceBuilder};
use dtn_trace::Contact;

use crate::ops::{self, step_to_end};
use crate::report::{another, input_seed, secs, Layers, Outcome, COMMITTED_SEED};

/// Population size.
const NODES: usize = 10_000;
/// Passes a run makes however short `--seconds` is: two unstepped and
/// two stepped.
const MIN_PASSES: u64 = 4;

/// The city with `seed` driving the buffers and the protocol draws.
/// `bench::scale` seeds the trace and the workload with the same value;
/// this harness keeps the committed trace and workload for every seed,
/// because the trace alone swings election from 1 s to 17 s between
/// seeds and the 200-query workload swings the replay by a fifth. At the
/// committed seed the two agree, which is what the library gate runs.
fn config(seed: u64) -> ScaleConfig {
    ScaleConfig {
        seed,
        ..ScaleConfig::city(NODES)
    }
}

/// The trace builder `ScaleConfig` uses internally, on the committed
/// seed.
fn builder(cfg: &ScaleConfig) -> SyntheticTraceBuilder {
    SyntheticTraceBuilder::new(cfg.nodes)
        .duration(cfg.duration)
        .target_contacts(cfg.target_contacts)
        .communities(cfg.communities)
        .community_boost(cfg.community_boost)
        .edge_density((cfg.mean_degree / (cfg.nodes - 1) as f64).min(1.0))
        .seed(COMMITTED_SEED)
}

/// The measured-half workload `bench::scale` injects (item generations
/// over the first half of the window, squared-uniform query skew) on the
/// committed seed, rebuilt here because the library keeps it private;
/// the library gate proves the two equal.
fn workload(cfg: &ScaleConfig, start: Time, end: Time) -> Vec<WorkloadEvent> {
    let mut rng = StdRng::seed_from_u64(COMMITTED_SEED ^ 0x0005_CA1E_D017);
    let span = end.0 - start.0;
    let nodes = cfg.nodes as u32;
    let mut item_times = Vec::with_capacity(cfg.data_items);
    let mut events = Vec::with_capacity(cfg.data_items + cfg.queries);
    for i in 0..cfg.data_items {
        let at = Time(start.0 + rng.gen_range(0..span / 2));
        let item = DataItem::new(
            DataId(i as u64),
            NodeId(rng.gen_range(0..nodes)),
            cfg.data_size.max(1),
            at,
            cfg.data_lifetime,
        );
        item_times.push(at);
        events.push(WorkloadEvent::GenerateData { item });
    }
    for _ in 0..cfg.queries {
        let u: f64 = rng.gen_range(0.0..1.0);
        let j = (((u * u) * cfg.data_items as f64) as usize).min(cfg.data_items - 1);
        let created = item_times[j];
        if created.0 + 1 >= end.0 {
            continue;
        }
        events.push(WorkloadEvent::IssueQuery {
            at: Time(rng.gen_range(created.0 + 1..end.0)),
            requester: NodeId(rng.gen_range(0..nodes)),
            data: DataId(j as u64),
            constraint: Duration((cfg.data_lifetime.as_secs() / 2).max(1)),
        });
    }
    events.sort_by_key(|e| (e.at(), matches!(e, WorkloadEvent::IssueQuery { .. })));
    events
}

/// The timing adapter around the contact stream: it hands contacts to
/// the engine's `StreamSource`, counts them, times the generator when
/// traced, and, in a stepped run, looks ahead to the next contact
/// instant so the measured phase can be stepped one instant at a time.
struct Tap {
    stream: ContactStream,
    ahead: VecDeque<Contact>,
    /// Start of the contact most recently handed to the engine.
    last_start: Option<Time>,
    contacts: u64,
    timed: bool,
    gen_ns: u64,
}

impl Tap {
    fn pull(&mut self) -> Option<Contact> {
        let t = self.timed.then(Instant::now);
        let c = self.stream.next();
        if let Some(t) = t {
            self.gen_ns += t.elapsed().as_nanos() as u64;
        }
        c
    }

    fn next_contact(&mut self) -> Option<Contact> {
        let c = self.ahead.pop_front().or_else(|| self.pull())?;
        self.last_start = Some(c.start);
        self.contacts += 1;
        Some(c)
    }

    /// The first contact instant after the one the engine holds.
    fn next_instant(&mut self) -> Option<Time> {
        let held = self.last_start?;
        if let Some(c) = self.ahead.iter().find(|c| c.start > held) {
            return Some(c.start);
        }
        loop {
            let c = self.pull()?;
            self.ahead.push_back(c);
            if c.start > held {
                return Some(c.start);
            }
        }
    }
}

/// One city run.
struct Run {
    plan_s: f64,
    warmup_s: f64,
    election_s: f64,
    workload_s: f64,
    replay_s: f64,
    wall_s: f64,
    /// Stream generation time inside warm-up and replay (traced only).
    gen_warmup_s: f64,
    gen_replay_s: f64,
    /// Contacts handed to the engine by the end of warm-up (the last
    /// one is held, not yet dispatched) and in total.
    warmup_contacts: u64,
    contacts: u64,
    queries_issued: u64,
    queries_satisfied: u64,
    success_bits: u64,
    centrals: Vec<NodeId>,
    profile: Option<ProfileReport>,
    oracle: Option<(u64, u64, u64)>,
}

impl Run {
    fn setup_s(&self) -> f64 {
        self.plan_s + self.warmup_s + self.election_s
    }

    fn measured_contacts_per_s(&self) -> f64 {
        (self.contacts + 1 - self.warmup_contacts) as f64 / self.replay_s
    }

    /// The deterministic outputs the gate compares: contacts, queries
    /// and centrals (plus the success ratio's bits).
    fn outputs(&self) -> (u64, u64, u64, &[NodeId]) {
        (
            self.contacts,
            self.queries_issued,
            self.success_bits,
            &self.centrals,
        )
    }
}

fn horizon(cfg: &ScaleConfig) -> f64 {
    cfg.data_lifetime.as_secs_f64().max(3600.0)
}

/// One city run phase by phase, as `run_scale` does. The measured phase
/// is one `run_to_end`, or, given an operation buffer, one timed
/// `run_until` per contact instant.
fn run_city(cfg: &ScaleConfig, traced: bool, op_ns: Option<&mut Vec<u64>>) -> Run {
    let started = Instant::now();
    // Planning the stream (calibration and the kept-pair set) is the
    // trace generation that happens before the first contact is pulled.
    let stream = builder(cfg).stream();
    let plan_s = secs(started);
    let (nodes, duration) = (stream.node_count(), stream.duration());
    let tap = Rc::new(RefCell::new(Tap {
        stream,
        ahead: VecDeque::new(),
        last_start: None,
        contacts: 0,
        timed: traced,
        gen_ns: 0,
    }));
    let feed = Rc::clone(&tap);
    let source = StreamSource::new(
        std::iter::from_fn(move || feed.borrow_mut().next_contact()),
        nodes,
        duration,
    );
    let scheme: Box<dyn CachingScheme> = Box::new(IntentionalScheme::new(IntentionalConfig {
        ncl_count: cfg.ncl_count,
        ncl_selection: SelectionStrategy::CommunityPathMetric {
            max_hops: Some(cfg.max_hops),
        },
        bounded_reach: Some((cfg.max_hops, cfg.reach_cache_slots)),
        ..IntentionalConfig::default()
    }));
    let mut sim = Simulator::from_source(
        source,
        scheme,
        SimConfig {
            buffer_range: cfg.buffer_range,
            audit: cfg.audit,
            seed: cfg.seed,
            threads: cfg.threads,
            profile: traced,
            heartbeat_every_contacts: cfg.heartbeat_every_contacts,
            ..SimConfig::default()
        },
    );
    let probe = traced.then(|| Rc::new(RefCell::new(RecordingProbe::new().without_event_stream())));
    if let Some(p) = &probe {
        sim.set_probe(Box::new(Rc::clone(p)));
    }

    let mid = Time(cfg.duration.as_secs() / 2);
    let t = Instant::now();
    sim.run_until(mid);
    let warmup_s = secs(t);
    let (gen_warmup_ns, warmup_contacts) = {
        let tap = tap.borrow();
        (tap.gen_ns, tap.contacts)
    };

    let t = Instant::now();
    let capacities: Vec<u64> = (0..cfg.nodes as u32)
        .map(|n| sim.buffer_capacity(NodeId(n)))
        .collect();
    let rate_table = sim.rate_table().clone();
    sim.scheme_mut().configure(&NetworkSetup {
        rate_table: &rate_table,
        now: mid,
        capacities,
        horizon: horizon(cfg),
        path_refresh: Some(cfg.duration),
    });
    let election_s = secs(t);
    drop(rate_table);

    let t = Instant::now();
    sim.add_workload(workload(cfg, mid, Time(cfg.duration.as_secs())));
    let workload_s = secs(t);

    let t = Instant::now();
    match op_ns {
        Some(op_ns) => {
            op_ns.clear();
            step_to_end(&mut sim, || tap.borrow_mut().next_instant(), op_ns);
        }
        None => {
            sim.run_to_end();
        }
    }
    let replay_s = secs(t);
    let wall_s = secs(started);

    if probe.is_some() {
        drop(sim.take_probe());
    }
    let metrics = sim.metrics();
    let tap = tap.borrow();
    Run {
        plan_s,
        warmup_s,
        election_s,
        workload_s,
        replay_s,
        wall_s,
        gen_warmup_s: gen_warmup_ns as f64 * 1e-9,
        gen_replay_s: (tap.gen_ns - gen_warmup_ns) as f64 * 1e-9,
        warmup_contacts,
        contacts: tap.contacts,
        queries_issued: metrics.queries_issued,
        queries_satisfied: metrics.queries_satisfied,
        success_bits: metrics.success_ratio().to_bits(),
        centrals: sim.scheme().central_nodes().to_vec(),
        profile: sim.profile_report(),
        oracle: probe.map(|p| p.borrow().oracle_counters()),
    }
}

/// One bounded search (the city oracle's kind) on the warm-up graph of
/// `cfg`'s trace, median over 32 sources, in microseconds.
fn search_us(cfg: &ScaleConfig, layers: &mut Layers) {
    let stream = builder(cfg).stream();
    let (nodes, duration) = (stream.node_count(), stream.duration());
    let mut sim = Simulator::from_source(
        StreamSource::new(stream, nodes, duration),
        Box::new(IntentionalScheme::new(IntentionalConfig::default())) as Box<dyn CachingScheme>,
        SimConfig {
            buffer_range: cfg.buffer_range,
            seed: cfg.seed,
            ..SimConfig::default()
        },
    );
    let mid = Time(cfg.duration.as_secs() / 2);
    sim.run_until(mid);
    let graph = CsrGraph::from_rate_table(sim.rate_table(), mid);
    let mut scratch = ReachScratch::new();
    let h = horizon(cfg);
    layers.path_search_us(cfg.nodes, |src| {
        std::hint::black_box(bounded_shortest_paths(
            &graph,
            src,
            h,
            cfg.max_hops,
            &mut scratch,
        ));
    });
}

/// What an untraced run checks without a second library run (which
/// would cost as much as a whole iteration; the traced run makes it):
/// every query the workload injects is issued, and K centrals stand.
fn check_invariants(cfg: &ScaleConfig, run: &Run, problems: &mut Vec<String>) {
    let mid = Time(cfg.duration.as_secs() / 2);
    let injected = workload(cfg, mid, Time(cfg.duration.as_secs()))
        .iter()
        .filter(|e| matches!(e, WorkloadEvent::IssueQuery { .. }))
        .count() as u64;
    if run.queries_issued != injected || run.centrals.len() != cfg.ncl_count {
        problems.push(format!(
            "city-10k: {} of {injected} queries issued, {} of {} centrals elected",
            run.queries_issued,
            run.centrals.len(),
            cfg.ncl_count
        ));
    }
}

/// Checks a run against `bench::scale::run_scale` on the same config.
fn check_against_library(cfg: &ScaleConfig, run: &Run, problems: &mut Vec<String>) {
    let lib = run_scale(cfg);
    let ours = (
        run.contacts,
        run.queries_issued,
        run.success_bits,
        run.centrals.len(),
    );
    let theirs = (
        lib.contacts,
        lib.queries_issued,
        lib.success_ratio.to_bits(),
        lib.central_nodes,
    );
    if ours != theirs {
        problems.push(format!(
            "city-10k: pipeline differs from run_scale \
             (contacts, queries, success bits, centrals) {ours:?} vs {theirs:?}"
        ));
    }
}

/// Runs the workload. Untraced: as many passes as fit in `seconds` (at
/// least [`MIN_PASSES`]), all on the one input `seed` derives,
/// alternately unstepped (checked by [`check_invariants`]) and stepped,
/// every pass's outputs checked against the first's. Traced: the committed input untraced, traced and untraced
/// again, the gate against `run_scale`, and the per-layer table.
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new("city-10k");
    let cfg0 = config(input_seed(seed, 0));
    if !traced {
        // Passes alternate: unstepped for the throughput, stepped for
        // the operation latency. Every pass repeats the same work, so
        // each timing but set-up is taken at its best over the run: the
        // replay, and each operation (see `Outcome::op_latency`).
        let s = input_seed(seed, 1);
        let cfg = config(s);
        let mut pass_ns = Vec::with_capacity(100_000);
        let mut best_ns = Vec::with_capacity(100_000);
        let mut rate = Vec::new();
        let mut setup = Vec::new();
        let mut first: Option<Run> = None;
        let started = Instant::now();
        let mut passes = 0;
        while another(started, passes, MIN_PASSES, 0.0, seconds) {
            let i = passes;
            passes += 1;
            let stepped = i % 2 == 1;
            let r = run_city(&cfg, false, stepped.then_some(&mut pass_ns));
            let overhead = first
                .as_ref()
                .filter(|_| stepped)
                .map_or(String::new(), |f| {
                    format!(", stepping overhead x{:.4}", r.replay_s / f.replay_s)
                });
            out.note(format!(
                "pass {i} input_seed {s}, {}: setup {:.4} s (election {:.4} s), replay {:.4} s, \
                 contacts {}{overhead}",
                if stepped { "stepped" } else { "run_to_end" },
                r.setup_s(),
                r.election_s,
                r.replay_s,
                r.contacts,
            ));
            if stepped {
                ops::keep_best(&mut best_ns, &pass_ns);
            } else {
                check_invariants(&cfg, &r, &mut out.problems);
                rate.push(r.measured_contacts_per_s());
            }
            if first.as_ref().is_some_and(|f| f.outputs() != r.outputs()) {
                out.problems.push(format!(
                    "city-10k: pass {i}'s outputs differ from pass 0's (run_to_end)"
                ));
            }
            setup.push(r.setup_s());
            first.get_or_insert(r);
        }
        out.sample_rss();
        out.attempted = passes;
        let first = first.expect("a run makes at least one pass");
        out.setup_s(&setup);
        out.contacts_per_s(&rate);
        out.failed_share(
            first.queries_issued - first.queries_satisfied,
            first.queries_issued,
        );
        out.op_latency(&best_ns);
        return out;
    }

    let before = run_city(&cfg0, false, None);
    let r = run_city(&cfg0, true, None);
    let after = run_city(&cfg0, false, None);
    out.sample_rss();
    out.attempted = 3;
    if before.outputs() != r.outputs() || after.outputs() != r.outputs() {
        out.problems
            .push("city-10k: traced run's outputs differ from the untraced runs".into());
    }
    check_against_library(&cfg0, &before, &mut out.problems);

    let mut layers = Layers::new(r.wall_s, (before.wall_s + after.wall_s) / 2.0);
    layers.top("trace.gen_s", r.plan_s + r.gen_warmup_s + r.gen_replay_s);
    layers.top("sim.engine.warmup_s", r.warmup_s - r.gen_warmup_s);
    layers.top("core.ncl.election_s", r.election_s);
    layers.top("workload.gen_s", r.workload_s);
    layers.top("sim.engine.replay_s", r.replay_s - r.gen_replay_s);
    layers.set("cache.intentional_s", r.replay_s - r.gen_replay_s);
    layers.add_profile(r.profile.as_ref());
    if let Some((rebuilds, recomputes, hits)) = r.oracle {
        layers.oracle(rebuilds, recomputes, hits);
    }
    layers.note(format!(
        "trace generation is {:.4} s of stream planning plus the engine's stream pulls: {:.4} s of \
         warm-up and {:.4} s of replay, reported under trace.gen_s and subtracted from the engine rows",
        r.plan_s, r.gen_warmup_s, r.gen_replay_s
    ));
    search_us(&cfg0, &mut layers);
    out.layers = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_pipeline_equals_run_scale_on_a_small_city() {
        let cfg = ScaleConfig {
            data_items: 48,
            queries: 96,
            heartbeat_every_contacts: None,
            ..ScaleConfig::city(400)
        };
        let mut op_ns = Vec::new();
        for (traced, stepped) in [(false, false), (true, false), (false, true)] {
            let run = run_city(&cfg, traced, stepped.then_some(&mut op_ns));
            let mut problems = Vec::new();
            check_against_library(&cfg, &run, &mut problems);
            check_invariants(&cfg, &run, &mut problems);
            assert!(
                problems.is_empty(),
                "traced={traced} stepped={stepped}: {problems:?}"
            );
            assert!(run.queries_issued > 0 && !run.centrals.is_empty());
            if stepped {
                // One op per measured contact instant, at most one per contact.
                let measured = run.contacts + 2 - run.warmup_contacts;
                assert!(!op_ns.is_empty() && op_ns.len() as u64 <= measured);
            }
        }
    }
}
