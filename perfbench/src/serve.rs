//! `serve-200`: the decision service answering 200 000 alternating
//! Place/Route decisions back to back over the second half of the
//! committed `ServeBenchConfig::full()` trace (200 nodes, ~150k
//! contacts, K = 5). The traced run also replays the measured decide
//! times open-loop at fixed offered rates of 2k, 5k, 10k and 20k/s.
//!
//! Why this workload: it is the only request-serving path, and it uses
//! the engine a third way — point queries against a live stream. Its
//! tail comes from the oracle snapshot rebuilds that single decisions
//! trip. The committed 20 000-decision config runs in 0.6 s, too short
//! to be steady, hence 200 000.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bench::serve::{
    replay_open_loop, request_at, run_serve_bench, run_serve_differential, serve_trace,
    ServeBenchConfig,
};
use dtn_cache::intentional::{IntentionalConfig, IntentionalScheme};
use dtn_core::graph::ContactGraph;
use dtn_core::time::Time;
use dtn_serve::{Answer, DecisionService, Request, ServeConfig};
use dtn_sim::engine::{SimConfig, Simulator};
use dtn_sim::probe::RecordingProbe;
use dtn_sim::profiler::ProfileReport;
use dtn_trace::ContactTrace;

use crate::ops::{self, OpSummary, LIMIT_NS};
use crate::report::{another, input_seed, secs, Layers, Outcome, COMMITTED_SEED};
use crate::stats::{max_rate_within, percentile, supported, Pct};

/// Decisions per pass.
const DECISIONS: u64 = 200_000;
/// Passes a run makes however short `--seconds` is.
const MIN_PASSES: u64 = 2;
/// The fixed offered rates of the open-loop sweep, decisions/s.
const OFFERED: [u64; 4] = [2_000, 5_000, 10_000, 20_000];
/// The offered rate of the open-loop p99.9 every pass reports.
const OPEN_RATE: u64 = 10_000;
/// NCL horizon of the committed serving config (6 h).
const HORIZON_S: f64 = 6.0 * 3600.0;

/// The committed full config (trace and engine at the committed seed)
/// with 200 000 decisions.
fn config() -> ServeBenchConfig {
    ServeBenchConfig {
        decisions: DECISIONS,
        ..ServeBenchConfig::full()
    }
}

/// The request stream of input seed `seed`: the library's deterministic
/// Place/Route walk (`request_at`), started `2 * offset` requests in so
/// the alternation is kept. The committed seed starts at 0, which is the
/// stream `run_serve_bench` serves.
fn request(i: u64, seed: u64, nodes: usize) -> Request {
    let offset = (seed ^ COMMITTED_SEED) >> 33;
    request_at(i + 2 * offset, nodes)
}

/// Per-decision samples of one pass, allocated once per run and reused
/// so the harness's buffers do not grow the peak RSS it reports.
struct Samples {
    /// Harness-timed `decide` calls: ingest plus answer.
    decide_ns: Vec<u64>,
    /// `Decision::service_ns`: the answer alone.
    answer_ns: Vec<u64>,
    place_ns: Vec<u64>,
    route_ns: Vec<u64>,
}

impl Samples {
    fn with_capacity(n: usize) -> Self {
        Samples {
            decide_ns: Vec::with_capacity(n),
            answer_ns: Vec::with_capacity(n),
            place_ns: Vec::with_capacity(n / 2 + 1),
            route_ns: Vec::with_capacity(n / 2 + 1),
        }
    }

    fn clear(&mut self) {
        self.decide_ns.clear();
        self.answer_ns.clear();
        self.place_ns.clear();
        self.route_ns.clear();
    }
}

/// One serving pass.
struct Pass {
    gen_s: f64,
    warmup_s: f64,
    election_s: f64,
    serve_s: f64,
    wall_s: f64,
    /// Summed decide and answer time, seconds.
    decide_s: f64,
    answer_s: f64,
    decisions: u64,
    ops: Result<OpSummary, String>,
    /// Open-loop p99.9 of the decide times at [`OPEN_RATE`].
    open_p999: Option<Pct>,
    errors: u64,
    routed: u64,
    checksum: u64,
    snapshot_changes: u64,
    /// Contacts the decisions ingested.
    ingested: u64,
    profile: Option<ProfileReport>,
    oracle: Option<(u64, u64, u64)>,
}

impl Pass {
    fn setup_s(&self) -> f64 {
        self.gen_s + self.warmup_s + self.election_s
    }

    fn ingest_s(&self) -> f64 {
        self.decide_s - self.answer_s
    }
}

fn run_pass(cfg: &ServeBenchConfig, seed: u64, traced: bool, samples: &mut Samples) -> Pass {
    let started = Instant::now();
    let t = Instant::now();
    let trace = serve_trace(cfg);
    let gen_s = secs(t);
    let mid = trace.midpoint();
    // The same service `bench::serve::serve_service` builds, with the
    // warm-up replay split from the election so each is timed alone.
    let sim = Simulator::new(
        &trace,
        IntentionalScheme::new(IntentionalConfig {
            ncl_count: cfg.ncl_count,
            ..IntentionalConfig::default()
        }),
        SimConfig {
            seed: cfg.seed,
            profile: traced,
            ..SimConfig::default()
        },
    );
    let mut svc = DecisionService::new(
        sim,
        ServeConfig {
            latency_budget_ns: cfg.latency_budget_ns,
            ..ServeConfig::default()
        },
    );
    let probe = traced.then(|| Rc::new(RefCell::new(RecordingProbe::new().without_event_stream())));
    if let Some(p) = &probe {
        svc.sim_mut().set_probe(Box::new(Rc::clone(p)));
    }
    let t = Instant::now();
    svc.sim_mut().run_until(mid);
    let warmup_s = secs(t);
    let t = Instant::now();
    svc.configure_at(mid, HORIZON_S, None);
    let election_s = secs(t);

    let end = Time(trace.duration().as_secs());
    let span = end.0.saturating_sub(mid.0).max(1);
    samples.clear();
    let mut pass = Pass {
        gen_s,
        warmup_s,
        election_s,
        serve_s: 0.0,
        wall_s: 0.0,
        decide_s: 0.0,
        answer_s: 0.0,
        decisions: cfg.decisions,
        ops: Err(String::new()),
        open_p999: None,
        errors: 0,
        routed: 0,
        checksum: 0,
        snapshot_changes: 0,
        ingested: 0,
        profile: None,
        oracle: None,
    };
    let mut last_epoch = None;
    let mut last_at = mid;
    let t = Instant::now();
    for i in 0..cfg.decisions {
        let at = Time(mid.0 + span * i / cfg.decisions);
        let req = request(i, seed, cfg.nodes);
        let call = Instant::now();
        let result = svc.decide(at, req);
        samples.decide_ns.push(call.elapsed().as_nanos() as u64);
        last_at = at;
        let Ok(d) = result else {
            pass.errors += 1;
            continue;
        };
        samples.answer_ns.push(d.service_ns);
        let has_hop = match &d.answer {
            Answer::Place(p) => p.plan.iter().any(|plan| plan.next_hop.is_some()),
            Answer::Route(r) => r.as_ref().is_some_and(|r| r.next_hop.is_some()),
        };
        pass.routed += u64::from(has_hop);
        match req {
            Request::Place { .. } => samples.place_ns.push(d.service_ns),
            Request::Route { .. } => samples.route_ns.push(d.service_ns),
        }
        if last_epoch.is_some_and(|e| e != d.oracle_epoch) {
            pass.snapshot_changes += 1;
        }
        last_epoch = Some(d.oracle_epoch);
    }
    pass.serve_s = secs(t);
    pass.wall_s = secs(started);
    pass.decide_s = samples.decide_ns.iter().sum::<u64>() as f64 * 1e-9;
    pass.answer_s = samples.answer_ns.iter().sum::<u64>() as f64 * 1e-9;
    pass.ops = OpSummary::of(&samples.decide_ns);
    pass.open_p999 = open_p999(&samples.decide_ns, OPEN_RATE);
    pass.checksum = svc.stats().checksum;
    pass.ingested = ingested(&trace, mid, last_at);
    if probe.is_some() {
        drop(svc.sim_mut().take_probe());
    }
    pass.profile = svc.sim().profile_report();
    pass.oracle = probe.map(|p| p.borrow().oracle_counters());
    pass
}

/// Contacts a pass ingests: those starting in `[mid, last)`, because
/// `decide(at)` replays every event strictly before `at`.
fn ingested(trace: &ContactTrace, mid: Time, last: Time) -> u64 {
    trace
        .contacts()
        .iter()
        .filter(|c| c.start >= mid && c.start < last)
        .count() as u64
}

/// The open-loop p99.9 of `decide_ns` replayed at `rate`, when it has
/// the support.
fn open_p999(decide_ns: &[u64], rate: u64) -> Option<Pct> {
    let r = replay_open_loop(decide_ns, rate as f64, LIMIT_NS);
    supported(r.p999_ns, decide_ns.len(), 0.999)
}

/// One line on an open-loop percentile and the generator.
fn describe_open(rate: u64, p999: Option<Pct>) -> String {
    format!(
        "open loop at {rate}/s: p99.9 {:.1} us ({} beyond of {}), generator lateness 0 ns \
         (arrivals are virtual)",
        us(p999),
        p999.map_or(0, |p| p.beyond),
        p999.map_or(0, |p| p.n)
    )
}

fn pct(samples: &[u64], q: f64) -> Option<Pct> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, q)
}

fn us(p: Option<Pct>) -> f64 {
    p.map_or(0.0, |p| p.value as f64 / 1e3)
}

/// Checks a pass against `bench::serve::run_serve_bench` on the same
/// config: same decision checksum and routed count.
fn check_against_library(cfg: &ServeBenchConfig, pass: &Pass, problems: &mut Vec<String>) {
    let lib = run_serve_bench("perfbench", cfg);
    if lib.decision_checksum != pass.checksum || lib.routed_decisions != pass.routed {
        problems.push(format!(
            "serve-200: decision stream differs from run_serve_bench \
             (checksum {} vs {}, routed {} vs {})",
            pass.checksum, lib.decision_checksum, pass.routed, lib.routed_decisions
        ));
    }
}

/// Runs the workload (see the module docs and `fig10::run`).
pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new("serve-200");
    let mut samples = Samples::with_capacity(DECISIONS as usize);
    let cfg = config();
    if !traced {
        // Every pass serves the same walk, which `seed` starts, so each
        // decision is taken at its best over the run (see
        // `Outcome::op_latency`).
        let s = input_seed(seed, 1);
        let mut best_ns = Vec::with_capacity(DECISIONS as usize);
        let mut setup = Vec::new();
        let mut first: Option<Pass> = None;
        let started = Instant::now();
        let mut passes = 0;
        // The library gate after the passes serves a tenth of the
        // decisions twice, set-up included: about a quarter of a pass.
        while another(
            started,
            passes,
            MIN_PASSES,
            first.as_ref().map_or(0.0, |f| f.wall_s / 4.0),
            seconds,
        ) {
            let i = passes;
            passes += 1;
            let p = run_pass(&cfg, s, false, &mut samples);
            out.note(format!(
                "pass {i} input_seed {s}: setup {:.4} s, serve {:.4} s, {:.0} decisions/s, \
                 checksum {}, routed {}; {}",
                p.setup_s(),
                p.serve_s,
                p.decisions as f64 / p.decide_s,
                p.checksum,
                p.routed,
                describe_open(OPEN_RATE, p.open_p999)
            ));
            if let Ok(o) = &p.ops {
                out.note(format!("pass {i} decide calls: {}", o.describe()));
            }
            ops::keep_best(&mut best_ns, &samples.decide_ns);
            let stream = |p: &Pass| (p.checksum, p.routed, p.errors);
            if first.as_ref().is_some_and(|f| stream(f) != stream(&p)) {
                out.problems.push(format!(
                    "serve-200: pass {i}'s decision stream differs from pass 0's"
                ));
            }
            setup.push(p.setup_s());
            first.get_or_insert(p);
        }
        out.sample_rss();
        let first = first.expect("a run makes at least one pass");
        // The library serves the committed walk only: gate a pass of it
        // at the committed decision count.
        let committed = ServeBenchConfig::full();
        let gate = run_pass(&committed, COMMITTED_SEED, false, &mut samples);
        check_against_library(&committed, &gate, &mut out.problems);
        out.attempted = passes * first.decisions;
        out.failed = passes * first.errors;
        out.setup_s(&setup);
        let best_decide_s = best_ns.iter().sum::<u64>() as f64 * 1e-9;
        out.set("contacts_per_s", first.ingested as f64 / best_decide_s);
        out.op_latency(&best_ns);
        // A decision is not served when it returns an error or names no
        // next hop (the caller has nowhere to send the item or query).
        // Decisions over the 1 ms limit are printed above but not
        // counted: their number follows host hiccups, not the code.
        out.failed_share(first.decisions - first.routed, first.decisions);
        return out;
    }

    // The untraced passes use their own buffers so the traced pass's
    // samples stay in `samples` for the per-layer rows.
    let mut spare = Samples::with_capacity(DECISIONS as usize);
    let before = run_pass(&cfg, COMMITTED_SEED, false, &mut spare);
    let p = run_pass(&cfg, COMMITTED_SEED, true, &mut samples);
    let after = run_pass(&cfg, COMMITTED_SEED, false, &mut spare);
    out.sample_rss();
    out.attempted = before.decisions + after.decisions + p.decisions;
    out.failed = before.errors + after.errors + p.errors;
    let stream = |p: &Pass| (p.checksum, p.routed);
    if stream(&before) != stream(&p) || stream(&after) != stream(&p) {
        out.problems
            .push("serve-200: traced run's decision stream differs from the untraced runs".into());
    }
    check_against_library(&cfg, &before, &mut out.problems);
    for problem in run_serve_differential(&cfg) {
        out.problems
            .push(format!("serve-200 differential: {problem}"));
    }

    let mut layers = Layers::new(p.wall_s, (before.wall_s + after.wall_s) / 2.0);
    layers.top("trace.gen_s", p.gen_s);
    layers.top("sim.engine.warmup_s", p.warmup_s);
    layers.top("core.ncl.election_s", p.election_s);
    layers.top("sim.engine.replay_s", p.ingest_s());
    layers.set("cache.intentional_s", p.ingest_s());
    // The answers are the rest of the decide calls; the loop's own
    // bookkeeping is left to the residual.
    layers.account(p.answer_s);
    layers.add_profile(p.profile.as_ref());
    if let Some((rebuilds, recomputes, hits)) = p.oracle {
        layers.oracle(rebuilds, recomputes, hits);
    }
    let answer_p50 = pct(&samples.answer_ns, 0.5);
    let answer_p99 = pct(&samples.answer_ns, 0.99);
    let place_p99 = pct(&samples.place_ns, 0.99);
    let route_p99 = pct(&samples.route_ns, 0.99);
    layers.set("serve.answer_p50_us", us(answer_p50));
    layers.set("serve.answer_p99_us", us(answer_p99));
    layers.set("serve.place_p99_us", us(place_p99));
    layers.set("serve.route_p99_us", us(route_p99));
    for (name, q) in [
        ("answer p50", answer_p50),
        ("answer p99", answer_p99),
        ("place p99", place_p99),
        ("route p99", route_p99),
    ] {
        layers.note(format!(
            "{name}: {} samples beyond of {}",
            q.map_or(0, |q| q.beyond),
            q.map_or(0, |q| q.n)
        ));
    }
    layers.set("serve.ingest_share", p.ingest_s() / p.decide_s);
    layers.set("serve.snapshot_changes", p.snapshot_changes as f64);
    let mut sorted = samples.answer_ns.clone();
    sorted.sort_unstable();
    let top10: u64 = sorted.iter().rev().take(10).sum();
    layers.set(
        "serve.top10_answer_share",
        top10 as f64 / sorted.iter().sum::<u64>().max(1) as f64,
    );
    layers.set("serve.open_p999_us_at_10k", us(p.open_p999));
    if let Ok(o) = &p.ops {
        layers.note(format!("decide calls: {}", o.describe()));
    }
    for rate in OFFERED {
        let r = replay_open_loop(&samples.decide_ns, rate as f64, LIMIT_NS);
        layers.note(format!(
            "achieved {:.0}/s, {} over 1 ms; {}",
            r.achieved,
            r.budget_violations,
            describe_open(rate, supported(r.p999_ns, samples.decide_ns.len(), 0.999))
        ));
    }
    layers.set(
        "serve.max_rate_at_1ms",
        max_rate_within(&samples.decide_ns, LIMIT_NS, 10_000_000) as f64,
    );
    layers.note(
        "serve.max_rate_at_1ms (highest offered rate whose open-loop p99 stays within 1 ms) is \
         informational: it rests on the pass's two rebuild stalls and moved between 13k and 19k/s \
         from run to run on a 2-core host; it can become end-to-end once those stalls are gone"
            .into(),
    );
    let trace = serve_trace(&cfg);
    let mid = trace.midpoint();
    let mut warm = Simulator::new(
        &trace,
        IntentionalScheme::new(IntentionalConfig::default()),
        SimConfig::default(),
    );
    warm.run_until(mid);
    let graph = ContactGraph::from_rate_table(warm.rate_table(), mid);
    layers.path_search_us(graph.node_count(), |src| {
        std::hint::black_box(dtn_core::path::shortest_paths(&graph, src, HORIZON_S));
    });
    out.layers = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_seed_serves_the_library_request_stream() {
        for i in 0..100 {
            assert_eq!(request(i, COMMITTED_SEED, 200), request_at(i, 200));
        }
        // Other seeds keep the Place/Route alternation.
        for i in 0..100 {
            let kind = |r: Request| matches!(r, Request::Place { .. });
            assert_eq!(kind(request(i, 7, 200)), kind(request_at(i, 200)));
        }
    }
}
