//! Fig. 3 flow benchmark: one workload per process.
//!
//! ```text
//! perfbench e2e         --suite S --objective nf|ilp --variant weighted|minimax
//!                       --netlist-seed N --seed R --seconds T
//! perfbench trace       (same flags) --spans FILE
//! perfbench fingerprint (same flags)
//! ```
//!
//! The input is the suite netlist generated at `N` with its nets
//! renumbered by `R` (see `inputs`). `e2e` runs `Flow::run` on fresh
//! copies of it, one flow at a time, for `T` seconds, and checks every
//! outcome. `trace` alternates an untraced `Flow::run` with the traced
//! replay of the same loop (see `replay`) for `T` seconds and reports
//! per-layer times and counts. `fingerprint` runs one flow and prints the
//! netlist and outcome hashes the self-test compares across processes.
//! Each mode prints one JSON object as its last stdout line;
//! `perfbench/run.py` turns it into the benchmark's result. The
//! worker-thread cap is the process's `ROTARY_THREADS`.

mod inputs;
mod replay;
mod trace;

use replay::Replayed;
use rotary_core::flow::{AssignmentObjective, Flow, FlowConfig, FlowOutcome, SkewVariant};
use rotary_core::metrics::CostSnapshot;
use rotary_core::Stage;
use rotary_netlist::{BenchmarkSuite, Circuit};
use rotary_timing::{SequentialGraph, Technology};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// Times the input is generated per run; `setup_s` is the median.
const SETUP_REPS: usize = 25;

struct Args {
    mode: String,
    suite: BenchmarkSuite,
    cfg: FlowConfig,
    netlist_seed: u64,
    seed: u64,
    seconds: f64,
    spans: Option<String>,
}

impl Args {
    fn input(&self) -> Circuit {
        inputs::generate(self.suite, self.netlist_seed, self.seed)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let mode = it.next().ok_or("missing mode")?;
    let (mut suite, mut objective, mut variant) = (None, None, None);
    let (mut netlist_seed, mut seed, mut seconds, mut spans) = (2006, 0, 10.0, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--suite" => {
                suite = Some(
                    BenchmarkSuite::from_name(&value).ok_or(format!("unknown suite {value}"))?,
                )
            }
            "--objective" => {
                objective = Some(match value.as_str() {
                    "nf" => AssignmentObjective::TappingCost,
                    "ilp" => AssignmentObjective::MaxLoadCap,
                    _ => return Err(format!("unknown objective {value}")),
                })
            }
            "--variant" => {
                variant = Some(match value.as_str() {
                    "weighted" => SkewVariant::WeightedSum,
                    "minimax" => SkewVariant::Minimax,
                    _ => return Err(format!("unknown variant {value}")),
                })
            }
            "--netlist-seed" => netlist_seed = num(&value)?,
            "--seed" => seed = num(&value)?,
            "--seconds" => seconds = num(&value)? as f64,
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let cfg = FlowConfig {
        objective: objective.ok_or("missing --objective")?,
        skew_variant: variant.ok_or("missing --variant")?,
        ..FlowConfig::default()
    };
    let suite = suite.ok_or("missing --suite")?;
    Ok(Args { mode, suite, cfg, netlist_seed, seed, seconds, spans })
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let json = match args.mode.as_str() {
        "e2e" => end_to_end(&args),
        "trace" => traced(&args),
        "fingerprint" => fingerprint_mode(&args),
        m => {
            eprintln!("perfbench: unknown mode {m}");
            std::process::exit(2);
        }
    };
    println!("{json}");
}

/// 64-bit FNV-1a, stable across processes and builds.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn add(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Hash of the outcome bits the benchmark holds fixed: schedule targets,
/// assigned rings, and per-flip-flop tap wirelengths.
fn outcome_fingerprint(out: &FlowOutcome) -> u64 {
    let mut h = Fnv::new();
    out.schedule.targets.iter().for_each(|t| h.add(t.to_bits()));
    out.assignment.rings.iter().for_each(|r| h.add(u64::from(r.0)));
    out.taps.solutions.iter().for_each(|s| h.add(s.wirelength.to_bits()));
    h.0
}

fn netlist_fingerprint(c: &Circuit) -> u64 {
    let mut h = Fnv::new();
    format!("{c:?}").bytes().for_each(|b| h.add(u64::from(b)));
    h.0
}

/// Sign-off of one flow: re-extracts timing on the final placement at the
/// schedule's own period and checks every adjacent pair at slack 0.
fn signoff(c: &Circuit, out: &FlowOutcome, cfg: &FlowConfig) -> Result<(), String> {
    let tech = Technology { clock_period: out.schedule.period, ..cfg.tech };
    let graph = SequentialGraph::extract(c, &tech);
    match graph.check_schedule(&out.schedule.targets, &tech, 0.0, 1e-5) {
        None => Ok(()),
        Some(p) => Err(format!("pair {:?} -> {:?} violated", p.from, p.to)),
    }
}

/// One timed, checked `Flow::run` on a copy of `base`.
struct Checked {
    seconds: f64,
    outcome: Option<(FlowOutcome, Circuit)>,
    error: Option<String>,
}

fn run_flow(base: &Circuit, args: &Args) -> Checked {
    let mut c = base.clone();
    let flow = Flow::new(args.cfg);
    let t = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| flow.run(&mut c, args.suite.ring_grid())));
    let seconds = t.elapsed().as_secs_f64();
    match res {
        Err(_) => Checked { seconds, outcome: None, error: Some("flow panicked".into()) },
        Ok(out) => {
            let error = signoff(&c, &out, &args.cfg).err();
            Checked { seconds, outcome: Some((out, c)), error }
        }
    }
}

/// Tallies flows and flags any whose fingerprint differs from the first.
#[derive(Default)]
struct Tally {
    attempted: usize,
    errors: Vec<String>,
    first: Option<u64>,
    stage3: BTreeSet<&'static str>,
    stage4: BTreeSet<&'static str>,
}

impl Tally {
    fn record(&mut self, run: &Checked) {
        self.attempted += 1;
        let mut error = run.error.clone();
        if let Some((out, _)) = &run.outcome {
            let fp = outcome_fingerprint(out);
            if *self.first.get_or_insert(fp) != fp && error.is_none() {
                error = Some(format!("fingerprint {fp:016x} differs from the first flow's"));
            }
            for r in out.telemetry.records() {
                match r.stage {
                    Stage::Assignment if !r.backend.is_empty() => self.stage3.insert(r.backend),
                    Stage::CostDrivenSkew if !r.backend.is_empty() => self.stage4.insert(r.backend),
                    _ => false,
                };
            }
        }
        if let Some(e) = error {
            eprintln!("perfbench: flow {} failed: {e}", self.attempted);
            self.errors.push(e);
        }
    }

    fn json_fields(&self) -> String {
        let join = |s: &BTreeSet<&str>| s.iter().copied().collect::<Vec<_>>().join(",");
        format!(
            "\"attempted\": {}, \"failed\": {}, \"threads\": {}, \"nproc\": {}, \
             \"stage3_backend\": \"{}\", \"stage4_backend\": \"{}\", \"fingerprint\": \"{:016x}\"",
            self.attempted,
            self.errors.len(),
            rotary_solver::par::default_max_threads(),
            std::thread::available_parallelism().map_or(1, |n| n.get()),
            join(&self.stage3),
            join(&self.stage4),
            self.first.unwrap_or(0),
        )
    }
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

fn json_list(v: &[f64]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x:.9}")).collect();
    format!("[{}]", items.join(", "))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Starts another sample only while the median sample so far still fits
/// in the budget, so a run ends close to `seconds` of measuring.
fn budget_allows(start: Instant, seconds: f64, samples: &[f64]) -> bool {
    samples.is_empty() || start.elapsed().as_secs_f64() + median(samples) <= seconds
}

fn end_to_end(args: &Args) -> String {
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        input = Some(std::hint::black_box(args.input()));
        setup.push(t.elapsed().as_secs_f64());
    }
    let input = input.expect("SETUP_REPS > 0");

    let start = Instant::now();
    let mut tally = Tally::default();
    let mut flow_s = Vec::new();
    let mut qor = None;
    while budget_allows(start, args.seconds, &flow_s) {
        let run = run_flow(&input, args);
        tally.record(&run);
        flow_s.push(run.seconds);
        if let (None, Some((out, _))) = (&qor, &run.outcome) {
            qor = Some(out.final_snapshot());
        }
    }
    let nan = f64::NAN;
    let qor = qor.unwrap_or(CostSnapshot {
        afd: nan,
        tapping_wl: nan,
        signal_wl: nan,
        max_ring_cap: nan,
    });
    format!(
        "{{\"flow_s\": {}, \"setup_s\": {}, \"peak_rss_mb\": {:.3}, \"tap_wl_um\": {:.6}, \
         \"total_wl_um\": {:.6}, \"max_ring_cap_pf\": {:.9}, {}}}",
        json_list(&flow_s),
        json_list(&setup),
        peak_rss_mb(),
        qor.tapping_wl,
        qor.total_wl(),
        qor.max_ring_cap,
        tally.json_fields()
    )
}

fn fingerprint_mode(args: &Args) -> String {
    let input = args.input();
    let mut tally = Tally::default();
    tally.record(&run_flow(&input, args));
    format!(
        "{{\"netlist\": \"{:016x}\", \"input\": \"{:016x}\", {}}}",
        netlist_fingerprint(&args.suite.circuit(args.netlist_seed)),
        netlist_fingerprint(&input),
        tally.json_fields()
    )
}

/// Whether the replay reproduced the flow's schedule, assignment, taps
/// and final placement bit for bit.
fn replay_matches(flow: &(FlowOutcome, Circuit), rep: &Replayed, rep_circuit: &Circuit) -> bool {
    let (out, c) = flow;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    bits(&out.schedule.targets) == bits(&rep.schedule.targets)
        && out.schedule.period.to_bits() == rep.schedule.period.to_bits()
        && out.schedule.slack.to_bits() == rep.schedule.slack.to_bits()
        && out.assignment == rep.assignment
        && out.taps.rings == rep.taps.rings
        && out.taps.solutions == rep.taps.solutions
        && c.positions == rep_circuit.positions
}

/// Layer metrics of one replay, from its spans and counts.
fn layer_metrics(tr: &Tracer, run: usize, rep: &Replayed) -> Vec<(&'static str, f64)> {
    let roll = tr.rollup(run);
    let total = |name: &str| roll.get(name).map_or(0.0, |r| r.1);
    let calls = |name: &str| roll.get(name).map_or(0, |r| r.0) as f64;
    let replay_s = total("flow.replay");
    let k = &rep.counts;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        (
            "cost_skew.s",
            total("cost_skew.cold") + total("cost_skew.rebind") + total("cost_skew.rewrap"),
        ),
        ("cost_skew.cold_s", total("cost_skew.cold")),
        ("cost_skew.rebind_s", total("cost_skew.rebind")),
        ("cost_skew.rewrap_s", total("cost_skew.rewrap")),
        ("cost_skew.cold_solves", calls("cost_skew.cold")),
        ("cost_skew.rebind_solves", calls("cost_skew.rebind")),
        ("cost_skew.rewrap_solves", calls("cost_skew.rewrap")),
        ("cost_skew.rounds", k.rounds as f64),
        ("cost_skew.paths", k.paths as f64),
        ("cost_skew.paths_per_round", ratio(k.paths, k.rounds)),
        ("cost_skew.max_plateau", k.max_plateau as f64),
        ("cost_skew.delta_arcs", k.delta_arcs as f64),
        ("cost_skew.parametric_solves", k.parametric_solves as f64),
        ("assign.s", total("assign.solve")),
        ("assign.solver_iters", k.assign_iters as f64),
        ("assign.warm_ratio", ratio(k.assign_warm, k.assign_solves)),
        ("skew.period_s", total("skew.period")),
        ("skew.period_solves", k.period_solves as f64),
        ("skew.max_slack_s", total("skew.max_slack")),
        ("skew.max_slack_solves", k.max_slack_solves as f64),
        ("skew.max_slack_reused", k.max_slack_reused as f64),
        ("timing.extract_s", total("timing.extract")),
        ("timing.pairs", k.timing_pairs as f64),
        ("place.initial_s", total("place.initial")),
        ("place.incremental_s", total("place.incremental")),
        ("place.displacement_um", k.displacement_um),
        ("tapping.candidates_s", total("tapping.candidates")),
        ("tapping.cache_hit_ratio", ratio(k.candidate_hits, k.candidate_lookups)),
        ("tapping.solve_s", total("tapping.solve")),
        ("flow.iterations", k.iterations as f64),
        ("flow.driver_s", replay_s - tr.leaf_seconds(run)),
        ("flow.replay_s", replay_s),
    ]
}

/// Human-readable tables on stderr: per-span self time, and the replay's
/// stage sums next to `Flow::run`'s own `StageRecord` seconds.
fn print_tables(tr: &Tracer, run: usize, flow: &FlowOutcome) {
    let roll = tr.rollup(run);
    let replay_s = roll.get("flow.replay").map_or(0.0, |r| r.1);
    let mut rows: Vec<_> = roll.iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    let mut t = format!(
        "{:<26} {:>6} {:>10} {:>10} {:>7}\n",
        "span", "calls", "total_s", "self_s", "self%"
    );
    for (name, (calls, total, own)) in rows {
        let _ = writeln!(
            t,
            "{name:<26} {calls:>6} {total:>10.4} {own:>10.4} {:>6.1}%",
            100.0 * own / replay_s
        );
    }
    let _ = writeln!(t, "\n{:<26} {:>10} {:>10}", "stage", "replay_s", "flow_s");
    for (stage, seconds, _, _) in flow.telemetry.totals_by_stage() {
        let replay = roll.get(stage.name()).map_or(0.0, |r| r.1);
        let _ = writeln!(t, "{:<26} {replay:>10.4} {seconds:>10.4}", stage.name());
    }
    eprint!("{t}");
}

fn traced(args: &Args) -> String {
    let circuit = args.input();
    let start = Instant::now();
    let mut tally = Tally::default();
    let mut tr = Tracer::new();
    let mut flow_s = Vec::new();
    let mut per_rep: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let mut all_match = true;
    let mut last_flow = None;
    // One rep is an untraced flow plus a traced replay, so budget on the
    // pair's time.
    let mut pair_s = Vec::new();
    while budget_allows(start, args.seconds, &pair_s) {
        let t = Instant::now();
        let run = run_flow(&circuit, args);
        tally.record(&run);
        flow_s.push(run.seconds);
        let Some(flow) = run.outcome else {
            all_match = false;
            break;
        };
        let run_id = per_rep.len();
        tr.set_run(run_id);
        let mut c = circuit.clone();
        let rep = replay::replay(&mut c, args.suite.ring_grid(), &args.cfg, &mut tr);
        all_match &= replay_matches(&flow, &rep, &c);
        per_rep.push(layer_metrics(&tr, run_id, &rep));
        pair_s.push(t.elapsed().as_secs_f64());
        last_flow = Some(flow.0);
    }
    if let Some(flow) = &last_flow {
        print_tables(&tr, per_rep.len() - 1, flow);
    }
    if let Some(path) = &args.spans {
        if let Err(e) = std::fs::write(path, tr.to_json()) {
            eprintln!("perfbench: cannot write {path}: {e}");
        }
    }
    let mut metrics = String::new();
    if let Some(first) = per_rep.first() {
        for (i, (name, _)) in first.iter().enumerate() {
            let vals: Vec<f64> = per_rep.iter().map(|r| r[i].1).collect();
            let _ = write!(metrics, "\"{name}\": {:.9}, ", median(&vals));
        }
    }
    let replay_s: Vec<f64> = per_rep
        .iter()
        .filter_map(|r| r.iter().find(|m| m.0 == "flow.replay_s"))
        .map(|m| m.1)
        .collect();
    format!(
        "{{\"metrics\": {{{metrics}\"trace.overhead_ratio\": {:.9}, \"trace.replay_match\": {}}}, \
         \"flow_s\": {}, {}}}",
        median(&replay_s) / median(&flow_s),
        u8::from(all_match && !per_rep.is_empty()),
        json_list(&flow_s),
        tally.json_fields()
    )
}
