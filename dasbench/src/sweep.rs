//! The three sweep workloads: one problem, many scheduler seeds, every
//! trial planned, executed and verified through the public pipeline.

use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{beyond, median, quantile};
use das_cluster::share::center_chunks;
use das_cluster::{share_layer_centralized, CarveConfig, Clustering, ShareConfig};
use das_congest::util::seed_mix;
use das_core::{
    execute_plan, execute_plan_networked, run_worker, verify, DasProblem, NetConfig, NetReport,
    PrivateScheduler, ScheduleOutcome, SchedulePlan, Scheduler, UniformScheduler,
};
use das_graph::{generators, Graph};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Scheduler seeds of one pass. Every pass replays the same seeds, so
/// count metrics (means over one pass) are exact for a workload seed and
/// pass wall times are comparable samples of identical work.
const CYCLE: usize = 32;

/// The timed sample holds at least this many repetitions of each
/// scheduler seed (see [`timed_sample`]): 4 × 32 = 128 trials, so the p90
/// has at least ten samples beyond it. A window runs at least this many
/// passes.
const TIMED_PASSES: usize = 4;

/// Set-ups before the window; one more follows every pass, so the set-ups
/// sample the whole run, not just its first moments.
const SETUP_REPS: usize = 15;

/// `setup_s` is the median of this many fastest set-ups. The container
/// this benchmark was tuned on switched for seconds to minutes between a
/// fast state and one about 1.7× slower, so the median of all set-ups
/// followed the share of the run spent slow; even a mostly slow run has a
/// few set-ups in the fast state.
const SETUP_FASTEST: usize = 5;

/// Worker threads of the networked workload.
const WORKERS: usize = 2;

/// How the sweep executes its plans.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Exec {
    /// `execute_plan`, in this thread.
    Fused,
    /// `execute_plan_networked` plus [`WORKERS`] `run_worker` threads over
    /// loopback TCP.
    Networked,
}

enum Sched {
    Private(PrivateScheduler),
    Uniform(UniformScheduler),
}

impl Sched {
    fn as_dyn(&self) -> &dyn Scheduler {
        match self {
            Sched::Private(s) => s,
            Sched::Uniform(s) => s,
        }
    }
}

/// One sweep workload.
pub struct Sweep {
    graph: fn() -> Graph,
    problem: for<'g> fn(&'g Graph, u64) -> DasProblem<'g>,
    sched: Sched,
    exec: Exec,
}

fn path100() -> Graph {
    generators::path(100)
}

fn grid16() -> Graph {
    generators::grid(16, 16)
}

fn grid12() -> Graph {
    generators::grid(12, 12)
}

fn relays_e7(g: &Graph, tape_seed: u64) -> DasProblem<'_> {
    das_bench::workloads::segment_relays(g, 64, 14, 1, tape_seed)
}

fn floods_d8(g: &Graph, tape_seed: u64) -> DasProblem<'_> {
    das_bench::workloads::flood_bundle(g, 64, 8, tape_seed)
}

fn floods_d6(g: &Graph, tape_seed: u64) -> DasProblem<'_> {
    das_bench::workloads::flood_bundle(g, 64, 6, tape_seed)
}

/// `PrivateScheduler::default()` on `path(100)` with 64 segment relays
/// (the E7 midpoint): planning dominates a trial.
pub fn private_sweep() -> Sweep {
    Sweep {
        graph: path100,
        problem: relays_e7,
        sched: Sched::Private(PrivateScheduler::default()),
        exec: Exec::Fused,
    }
}

/// `UniformScheduler` on `grid(16,16)` with 64 depth-8 floods: execution
/// dominates a trial.
pub fn uniform_sweep() -> Sweep {
    Sweep {
        graph: grid16,
        problem: floods_d8,
        sched: Sched::Uniform(UniformScheduler::default()),
        exec: Exec::Fused,
    }
}

/// The uniform pipeline on `grid(12,12)` with 64 depth-6 floods, executed
/// by the networked coordinator and two in-process workers.
pub fn networked() -> Sweep {
    Sweep {
        graph: grid12,
        problem: floods_d6,
        sched: Sched::Uniform(UniformScheduler::default()),
        exec: Exec::Networked,
    }
}

/// The exact counts of one trial: a pure function of `(problem,
/// sched_seed)`, so every pass must reproduce them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Counts {
    rounds: u64,
    precompute: u64,
    predicted: u64,
    delay_entries: u64,
    delivered: u64,
    late: u64,
    max_arc_queue: u64,
    big_rounds: u64,
    frames: u64,
    bytes: u64,
    cross_msgs: u64,
}

/// One verified trial.
struct Trial {
    ms: f64,
    plan_ms: f64,
    exec_ms: f64,
    verify_ms: f64,
    mismatches: usize,
    counts: Counts,
    net: Option<NetReport>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `execute_plan_networked` against [`WORKERS`] `run_worker` threads
/// on a fresh loopback listener, joining every worker.
fn execute_networked(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
) -> Result<(ScheduleOutcome, NetReport), String> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener
        .local_addr()
        .map_err(|e| e.to_string())?
        .to_string();
    let net = NetConfig::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..WORKERS)
            .map(|_| scope.spawn(|| run_worker(problem, &addr, &net)))
            .collect();
        let result = execute_plan_networked(problem, plan, WORKERS, listener, &net);
        let mut worker_error = None;
        for w in workers {
            match w.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => worker_error = Some(format!("worker: {e}")),
                Err(_) => worker_error = Some("worker thread panicked".to_string()),
            }
        }
        match (result, worker_error) {
            (Err(e), _) => Err(e.to_string()),
            (Ok(_), Some(e)) => Err(e),
            (Ok(r), None) => Ok(r),
        }
    })
}

/// One trial: plan, execute, verify. Returns the plan and outcome too,
/// for the traced run's extra probes.
fn trial(
    problem: &DasProblem<'_>,
    sched: &dyn Scheduler,
    exec: Exec,
    sched_seed: u64,
) -> Result<(Trial, SchedulePlan, ScheduleOutcome), String> {
    let t0 = Instant::now();
    let plan = sched
        .plan(problem, sched_seed)
        .map_err(|e| format!("plan: {e}"))?;
    let t1 = Instant::now();
    let (outcome, net) = match exec {
        Exec::Fused => (
            execute_plan(problem, &plan).map_err(|e| format!("execute: {e}"))?,
            None,
        ),
        Exec::Networked => {
            let (o, r) = execute_networked(problem, &plan)?;
            (o, Some(r))
        }
    };
    let t2 = Instant::now();
    let report = verify::against_references(problem, &outcome).map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let n = problem.graph().node_count() as u64;
    let s = &outcome.stats;
    let counts = Counts {
        rounds: s.engine_rounds,
        precompute: outcome.precompute_rounds,
        predicted: plan.predicted_rounds,
        delay_entries: plan.units.len() as u64 * n,
        delivered: s.delivered,
        late: s.late_messages,
        max_arc_queue: s.max_arc_queue as u64,
        big_rounds: s.big_rounds,
        frames: net.as_ref().map_or(0, |r| {
            r.traffic
                .iter()
                .map(|t| t.frames_sent + t.frames_received)
                .sum()
        }),
        bytes: net.as_ref().map_or(0, |r| {
            r.traffic
                .iter()
                .map(|t| t.bytes_sent + t.bytes_received)
                .sum()
        }),
        cross_msgs: net.as_ref().map_or(0, |r| r.shard.cross_shard_messages),
    };
    let t = Trial {
        ms: ms(t3 - t0),
        plan_ms: ms(t1 - t0),
        exec_ms: ms(t2 - t1),
        verify_ms: ms(t3 - t2),
        mismatches: report.total_mismatches(),
        counts,
        net,
    };
    Ok((t, plan, outcome))
}

/// Wall times of the private planner's stages, re-run outside the trial
/// through the same public calls `PrivateScheduler::plan` makes.
struct Stages {
    carve_ms: f64,
    share_ms: f64,
    assemble_ms: f64,
}

fn private_stages(
    problem: &DasProblem<'_>,
    sched: &PrivateScheduler,
    plan: &SchedulePlan,
    out: &mut Outcome,
) -> Result<Stages, String> {
    let g = problem.graph();
    let dilation = problem.parameters().map_err(|e| e.to_string())?.dilation;

    let t = Instant::now();
    let carve_cfg = CarveConfig::for_dilation(g, dilation);
    let clustering = Clustering::carve_centralized(g, &carve_cfg, sched.seed);
    let carve = t.elapsed();

    let t = Instant::now();
    let share_cfg = ShareConfig::for_graph(g, carve_cfg.horizon);
    let chunks = center_chunks(
        g.node_count(),
        share_cfg.chunks,
        seed_mix(plan.sched_seed, 0xC0FFEE),
    );
    let seeds: Vec<Vec<Vec<u64>>> = clustering
        .layers()
        .iter()
        .map(|layer| share_layer_centralized(layer, &chunks))
        .collect();
    let share = t.elapsed();
    black_box(seeds);

    // the probe only means something while it mirrors the planner: the
    // charged pre-computation must come out the same
    let charged = clustering.precompute_rounds()
        + share_cfg.rounds_needed() * clustering.layers().len() as u64;
    if charged != plan.precompute_rounds {
        out.problem(format!(
            "stage probe charges {charged} pre-computation rounds, the plan {}",
            plan.precompute_rounds
        ));
    }

    let units = plan.units.clone();
    let t = Instant::now();
    let again = SchedulePlan::assemble(
        &plan.scheduler,
        plan.sched_seed,
        plan.phase_len,
        plan.precompute_rounds,
        problem,
        units,
    );
    let assemble = t.elapsed();
    if again != *plan {
        out.problem("SchedulePlan::assemble on the plan's own units changed the plan".into());
    }
    Ok(Stages {
        carve_ms: ms(carve),
        share_ms: ms(share),
        assemble_ms: ms(assemble),
    })
}

/// One set-up: graph, problem, reference runs. Returns its wall seconds
/// and the milliseconds of `DasProblem::references`.
fn set_up(sweep: &Sweep, seed: u64) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let g = (sweep.graph)();
    let p = (sweep.problem)(&g, seed);
    let r = Instant::now();
    p.references().map_err(|e| format!("reference runs: {e}"))?;
    let reference_ms = ms(r.elapsed());
    Ok((t.elapsed().as_secs_f64(), reference_ms))
}

/// Sums of the traced run's per-trial layer readings.
#[derive(Default)]
struct Layers {
    trials: f64,
    trial_ms: f64,
    plan_ms: f64,
    carve_ms: f64,
    share_ms: f64,
    assemble_ms: f64,
    exec_ms: f64,
    exec_rounds: f64,
    net_exec_ms: f64,
    verify_ms: f64,
    step_ms: f64,
    drain_ms: f64,
    wait_ms: f64,
}

/// Per-shard means of a sharded execution's step, drain, and the rest of
/// its wall time (barrier and exchange waits).
pub fn shard_split(report: &das_core::ShardReport, wall_ms: f64) -> (f64, f64, f64) {
    let shards = report.per_shard.len().max(1) as f64;
    let step = report
        .per_shard
        .iter()
        .map(|s| s.step_nanos as f64 / 1e6)
        .sum::<f64>()
        / shards;
    let drain = report
        .per_shard
        .iter()
        .map(|s| s.drain_nanos as f64 / 1e6)
        .sum::<f64>()
        / shards;
    (step, drain, (wall_ms - step - drain).max(0.0))
}

/// One pass over the [`CYCLE`] scheduler seeds: its trial latencies (ms)
/// and their sum, the pass's wall time.
#[derive(Clone, Default)]
struct Pass {
    trial_ms: Vec<f64>,
    wall_ms: f64,
}

/// The timed sample of a window: throughput and latency quantiles over
/// its [`timed_sample`].
struct Sample {
    per_s: f64,
    p50: f64,
    p90: f64,
    trials: usize,
    of_passes: usize,
}

/// The trial latencies of the timed sample of `passes`. Every pass repeats
/// identical work; the median pass and all trials are reported beside the
/// sample, not dropped silently.
///
/// Interference from other tenants of a shared machine only ever adds
/// time. A fused trial is single-threaded work whose repetitions differ
/// only by that interference, so the sample is the [`TIMED_PASSES`] fastest
/// repetitions of each scheduler seed: a trial slowed inside an otherwise
/// fast pass is dropped, where whole fast passes would keep it and let a
/// dozen of them set the p90. A networked trial's time also varies with how
/// its threads hand off over loopback, which is the program's own
/// behaviour that a per-seed minimum would filter out. Its latencies fall
/// in two modes, about 19 and 30 ms on the host this was tuned on, and the
/// fast one comes in bursts: the fastest passes put the p50 on either mode
/// from run to run. So there the sample is the trials of the middle half of
/// the passes by wall time (at least [`TIMED_PASSES`]), dropping the
/// quarter with the luckiest hand-offs and the quarter slowed most by
/// other tenants.
fn timed_sample(passes: &[Pass], exec: Exec) -> Vec<f64> {
    match exec {
        Exec::Fused => {
            // a pass with a failed trial is short; its seeds do not line up
            let whole: Vec<&Pass> = passes
                .iter()
                .filter(|p| p.trial_ms.len() == CYCLE)
                .collect();
            let keep = TIMED_PASSES.min(whole.len());
            (0..CYCLE)
                .flat_map(|i| {
                    let mut reps: Vec<f64> = whole.iter().map(|p| p.trial_ms[i]).collect();
                    reps.sort_by(f64::total_cmp);
                    reps.truncate(keep);
                    reps
                })
                .collect()
        }
        Exec::Networked => {
            let mut by_wall: Vec<&Pass> = passes.iter().collect();
            by_wall.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
            let keep = (passes.len() / 2).max(TIMED_PASSES).min(passes.len());
            let skip = (passes.len() - keep) / 2;
            by_wall[skip..skip + keep]
                .iter()
                .flat_map(|p| p.trial_ms.iter().copied())
                .collect()
        }
    }
}

/// Throughput and latency quantiles over the [`timed_sample`] of `passes`.
fn sample(passes: &[Pass], exec: Exec) -> Sample {
    let lat = timed_sample(passes, exec);
    let wall: f64 = lat.iter().sum();
    Sample {
        per_s: if wall > 0.0 {
            lat.len() as f64 * 1e3 / wall
        } else {
            0.0
        },
        p50: quantile(&lat, 0.5).unwrap_or(0.0),
        p90: quantile(&lat, 0.9).unwrap_or(0.0),
        trials: lat.len(),
        of_passes: passes.len(),
    }
}

/// The state of a sweep run: trial samples, per-pass wall times, the
/// first pass's counts, and traced sums.
struct Run<'p, 'g> {
    problem: &'p DasProblem<'g>,
    sweep: &'p Sweep,
    seed: u64,
    trials: usize,
    passes: Vec<Pass>,
    current: Pass,
    first_pass: Vec<Counts>,
    mismatches: usize,
    layers: Layers,
    /// `(set-up seconds, reference-run ms)` of every set-up.
    setups: Vec<(f64, f64)>,
}

impl Run<'_, '_> {
    /// Runs whole passes until `until` has passed and at least
    /// [`TIMED_PASSES`] passes ran (or the hard stop hits). Returns the
    /// timed sample of the passes it completed.
    fn window(
        &mut self,
        until: Instant,
        traced: bool,
        hard_stop: Instant,
        out: &mut Outcome,
    ) -> Sample {
        let start = self.passes.len();
        loop {
            let now = Instant::now();
            let done = self.passes.len() - start;
            let pass_done = self.trials.is_multiple_of(CYCLE);
            if now >= hard_stop || (pass_done && now >= until && done >= TIMED_PASSES) {
                break;
            }
            self.one(traced, out);
            if self.trials.is_multiple_of(CYCLE) {
                match set_up(self.sweep, self.seed) {
                    Ok(s) => self.setups.push(s),
                    Err(e) => out.problem(e),
                }
            }
        }
        sample(&self.passes[start..], self.sweep.exec)
    }

    fn one(&mut self, traced: bool, out: &mut Outcome) {
        let idx = self.trials % CYCLE;
        let sched_seed = seed_mix(self.seed, 1000 + idx as u64);
        self.trials += 1;
        out.attempted += 1;
        let result = trial(
            self.problem,
            self.sweep.sched.as_dyn(),
            self.sweep.exec,
            sched_seed,
        );
        let (t, plan, outcome) = match result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("sched seed {sched_seed}: {e}"));
                if self.first_pass.len() == idx {
                    self.first_pass.push(Counts::default());
                }
                self.end_of_trial(0.0);
                return;
            }
        };
        if t.mismatches > 0 {
            self.mismatches += t.mismatches;
            out.fail(format!(
                "sched seed {sched_seed}: {} output mismatches",
                t.mismatches
            ));
        }
        if self.first_pass.len() == idx {
            self.first_pass.push(t.counts);
        } else if self.first_pass.get(idx) != Some(&t.counts) {
            out.problem(format!(
                "sched seed {sched_seed}: counts {:?} differ from the first pass {:?}",
                t.counts,
                self.first_pass.get(idx)
            ));
        }
        self.current.trial_ms.push(t.ms);
        if traced {
            self.trace(&t, &plan, &outcome, out);
        }
        self.end_of_trial(t.ms);
    }

    fn end_of_trial(&mut self, trial_ms: f64) {
        self.current.wall_ms += trial_ms;
        if self.trials.is_multiple_of(CYCLE) {
            self.passes.push(std::mem::take(&mut self.current));
        }
    }

    /// The traced extras of one trial, all outside the trial's timer.
    fn trace(
        &mut self,
        t: &Trial,
        plan: &SchedulePlan,
        outcome: &ScheduleOutcome,
        out: &mut Outcome,
    ) {
        let l = &mut self.layers;
        l.trials += 1.0;
        l.trial_ms += t.ms;
        l.plan_ms += t.plan_ms;
        l.verify_ms += t.verify_ms;
        if let Sched::Private(p) = &self.sweep.sched {
            match private_stages(self.problem, p, plan, out) {
                Ok(s) => {
                    l.carve_ms += s.carve_ms;
                    l.share_ms += s.share_ms;
                    l.assemble_ms += s.assemble_ms;
                }
                Err(e) => out.problem(format!("stage probe: {e}")),
            }
        }
        match (&self.sweep.exec, &t.net) {
            (Exec::Fused, _) => {
                l.exec_ms += t.exec_ms;
                l.exec_rounds += outcome.stats.engine_rounds as f64;
            }
            (Exec::Networked, Some(net)) => {
                l.net_exec_ms += t.exec_ms;
                let (step, drain, wait) = shard_split(&net.shard, t.exec_ms);
                l.step_ms += step;
                l.drain_ms += drain;
                l.wait_ms += wait;
                // the same plan, fused: what the network costs on top
                let f0 = Instant::now();
                match execute_plan(self.problem, plan) {
                    Ok(fused) => {
                        l.exec_ms += ms(f0.elapsed());
                        l.exec_rounds += fused.stats.engine_rounds as f64;
                        if fused.outputs != outcome.outputs {
                            out.problem("networked outputs differ from fused".into());
                        }
                    }
                    Err(e) => out.problem(format!("fused re-execution: {e}")),
                }
            }
            (Exec::Networked, None) => out.problem("networked trial without a report".into()),
        }
    }
}

/// Runs one sweep workload for `seconds` (tracing on or off).
pub fn run(sweep: &Sweep, seed: u64, seconds: f64, trace: bool, started: Instant) -> Outcome {
    let mut out = Outcome::default();

    // set-up: graph, problem, reference runs — repeated, median reported
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        match set_up(sweep, seed) {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    let t = Instant::now();
    let g = (sweep.graph)();
    let problem = (sweep.problem)(&g, seed);
    let r = Instant::now();
    if let Err(e) = problem.references() {
        out.fail(format!("reference runs: {e}"));
        return out;
    }
    setups.push((t.elapsed().as_secs_f64(), ms(r.elapsed())));
    let first_timed_s = started.elapsed().as_secs_f64();

    let mut run = Run {
        problem: &problem,
        sweep,
        seed,
        trials: 0,
        passes: Vec::new(),
        current: Pass::default(),
        first_pass: Vec::with_capacity(CYCLE),
        mismatches: 0,
        layers: Layers::default(),
        setups,
    };
    let hard_stop = started + Duration::from_secs(150);
    let window = Duration::from_secs_f64(seconds);
    let (sample, traced_rate) = if trace {
        let half = Instant::now() + window / 2;
        let untraced = run.window(half, false, hard_stop, &mut out);
        let traced = run.window(half + window / 2, true, hard_stop, &mut out);
        (untraced, traced.per_s)
    } else {
        let sample = run.window(Instant::now() + window, false, hard_stop, &mut out);
        (sample, 0.0)
    };

    let mut setup_s: Vec<f64> = run.setups.iter().map(|s| s.0).collect();
    setup_s.sort_by(f64::total_cmp);
    let fastest_setups = &setup_s[..SETUP_FASTEST.min(setup_s.len())];
    let reference_ms: Vec<f64> = run.setups.iter().map(|s| s.1).collect();

    // exact counts: sums over one pass
    let fp = &run.first_pass;
    let sum = |f: fn(&Counts) -> u64| fp.iter().map(f).sum::<u64>();
    let per = fp.len().max(1) as f64;
    let rounds = sum(|c| c.rounds);
    let precompute = sum(|c| c.precompute);
    let predicted = sum(|c| c.predicted);
    let delay_entries = sum(|c| c.delay_entries);
    let delivered = sum(|c| c.delivered);
    let late = sum(|c| c.late);
    let frames = sum(|c| c.frames);
    let bytes = sum(|c| c.bytes);
    let big_rounds = sum(|c| c.big_rounds);
    let cross = sum(|c| c.cross_msgs);
    if fp.len() < CYCLE {
        out.problem(format!(
            "only {} of {CYCLE} pass trials completed",
            fp.len()
        ));
    }
    out.counts = vec![
        ("trials_per_pass", fp.len().to_string()),
        ("sim_rounds_sum", rounds.to_string()),
        ("precompute_rounds_sum", precompute.to_string()),
        ("exec.delivered_sum", delivered.to_string()),
        ("exec.late_sum", late.to_string()),
        ("plan.delay_entries_sum", delay_entries.to_string()),
        ("plan.predicted_rounds_sum", predicted.to_string()),
        ("net.frames_sum", frames.to_string()),
        ("net.bytes_sum", bytes.to_string()),
    ];

    let e = &mut out.end_to_end;
    e.insert("throughput_per_s", sample.per_s);
    e.insert("latency_ms_p50", sample.p50);
    e.insert("latency_ms_tail", sample.p90);
    e.insert("sim_rounds", rounds as f64 / per);
    e.insert("charged_rounds", (rounds + precompute) as f64 / per);
    e.insert("setup_s", median(fastest_setups).unwrap_or(0.0));
    e.insert("peak_rss_mb", peak_rss_mb());

    let l = &run.layers;
    let n = l.trials.max(1.0);
    let plan_ms = l.plan_ms / n;
    let stage_ms = (l.carve_ms + l.share_ms + l.assemble_ms) / n;
    let entries = delay_entries as f64 / per;
    let pl = &mut out.per_layer;
    pl.insert("trial.ms", l.trial_ms / n);
    pl.insert("reference.ms", median(&reference_ms).unwrap_or(0.0));
    pl.insert("reference.runs", problem.reference_runs_computed() as f64);
    pl.insert("plan.ms", plan_ms);
    pl.insert("plan.carve_ms", l.carve_ms / n);
    pl.insert("plan.share_ms", l.share_ms / n);
    pl.insert("plan.assemble_ms", l.assemble_ms / n);
    pl.insert(
        "plan.draws_units_ms",
        if stage_ms > 0.0 {
            plan_ms - stage_ms
        } else {
            0.0
        },
    );
    pl.insert("plan.delay_entries", entries);
    pl.insert("plan.ns_per_delay_entry", plan_ms * 1e6 / entries.max(1.0));
    pl.insert(
        "plan.predict_gap_rounds",
        (rounds as f64 - predicted as f64) / per,
    );
    pl.insert("plan.precompute_rounds", precompute as f64 / per);
    pl.insert("exec.ms", l.exec_ms / n);
    pl.insert(
        "exec.rounds_per_s",
        l.exec_rounds / (l.exec_ms / 1e3).max(1e-9),
    );
    pl.insert("exec.delivered", delivered as f64 / per);
    pl.insert("exec.late", late as f64 / per);
    pl.insert(
        "exec.max_arc_queue",
        fp.iter().map(|c| c.max_arc_queue).max().unwrap_or(0) as f64,
    );
    if sweep.exec == Exec::Networked {
        pl.insert("shard.step_ms", l.step_ms / n);
        pl.insert("shard.drain_ms", l.drain_ms / n);
        pl.insert("shard.wait_ms", l.wait_ms / n);
        pl.insert("shard.cross_msgs", cross as f64 / per);
        pl.insert("net.exec_ms", l.net_exec_ms / n);
        pl.insert("net.overhead_ms", (l.net_exec_ms - l.exec_ms) / n);
        pl.insert("net.frames", frames as f64 / per);
        pl.insert("net.bytes", bytes as f64 / per);
        pl.insert(
            "net.bytes_per_big_round",
            bytes as f64 / big_rounds.max(1) as f64,
        );
    }
    pl.insert("verify.ms", l.verify_ms / n);
    pl.insert("verify.mismatches", run.mismatches as f64);
    if trace {
        pl.insert(
            "trace.overhead_frac",
            1.0 - traced_rate / sample.per_s.max(1e-9),
        );
    }

    let all: Vec<f64> = run
        .passes
        .iter()
        .flat_map(|p| p.trial_ms.iter().copied())
        .collect();
    let walls: Vec<f64> = run.passes.iter().map(|p| p.wall_ms).collect();
    let median_pass = median(&walls).unwrap_or(0.0);
    let s = &sample;
    let drawn = match sweep.exec {
        Exec::Fused => format!("the {TIMED_PASSES} fastest repetitions of each scheduler seed"),
        Exec::Networked => "the middle half of the passes by wall time".to_string(),
    };
    out.notes = vec![
        format!(
            "trials_per_s {:.3} 1/s over {drawn}, of {} passes of {CYCLE} trials \
             ({:.3} 1/s at the median pass)",
            s.per_s,
            s.of_passes,
            CYCLE as f64 * 1e3 / median_pass.max(1e-9)
        ),
        format!(
            "trial_ms_p50 {:.3} ms, trial_ms_p90 {:.3} ms over those {} trials, {} beyond \
             p90 (all {} trials: {:.3} / {:.3} ms)",
            s.p50,
            s.p90,
            s.trials,
            beyond(s.trials, 0.9),
            all.len(),
            quantile(&all, 0.5).unwrap_or(0.0),
            quantile(&all, 0.9).unwrap_or(0.0)
        ),
        format!(
            "sim_rounds {:.3}, precompute_rounds {:.3} (means over one pass)",
            rounds as f64 / per,
            precompute as f64 / per
        ),
        format!(
            "failed_frac {} ({} of {})",
            out.failed as f64 / out.attempted.max(1) as f64,
            out.failed,
            out.attempted
        ),
        format!(
            "setup_s {:.6} s (median of the {} fastest of {} set-ups; median of all {:.6} s); \
             process start to first timed trial {first_timed_s:.6} s",
            median(fastest_setups).unwrap_or(0.0),
            fastest_setups.len(),
            setup_s.len(),
            median(&setup_s).unwrap_or(0.0)
        ),
        format!(
            "pass_ms min {:.1} median {median_pass:.1} max {:.1}",
            quantile(&walls, 1e-9).unwrap_or(0.0),
            quantile(&walls, 1.0).unwrap_or(0.0)
        ),
    ];
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(trial_ms: Vec<f64>) -> Pass {
        Pass {
            wall_ms: trial_ms.iter().sum(),
            trial_ms,
        }
    }

    /// Seven passes: pass 0 is the fastest overall (9 ms trials) but its
    /// seed 0 was slowed to 30 ms, passes 1–4 run 10 ms trials, and passes
    /// 5 and 6 are slow throughout.
    fn passes() -> Vec<Pass> {
        let mut ps: Vec<Pass> = (0..7)
            .map(|k| pass(vec![if k >= 5 { 17.0 } else { 10.0 }; CYCLE]))
            .collect();
        ps[0].trial_ms = vec![9.0; CYCLE];
        ps[0].trial_ms[0] = 30.0;
        ps[0].wall_ms = ps[0].trial_ms.iter().sum();
        ps
    }

    #[test]
    fn fused_sample_keeps_the_fastest_repetitions_of_each_seed() {
        let lat = timed_sample(&passes(), Exec::Fused);
        assert_eq!(lat.len(), TIMED_PASSES * CYCLE);
        assert!(!lat.contains(&30.0) && !lat.contains(&17.0));
        let s = sample(&passes(), Exec::Fused);
        assert_eq!((s.trials, s.of_passes), (TIMED_PASSES * CYCLE, 7));
        assert!(s.p90 <= 10.0);
    }

    #[test]
    fn networked_sample_keeps_the_middle_half_of_the_passes() {
        // 7 passes: half is fewer than TIMED_PASSES, so the middle 4 are
        // kept, without the fastest pass (and its 30 ms trial) or the slow
        let lat = timed_sample(&passes(), Exec::Networked);
        assert_eq!(lat.len(), TIMED_PASSES * CYCLE);
        assert!(lat.iter().all(|&t| t == 10.0));
        // 12 passes: the middle 6 by wall time, two fast and four slow
        let mut ps = passes();
        ps.extend((0..5).map(|_| pass(vec![17.0; CYCLE])));
        let lat = timed_sample(&ps, Exec::Networked);
        assert_eq!(lat.len(), 6 * CYCLE);
        assert_eq!(lat.iter().filter(|&&t| t == 10.0).count(), 2 * CYCLE);
        assert_eq!(lat.iter().filter(|&&t| t == 17.0).count(), 4 * CYCLE);
    }

    #[test]
    fn a_short_pass_is_left_out_of_the_fused_sample() {
        let mut ps = passes();
        ps[1].trial_ms.pop();
        let lat = timed_sample(&ps, Exec::Fused);
        assert_eq!(lat.len(), TIMED_PASSES * CYCLE);
        // with pass 1 left out, seed 0's fourth-fastest repetition is slow
        assert!(lat.contains(&17.0));
    }
}
