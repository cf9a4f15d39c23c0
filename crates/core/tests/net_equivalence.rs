//! The byte-identity property, extended over the wire: a coordinator plus
//! N workers talking framed TCP on localhost must produce the
//! *byte-identical* `ScheduleOutcome` of the row oracle
//! (`support/row_oracle.rs`), the fused executor, and the in-process
//! sharded executor, for every scheduler, on both graph families, at 1 and
//! 3 workers — and fail with the same round-cap error when they fail.
//!
//! A pinned-seed matrix (rather than proptest) keeps the socket churn
//! bounded; the seeds sweep both graph randomness and workload randomness.

use das_core::synthetic::{FloodBall, Prescribed, RelayChain};
use das_core::{
    execute_plan, execute_plan_networked, execute_plan_sharded, run_worker, BlackBoxAlgorithm,
    DasProblem, ExecError, ExecutorConfig, InterleaveScheduler, NetConfig, PrivateScheduler,
    SchedError, SchedulePlan, Scheduler, SequentialScheduler, TunedUniformScheduler,
    UniformScheduler, Unit,
};
use das_graph::{generators, Graph, NodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::TcpListener;

#[path = "support/row_oracle.rs"]
mod row_oracle;

const WORKER_COUNTS: [usize; 2] = [1, 3];

/// A random mixed workload (prescribed / flood / relay) on `g` — the same
/// generator the sharded-equivalence property uses.
fn build_algos(g: &Graph, k: usize, seed: u64) -> Vec<Box<dyn BlackBoxAlgorithm>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.node_count() as u32;
    let m = g.edge_count() as u32;
    (0..k as u64)
        .map(|i| match i % 3 {
            0 => {
                let triples: Vec<(u32, NodeId, NodeId)> = (0..4)
                    .map(|_| {
                        let e = das_graph::EdgeId(rng.gen_range(0..m));
                        let (a, b) = g.endpoints(e);
                        let (from, to) = if rng.gen_bool(0.5) { (a, b) } else { (b, a) };
                        (rng.gen_range(0..5u32), from, to)
                    })
                    .collect();
                Box::new(Prescribed::new(i, g, &triples)) as Box<dyn BlackBoxAlgorithm>
            }
            1 => Box::new(FloodBall::new(i, g, NodeId(rng.gen_range(0..n)), 3)),
            _ => {
                let mut route = vec![NodeId(rng.gen_range(0..n))];
                for _ in 0..4 {
                    let cur = *route.last().expect("non-empty");
                    let nbrs = g.neighbors(cur);
                    let (next, _) = nbrs[rng.gen_range(0..nbrs.len())];
                    route.push(next);
                }
                Box::new(RelayChain::along(i, g, route))
            }
        })
        .collect()
}

fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SequentialScheduler),
        Box::new(InterleaveScheduler),
        Box::new(UniformScheduler::default()),
        Box::new(TunedUniformScheduler::default()),
        Box::new(PrivateScheduler::default()),
    ]
}

/// Runs the plan over localhost TCP: a coordinator thread (this one) plus
/// `workers` worker threads sharing the same in-memory problem, exactly as
/// separate processes would rebuild it from identical flags.
fn run_networked(
    p: &DasProblem<'_>,
    plan: &das_core::SchedulePlan,
    workers: usize,
) -> (das_core::ScheduleOutcome, das_core::NetReport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net = NetConfig::default().with_io_timeout_ms(20_000);
    std::thread::scope(|scope| {
        let effective = workers.min(p.graph().node_count());
        let mut handles = Vec::new();
        for _ in 0..effective {
            let addr = addr.clone();
            let net = net.clone();
            handles.push(scope.spawn(move || run_worker(p, &addr, &net)));
        }
        let result =
            execute_plan_networked(p, plan, workers, listener, &net).expect("networked execution");
        for h in handles {
            h.join().expect("worker thread").expect("worker outcome");
        }
        result
    })
}

/// Zeroes the wall-clock fields of a shard report so the deterministic
/// remainder can be compared byte-for-byte.
fn strip_timings(report: &das_core::ShardReport) -> das_core::ShardReport {
    let mut r = report.clone();
    for s in &mut r.per_shard {
        s.step_nanos = 0;
        s.drain_nanos = 0;
    }
    r
}

/// Asserts fused == in-process sharded == networked bytes for every
/// scheduler and worker count on the given graph.
fn assert_networked_equivalent(g: &Graph, k: usize, seed: u64) {
    let p = DasProblem::new(g, build_algos(g, k, seed), seed);
    for sched in all_schedulers() {
        let plan = sched.plan(&p, seed).expect("model-valid workload");
        let oracle = row_oracle::execute_plan(&p, &plan, &ExecutorConfig::default())
            .expect("oracle execution");
        let fused_bytes = format!("{oracle:?}");
        let fused = execute_plan(&p, &plan).expect("fused execution");
        assert_eq!(
            fused_bytes,
            format!("{fused:?}"),
            "scheduler {}: fused diverged from the row oracle",
            sched.name()
        );
        for workers in WORKER_COUNTS {
            let (sharded, shard_report) =
                execute_plan_sharded(&p, &plan, workers).expect("sharded execution");
            assert_eq!(
                fused_bytes,
                format!("{sharded:?}"),
                "scheduler {}: in-process sharded diverged at {workers} shards",
                sched.name()
            );
            let (networked, net_report) = run_networked(&p, &plan, workers);
            assert_eq!(
                fused_bytes,
                format!("{networked:?}"),
                "scheduler {}: networked diverged at {workers} workers",
                sched.name()
            );
            // The partition-dependent shard report must also agree with the
            // in-process sharded run (modulo wall-clock timings): same
            // partition, same protocol.
            assert_eq!(
                format!("{:?}", strip_timings(&shard_report)),
                format!("{:?}", strip_timings(&net_report.shard)),
                "scheduler {}: networked shard report diverged at {workers} workers",
                sched.name()
            );
            assert_eq!(net_report.traffic.len(), shard_report.shards);
            for t in &net_report.traffic {
                assert!(t.frames_sent > 0 && t.frames_received > 0);
            }
        }
    }
}

#[test]
fn networked_matches_fused_on_gnp() {
    for seed in [1u64, 17, 131] {
        let g = generators::gnp_connected(12, 2.5 / 12.0, seed);
        assert_networked_equivalent(&g, 3, seed.wrapping_mul(0x9e37_79b9));
    }
}

#[test]
fn networked_matches_fused_on_layered() {
    let g = generators::layered(4, 3);
    for seed in [2u64, 23, 271] {
        assert_networked_equivalent(&g, 3, seed);
    }
}

/// More workers than nodes: the coordinator clamps to the node count (the
/// partition's own clamp) and only accepts that many connections; the
/// outcome is still byte-identical.
#[test]
fn networked_clamps_workers_to_node_count() {
    let g = generators::layered(2, 2);
    let p = DasProblem::new(&g, build_algos(&g, 2, 5), 5);
    let plan = SequentialScheduler.plan(&p, 5).expect("plan");
    let fused = execute_plan(&p, &plan).expect("fused");
    let n = g.node_count();
    let (networked, report) = run_networked(&p, &plan, n + 10);
    assert_eq!(format!("{fused:?}"), format!("{networked:?}"));
    assert_eq!(report.shard.shards, n);
}

/// The round cap fires identically everywhere. A networked worker runs
/// under the default engine-round cap, so the plan is built to overrun
/// exactly that: 2·P + 1 one-hop algorithms all send over the same arc at
/// big-round L with P = phase_len chosen so that the last step boundary
/// lands on the cap — the backlog is still draining at big-round L + 2,
/// which crosses it. Oracle, fused, sharded and networked runs must all
/// return the same `RoundCapExceeded { cap, big_round }`.
#[test]
fn round_cap_is_the_same_error_everywhere() {
    use das_core::synthetic::Prescribed;
    let g = generators::path(2);
    let cap = ExecutorConfig::default().max_engine_rounds;
    let phase_len = 5_000u64;
    let last_step = cap / phase_len - 1;
    let k = 2 * phase_len as usize + 1;
    let algos: Vec<Box<dyn BlackBoxAlgorithm>> = (0..k as u64)
        .map(|i| {
            Box::new(Prescribed::new(i, &g, &[(0, NodeId(0), NodeId(1))]))
                as Box<dyn BlackBoxAlgorithm>
        })
        .collect();
    let p = DasProblem::new(&g, algos, 3);
    // each algorithm has two rounds: send at last_step - 1, receive at
    // last_step
    let units = (0..k).map(|a| Unit::global(a, last_step - 1, 2)).collect();
    let plan = SchedulePlan::assemble("pinned", 0, phase_len, 0, &p, units);
    assert_eq!(plan.predicted_rounds, cap, "the plan itself fits the cap");
    let want = ExecError::RoundCapExceeded {
        cap,
        big_round: last_step + 1,
    };
    let exec_err = |r: Result<das_core::ScheduleOutcome, SchedError>| match r {
        Err(SchedError::Exec(e)) => e,
        other => panic!("expected a typed ExecError, got {other:?}"),
    };
    let oracle = row_oracle::execute_plan(&p, &plan, &ExecutorConfig::default());
    assert_eq!(oracle.unwrap_err(), want, "oracle");
    assert_eq!(exec_err(execute_plan(&p, &plan)), want, "fused");
    let sharded = execute_plan_sharded(&p, &plan, 2).map(|(o, _)| o);
    assert_eq!(exec_err(sharded), want, "sharded");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind localhost");
    let addr = listener.local_addr().expect("local addr").to_string();
    let net = NetConfig::default().with_io_timeout_ms(20_000);
    let (networked, workers) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| run_worker(&p, &addr, &net)))
            .collect();
        let result = execute_plan_networked(&p, &plan, 2, listener, &net).map(|(o, _)| o);
        let workers: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (result, workers)
    });
    assert_eq!(exec_err(networked), want, "networked");
    for w in workers {
        match w {
            Err(SchedError::Exec(e)) => assert_eq!(e, want, "worker"),
            other => panic!("worker must fail with the round cap, got {other:?}"),
        }
    }
}
