//! Ablations at the E7 shoot-out sizes:
//!
//! * **sweep-cache on vs off** (C2) — planning a sched-seed sweep from one
//!   shared [`das_bench::SweepPlanner`] artifact vs calling the
//!   scheduler's full `plan()` per seed. Plans are asserted
//!   byte-identical before timing.
//! * criterion trend targets for the engine core (`engine/e07_k64`) and
//!   for private-scheduler planning, scratch vs swept.
//!
//! `--quick` (or `CRITERION_QUICK=1`) shrinks both the table budgets and
//! the criterion sampling so CI can run this on every PR.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use das_bench::{workloads, SweepPlanner, Table};
use das_core::{
    execute_plan_with, ExecutorConfig, PrivateScheduler, Scheduler, SequentialScheduler,
    UniformScheduler,
};
use das_graph::generators;
use std::time::{Duration, Instant};

/// Wall-time budget per measured table cell.
fn budget() -> Duration {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var_os("CRITERION_QUICK").is_some_and(|v| v == "1");
    if quick {
        Duration::from_millis(60)
    } else {
        Duration::from_millis(400)
    }
}

/// Mean seconds per call of `f`: one calibration call sizes a repetition
/// count that fills `budget`, then the batch is timed as a whole.
fn secs_per_iter<F: FnMut()>(mut f: F, budget: Duration) -> f64 {
    let t = Instant::now();
    f();
    let once = t.elapsed().max(Duration::from_nanos(1));
    let reps = (budget.as_nanos() / once.as_nanos()).clamp(1, 100_000) as u64;
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() / reps as f64
}

fn sweep_cache_ablation() {
    println!("=== C2: sweep-cache on vs off, planning a sched-seed sweep at E7 sizes ===");
    let g = generators::path(100);
    let mut t = Table::new(&["scheduler", "k", "scratch plan", "swept plan", "speedup"]);
    for k in [32usize, 128] {
        let problem = workloads::segment_relays(&g, k, 14, 1, 5);
        let scheds: Vec<Box<dyn Scheduler>> = vec![
            Box::new(SequentialScheduler),
            Box::new(UniformScheduler::default()),
            Box::new(PrivateScheduler::default()),
        ];
        for sched in &scheds {
            let planner = SweepPlanner::new(sched.as_ref(), &problem);
            assert_eq!(
                sched.plan(&problem, 7).expect("plan").to_json(),
                planner.plan(&problem, 7).to_json(),
                "swept plans must match plan() at k={k} before anything is timed"
            );
            let b = budget();
            let mut s = 0u64;
            let scratch = secs_per_iter(
                || {
                    s = s.wrapping_add(1);
                    black_box(sched.plan(&problem, s).expect("plan"));
                },
                b,
            );
            let mut s = 0u64;
            let swept = secs_per_iter(
                || {
                    s = s.wrapping_add(1);
                    black_box(planner.plan(&problem, s));
                },
                b,
            );
            t.row_owned(vec![
                sched.name().to_string(),
                k.to_string(),
                format!("{:.1} µs", scratch * 1e6),
                format!("{:.1} µs", swept * 1e6),
                format!("{:.1}x", scratch / swept),
            ]);
        }
    }
    t.print();
    println!(
        "(the sweep artifact caches the sched-seed-independent planning prefix — the whole\n plan for seed-tagged schedulers, the clustering carve for the private scheduler)\n"
    );
}

fn bench(c: &mut Criterion) {
    sweep_cache_ablation();

    // criterion samples at the E7 midpoint (k = 64) for trend tracking
    let g = generators::path(100);
    let problem = workloads::segment_relays(&g, 64, 14, 1, 5);
    let plan = UniformScheduler::default()
        .plan(&problem, 7)
        .expect("model-valid workload");
    let cfg = ExecutorConfig::default().with_phase_len(plan.phase_len);
    c.bench_function("engine/e07_k64", |b| {
        b.iter(|| {
            execute_plan_with(&problem, &plan, &cfg)
                .expect("engine run")
                .schedule_rounds()
        })
    });

    let sched = PrivateScheduler::default();
    let planner = SweepPlanner::new(&sched, &problem);
    let mut seed = 0u64;
    c.bench_function("sweep/e07_k64_private_plan_scratch", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            sched.plan(&problem, seed).expect("plan").phase_len
        })
    });
    let mut seed = 0u64;
    c.bench_function("sweep/e07_k64_private_plan_swept", |b| {
        b.iter(|| {
            seed = seed.wrapping_add(1);
            planner.plan(&problem, seed).phase_len
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
