//! Executor edge cases: degenerate plans, tiny algorithms, and stat
//! bookkeeping corners.

use das_core::synthetic::Prescribed;
use das_core::{BlackBoxAlgorithm, DasProblem, Executor, ExecutorConfig, Unit};
use das_graph::{generators, NodeId};

#[path = "support/row_oracle.rs"]
mod row_oracle;
use row_oracle::StepPlan;

fn one_hop(g: &das_graph::Graph) -> Box<dyn BlackBoxAlgorithm> {
    Box::new(Prescribed::new(0, g, &[(0, NodeId(0), NodeId(1))]))
}

#[test]
fn single_message_algorithm_executes() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.stats.delivered, 1);
    assert_eq!(outcome.stats.late_messages, 0);
    assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
}

#[test]
fn fully_truncated_unit_executes_nothing() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit {
        algo: 0,
        delay: vec![0; 2],
        stride: 1,
        trunc: vec![0; 2],
    }];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default(),
    )
    .unwrap();
    assert_eq!(outcome.stats.delivered, 0);
    // machines never stepped: outputs are the initial states, not the
    // reference — visible, not silent
    assert_ne!(outcome.outputs[0], p.references().unwrap()[0].outputs);
}

#[test]
fn step_plan_reports_earliest_of_overlapping_units() {
    let g = generators::path(3);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![
        Unit::global(0, 7, 3),
        Unit {
            algo: 0,
            delay: vec![2, 9, 9],
            stride: 1,
            trunc: vec![u32::MAX; 3],
        },
    ];
    let plan = StepPlan::build(&g, p.algorithms(), &units);
    // node 0: min(7, 2) = 2; node 1: min(7, 9) = 7
    assert_eq!(plan.steps(0, NodeId(0))[0], 2);
    assert_eq!(plan.steps(0, NodeId(1))[0], 7);
    assert_eq!(plan.last_big_round(), Some(7 + 1)); // round 1 at node 1: 8
                                                    // the library's plan extent agrees: boundary of big-round 8
    let assembled = das_core::SchedulePlan::assemble("edges", 0, 1, 0, &p, units);
    assert_eq!(assembled.predicted_rounds, 9);
}

#[test]
fn huge_phase_len_still_counts_rounds_correctly() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default().with_phase_len(100),
    )
    .unwrap();
    // 2 algo rounds * 100 rounds per big-round
    assert_eq!(outcome.schedule_rounds(), 200);
    assert_eq!(outcome.stats.phase_len, 100);
}

#[test]
fn departures_can_be_disabled() {
    let g = generators::path(2);
    let p = DasProblem::new(&g, vec![one_hop(&g)], 1);
    let units = vec![Unit::global(0, 0, 2)];
    let outcome = Executor::run(
        &g,
        p.algorithms(),
        &[p.algo_seed(0)],
        &units,
        &ExecutorConfig::default().with_record_departures(false),
    )
    .unwrap();
    assert!(outcome.departures.is_none());
}
