//! The row oracle: the executor's semantics written as plainly as
//! possible, against the public API only, for tests to compare the engine
//! core with.
//!
//! One fused loop, one message per active arc per engine round, one boxed
//! machine per (algorithm, node) stepped through [`AlgoNode::step`],
//! heap-allocated payloads, per-message departure inserts. The general
//! step-plan semantics — any number of units per algorithm, per-node
//! truncation, any stride — live here in [`StepPlan`].
//!
//! Include it with `#[path = "support/row_oracle.rs"] mod row_oracle;`
//! (unit tests inside das-core reach it by a longer relative path and
//! see the crate under its own name).

#![allow(dead_code)]

use das_core::{
    AlgoNode, BlackBoxAlgorithm, DasProblem, ExecError, ExecStats, ExecutorConfig, ScheduleOutcome,
    SchedulePlan, Unit,
};
use das_graph::{Graph, NodeId};
use das_pattern::{SimulationMap, TimedArc};

/// The per-(algorithm, node) step plan: `plan[a][v]` lists the big-round
/// of each algorithm round `0, 1, 2, …` (a prefix of the rounds;
/// truncation can cut it short).
pub struct StepPlan {
    plan: Vec<Vec<Vec<u64>>>,
}

impl StepPlan {
    /// Round `r` of algorithm `a` at node `v` executes at the earliest
    /// big-round over all eligible units; only the contiguous prefix of
    /// scheduled rounds is kept.
    pub fn build(g: &Graph, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        let n = g.node_count();
        let mut earliest: Vec<Vec<Vec<Option<u64>>>> = algos
            .iter()
            .map(|a| vec![vec![None; a.rounds() as usize]; n])
            .collect();
        for u in units {
            assert!(u.algo < algos.len(), "unit for unknown algorithm");
            assert_eq!(u.delay.len(), n, "delay vector missized");
            assert_eq!(u.trunc.len(), n, "truncation vector missized");
            assert!(u.stride >= 1, "stride must be at least 1");
            for (v, slots) in earliest[u.algo].iter_mut().enumerate() {
                let lim = (slots.len() as u32).min(u.trunc[v]) as usize;
                for (r, slot) in slots[..lim].iter_mut().enumerate() {
                    let b = u.delay[v] + r as u64 * u.stride;
                    if slot.is_none_or(|cur| b < cur) {
                        *slot = Some(b);
                    }
                }
            }
        }
        let plan = earliest
            .into_iter()
            .map(|per_node| {
                per_node
                    .into_iter()
                    .map(|rounds| {
                        let steps: Vec<u64> = rounds.into_iter().map_while(|b| b).collect();
                        assert!(
                            steps.windows(2).all(|w| w[0] < w[1]),
                            "step plan must be strictly increasing"
                        );
                        steps
                    })
                    .collect()
            })
            .collect();
        StepPlan { plan }
    }

    /// The big-rounds at which node `v` steps algorithm `a`.
    pub fn steps(&self, a: usize, v: NodeId) -> &[u64] {
        &self.plan[a][v.index()]
    }

    /// The last big-round with any step, or `None` for an empty plan.
    pub fn last_big_round(&self) -> Option<u64> {
        self.plan
            .iter()
            .flatten()
            .filter_map(|s| s.last().copied())
            .max()
    }
}

/// A message in flight.
struct Flight {
    dst: NodeId,
    algo: u32,
    round: u32,
    from: NodeId,
    payload: Vec<u8>,
}

/// Per-arc FIFO of in-flight messages.
type ArcFifo = std::collections::VecDeque<Flight>;

/// Arrival buffer for one (algorithm, node) machine, keyed by
/// algorithm-round tag.
type TagWindow = std::collections::BTreeMap<u32, Vec<(NodeId, Vec<u8>)>>;

/// Runs `units` fused, one engine round at a time.
///
/// # Errors
/// [`ExecError::RoundCapExceeded`] when the queues have not drained by
/// `config.max_engine_rounds`.
pub fn run(
    g: &Graph,
    algos: &[Box<dyn BlackBoxAlgorithm>],
    seeds: &[u64],
    units: &[Unit],
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, ExecError> {
    let n = g.node_count();
    let k = algos.len();
    let plan = StepPlan::build(g, algos, units);
    let mut machines: Vec<Vec<Box<dyn AlgoNode>>> = (0..k)
        .map(|a| {
            (0..n)
                .map(|v| {
                    let seed = das_congest::util::seed_mix(seeds[a], v as u64);
                    algos[a].create_node(NodeId(v as u32), n, seed)
                })
                .collect()
        })
        .collect();
    let mut steps_done = vec![vec![0u32; n]; k];
    let mut windows: Vec<Vec<TagWindow>> = vec![vec![TagWindow::new(); n]; k];

    // steps grouped by big-round, in (algorithm, node, round) order
    let last_step_round = plan.last_big_round().unwrap_or(0);
    let mut by_big_round: Vec<Vec<(usize, usize, u32)>> =
        vec![Vec::new(); last_step_round as usize + 1];
    for a in 0..k {
        for v in 0..n {
            for (r, &b) in plan.plan[a][v].iter().enumerate() {
                by_big_round[b as usize].push((a, v, r as u32));
            }
        }
    }

    let mut queues: Vec<ArcFifo> = (0..g.arc_count()).map(|_| ArcFifo::new()).collect();
    let mut stats = ExecStats {
        phase_len: config.phase_len,
        ..ExecStats::default()
    };
    let mut departures: Vec<SimulationMap> = vec![SimulationMap::new(); k];
    let mut engine_round: u64 = 0;
    let mut last_activity_round: u64 = 0;
    let mut b: u64 = 0;
    loop {
        // 1. Step every machine scheduled at big-round b.
        for &(a, v, r) in by_big_round.get(b as usize).into_iter().flatten() {
            assert_eq!(steps_done[a][v], r, "steps execute in order");
            let mut inbox = if r == 0 {
                Vec::new()
            } else {
                windows[a][v].remove(&(r - 1)).unwrap_or_default()
            };
            // canonical inbox order, matching the reference runner
            inbox.sort();
            let sends = machines[a][v].step(&inbox);
            steps_done[a][v] = r + 1;
            let me = NodeId(v as u32);
            let mut sent_to: Vec<NodeId> = Vec::new();
            for s in sends {
                let edge = g.find_edge(me, s.to);
                if edge.is_none()
                    || s.payload.len() > config.message_bytes
                    || sent_to.contains(&s.to)
                {
                    stats.invalid_sends += 1;
                    continue;
                }
                sent_to.push(s.to);
                let arc = g.arc_from(edge.expect("checked"), me);
                let q = &mut queues[arc.index()];
                q.push_back(Flight {
                    dst: s.to,
                    algo: a as u32,
                    round: r,
                    from: me,
                    payload: s.payload,
                });
                stats.max_arc_queue = stats.max_arc_queue.max(q.len());
            }
        }

        // 2. Drain for phase_len engine rounds, one message per arc each.
        for _ in 0..config.phase_len {
            for (arc, q) in queues.iter_mut().enumerate() {
                let Some(f) = q.pop_front() else {
                    continue;
                };
                let (a, v) = (f.algo as usize, f.dst.index());
                if config.record_departures {
                    let key = TimedArc {
                        round: f.round,
                        arc: das_graph::Arc::from_index(arc),
                    };
                    departures[a].insert(key, engine_round as u32);
                }
                // late: the consumer already stepped round f.round + 1
                if steps_done[a][v] >= f.round + 2 {
                    stats.late_messages += 1;
                } else {
                    let bucket = windows[a][v].entry(f.round).or_default();
                    bucket.push((f.from, f.payload));
                    stats.delivered += 1;
                }
                last_activity_round = engine_round + 1;
            }
            engine_round += 1;
            if engine_round > config.max_engine_rounds {
                return Err(ExecError::RoundCapExceeded {
                    cap: config.max_engine_rounds,
                    big_round: b,
                });
            }
        }

        b += 1;
        if b > last_step_round && queues.iter().all(|q| q.is_empty()) {
            break;
        }
    }

    stats.big_rounds = b;
    stats.engine_rounds = (last_step_round + 1)
        .saturating_mul(config.phase_len)
        .max(last_activity_round);
    let outputs = machines
        .iter()
        .map(|per_node| per_node.iter().map(|m| m.output()).collect())
        .collect();
    Ok(ScheduleOutcome {
        outputs,
        stats,
        departures: config.record_departures.then_some(departures),
        precompute_rounds: 0,
    })
}

/// [`run`] on a plan, mirroring `execute_plan_with`: the plan's
/// `phase_len` overrides the configuration's, and the outcome carries the
/// plan's pre-computation rounds.
///
/// # Errors
/// As [`run`].
pub fn execute_plan(
    p: &DasProblem<'_>,
    plan: &SchedulePlan,
    config: &ExecutorConfig,
) -> Result<ScheduleOutcome, ExecError> {
    let seeds: Vec<u64> = (0..p.k()).map(|i| p.algo_seed(i)).collect();
    let config = config.clone().with_phase_len(plan.phase_len);
    let mut outcome = run(p.graph(), p.algorithms(), &seeds, &plan.units, &config)?;
    outcome.precompute_rounds = plan.precompute_rounds;
    Ok(outcome)
}
