//! The scheduled executor: drives canonical machines in big-rounds over
//! capacity-1 edges, honestly.
//!
//! The executor realizes the execution style shared by all the paper's
//! schedulers (Theorem 1.1, the §3 remark, and Lemma 4.4):
//!
//! * Time is split into **big-rounds** of `phase_len` engine rounds.
//! * Each algorithm is run by one or more [`Unit`]s — (per-node delay,
//!   per-node truncation) assignments. In the shared-randomness schedulers
//!   there is one unit per algorithm with a global delay; in the
//!   private-randomness scheduler there is one unit per (algorithm, layer)
//!   with per-cluster delays and per-node truncations.
//! * There is **one canonical machine per (algorithm, node)**; algorithm
//!   round `r` executes at the *earliest* big-round any eligible unit
//!   schedules it. This built-in deduplication is exactly Lemma 4.4's
//!   "only the first copy of each message is actually sent".
//! * Messages travel through per-arc FIFO queues at **one message per edge
//!   per direction per engine round** — the CONGEST bandwidth. If a
//!   scheduler overloads an edge, messages spill into later big-rounds and
//!   may arrive after their consumer has stepped; such *late* messages are
//!   dropped and counted, and the wrong outputs they cause are caught by
//!   [`crate::verify`]. "With high probability" claims become measured
//!   failure rates.

//!
//! Every run — fused, sharded, networked, served — goes through the one
//! big-round loop in `exec/engine.rs`; see its module docs for the loop
//! and the boundary exchanges that distinguish the runs.

mod engine;
mod steps;

pub(crate) use engine::{merge, run_shard, BoundaryExchange, ShardOutput, ShardSpec};
pub(crate) use steps::FlatSteps;

use crate::algorithm::BlackBoxAlgorithm;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use das_graph::Graph;
use das_obs::{ExecObs, ObsConfig, ObsReport};
use engine::{Alone, Boundary, Threaded};
use serde::{Deserialize, Serialize};

/// Ways an execution can fail outright (as opposed to producing wrong
/// outputs, which [`crate::verify`] catches after the fact).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecError {
    /// The engine-round cap was reached before all arc queues drained: the
    /// schedule is overloaded (or malformed) beyond what the configured
    /// budget tolerates. Surfaced as a typed error so a trial sweep can
    /// record the truncated attempt and move on instead of aborting.
    RoundCapExceeded {
        /// The configured cap ([`ExecutorConfig::max_engine_rounds`]).
        cap: u64,
        /// The big-round that was draining when the cap was hit.
        big_round: u64,
    },
    /// A networked worker's connection dropped (or its stream errored)
    /// while the coordinator was mid-protocol with it.
    WorkerDisconnected {
        /// Shard index of the lost worker.
        shard: usize,
        /// What the coordinator was doing when the connection died.
        detail: String,
    },
    /// A frame arrived shorter than its length prefix promised (or the
    /// prefix itself was cut off): the peer closed or corrupted the stream
    /// mid-frame.
    TruncatedFrame {
        /// Where in the protocol the short read happened.
        detail: String,
    },
    /// Coordinator and worker speak different protocol versions.
    VersionMismatch {
        /// The coordinator's [`crate::net::PROTOCOL_VERSION`].
        coordinator: u32,
        /// The version the worker announced in its JOIN frame.
        worker: u32,
    },
    /// The plan JSON a worker received does not hash to the plan hash the
    /// coordinator announced — the plan was corrupted or substituted in
    /// transit.
    PlanHashMismatch {
        /// The hash announced in the ASSIGN frame.
        expected: u64,
        /// The hash of the plan bytes actually received.
        got: u64,
    },
    /// Coordinator and worker were launched on different problems (graph,
    /// workload, or tape seed differ), so byte-identity is impossible.
    ProblemMismatch {
        /// The coordinator's problem fingerprint.
        coordinator: u64,
        /// The worker's problem fingerprint.
        worker: u64,
    },
    /// A worker JOINed after every shard slot was already assigned: the
    /// coordinator keeps listening just long enough to turn stragglers
    /// away with a typed REJECT instead of a generic connection error.
    LateJoin {
        /// How many shard slots the run had (all taken).
        shards: usize,
    },
    /// A blocking network wait exceeded its configured deadline. Every
    /// wait on the networked path is deadline-bounded, so a dead peer
    /// surfaces as this error instead of a hang.
    NetTimeout {
        /// The protocol phase that timed out.
        during: String,
        /// The configured deadline in milliseconds.
        ms: u64,
    },
    /// The run was aborted deliberately: the coordinator was interrupted
    /// (Ctrl-C) or told this worker to stand down after another worker
    /// failed.
    Aborted {
        /// Why the run was torn down.
        detail: String,
    },
    /// Any other network-layer failure (bind, connect, malformed frame
    /// kind, oversized frame, encode/decode error).
    Net {
        /// Description of the failure.
        detail: String,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::RoundCapExceeded { cap, big_round } => write!(
                f,
                "engine round cap {cap} exceeded while draining big-round \
                 {big_round}; the schedule does not drain"
            ),
            ExecError::WorkerDisconnected { shard, detail } => {
                write!(f, "worker for shard {shard} disconnected: {detail}")
            }
            ExecError::TruncatedFrame { detail } => {
                write!(f, "truncated frame: {detail}")
            }
            ExecError::VersionMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "protocol version mismatch: coordinator speaks v{coordinator}, \
                 worker speaks v{worker}"
            ),
            ExecError::PlanHashMismatch { expected, got } => write!(
                f,
                "plan hash mismatch: coordinator announced {expected:#018x} but \
                 the received plan hashes to {got:#018x}"
            ),
            ExecError::ProblemMismatch {
                coordinator,
                worker,
            } => write!(
                f,
                "problem fingerprint mismatch: coordinator {coordinator:#018x} vs \
                 worker {worker:#018x} — both sides must be launched with the \
                 same graph, workload, and seed"
            ),
            ExecError::LateJoin { shards } => write!(
                f,
                "late JOIN rejected: all {shards} shard slots are already \
                 assigned for this run"
            ),
            ExecError::NetTimeout { during, ms } => {
                write!(f, "network wait timed out after {ms} ms during {during}")
            }
            ExecError::Aborted { detail } => write!(f, "run aborted: {detail}"),
            ExecError::Net { detail } => write!(f, "network error: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// One scheduled execution of an algorithm: who runs it, when, how far.
///
/// Units are the atoms of a [`crate::plan::SchedulePlan`] and serialize as
/// part of the plan's JSON form.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Unit {
    /// Index of the algorithm in the problem.
    pub algo: usize,
    /// Per-node start delay in big-rounds.
    pub delay: Vec<u64>,
    /// Big-rounds per algorithm round (1 everywhere except the
    /// time-division baseline).
    pub stride: u64,
    /// Per-node truncation: node `v` executes only rounds `r <
    /// trunc[v]` of this unit (`u32::MAX` = no truncation). Lemma 4.4's
    /// "execute only the first h' rounds".
    pub trunc: Vec<u32>,
}

impl Unit {
    /// A unit where every node starts at the same delay, untruncated.
    pub fn global(algo: usize, delay: u64, n: usize) -> Self {
        Unit {
            algo,
            delay: vec![delay; n],
            stride: 1,
            trunc: vec![u32::MAX; n],
        }
    }
}

/// The engine implementation. There is one: the batched step phase over
/// the columnar drain in `exec/engine.rs`. The type, together with
/// [`ExecutorConfig::engine`], [`ExecutorConfig::with_engine`] and
/// `ServeConfig::engine`, is kept only so that code naming them — the
/// `dasbench` package does — keeps compiling; none of them selects
/// anything.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineKind {
    /// Machines as node-contiguous [`crate::NodeBatch`] slabs, one
    /// [`crate::AlgoSlab::step_block`] call per same-algorithm run of a
    /// big-round, per-arc arena queues drained in per-big-round batches.
    #[default]
    ColumnarBatched,
}

/// Executor configuration.
#[derive(Clone, Debug)]
pub struct ExecutorConfig {
    /// Engine rounds per big-round.
    pub phase_len: u64,
    /// Per-message payload limit in bytes (the scheduler's header is extra,
    /// as the paper allows).
    pub message_bytes: usize,
    /// Hard cap on engine rounds.
    pub max_engine_rounds: u64,
    /// Record message departures to build a causality-checkable
    /// [`das_pattern::SimulationMap`] per algorithm.
    pub record_departures: bool,
    /// Number of shards for [`Executor::run_sharded`] (clamped to the node
    /// count; [`Executor::run`] ignores it). The outcome is byte-identical
    /// for every shard count — sharding changes only the parallel layout.
    pub shards: usize,
    /// Kept for source compatibility only; see [`EngineKind`].
    pub engine: EngineKind,
    /// Live observability hub, if the run is being served. Probes publish
    /// write-only snapshots into it at big-round boundaries; execution
    /// never reads it, so outcomes stay byte-identical with or without it
    /// (`tests/obs_neutrality.rs` enforces this with a polling client).
    pub live: Option<std::sync::Arc<das_obs::LiveHub>>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            phase_len: 1,
            message_bytes: 40,
            max_engine_rounds: 10_000_000,
            record_departures: true,
            shards: 1,
            engine: EngineKind::default(),
            live: None,
        }
    }
}

impl ExecutorConfig {
    /// Sets the big-round length.
    pub fn with_phase_len(mut self, phase_len: u64) -> Self {
        self.phase_len = phase_len.max(1);
        self
    }

    /// Attaches a live observability hub for the run to publish into.
    pub fn with_live(mut self, live: Option<std::sync::Arc<das_obs::LiveHub>>) -> Self {
        self.live = live;
        self
    }

    /// Enables or disables departure recording.
    pub fn with_record_departures(mut self, record: bool) -> Self {
        self.record_departures = record;
        self
    }

    /// Sets the shard count for [`Executor::run_sharded`].
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Kept for source compatibility only; see [`EngineKind`].
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }
}

/// Measured execution statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Engine rounds the schedule took (its length).
    pub engine_rounds: u64,
    /// Big-rounds executed.
    pub big_rounds: u64,
    /// Engine rounds per big-round.
    pub phase_len: u64,
    /// Messages delivered in time.
    pub delivered: u64,
    /// Messages that arrived after their consumer had already stepped
    /// (dropped; a nonzero count usually means wrong outputs).
    pub late_messages: u64,
    /// Sends rejected for model violations under perturbed inboxes.
    pub invalid_sends: u64,
    /// Maximum backlog observed on any arc queue.
    pub max_arc_queue: usize,
}

/// Runs a scheduled execution; see the `exec` module docs at the top of
/// this file for the semantics.
pub struct Executor;

impl Executor {
    /// Executes `units` over the problem's algorithms with the given
    /// configuration, returning outputs, stats, and (optionally) the
    /// per-algorithm simulation maps.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] if the queues have not
    /// drained by `config.max_engine_rounds`.
    ///
    /// # Panics
    /// Panics if the plan is malformed (missized vectors, zero stride,
    /// unknown algorithm) — plans from untrusted sources go through
    /// [`crate::SchedulePlan::validate`] first.
    pub fn run(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
    ) -> Result<ScheduleOutcome, ExecError> {
        Self::run_with(g, algos, seeds, units, config, 1, None).map(|(outcome, _, _)| outcome)
    }

    /// Like [`Executor::run`], recording observability at the level `obs`
    /// asks for. The outcome is byte-identical to [`Executor::run`] for
    /// every `obs` setting — the probe only reads executor state and never
    /// feeds back into it (`tests/obs_neutrality.rs` enforces this
    /// property-style). Returns `None` for the report when recording is
    /// disabled.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] exactly as [`Executor::run`]
    /// does.
    ///
    /// # Panics
    /// Panics on malformed plans, as [`Executor::run`] does.
    pub fn run_observed(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, Option<ObsReport>), ExecError> {
        Self::run_with(g, algos, seeds, units, config, 1, Some(obs))
            .map(|(outcome, _, report)| (outcome, report))
    }

    /// Executes `units` sharded: nodes are partitioned into
    /// `config.shards` degree-balanced shards (see [`Partition`]), each
    /// driven by its own worker thread. Workers step their own nodes and
    /// drain the arcs they own (an arc belongs to the shard of its
    /// *destination* node) freely within a big-round; cross-shard messages
    /// travel through per-(shard, shard) outboxes and enter the owner's
    /// queues only at the big-round boundary.
    ///
    /// The returned [`ScheduleOutcome`] is **byte-identical** to
    /// [`Executor::run`] for every plan and shard count: per-arc FIFO order
    /// is preserved (each arc has a unique source node, and each worker
    /// steps its nodes in the same order the sequential executor does),
    /// cross-shard arrivals merge in ascending source-shard order, lateness
    /// checks read only owner-local progress, inboxes are sorted before
    /// every machine step, and departures merge into an ordered map.
    /// Wall-clock and traffic measurements that *do* depend on the
    /// partition are returned separately in the [`ShardReport`].
    ///
    /// With more than one shard, one dedicated thread per shard is spawned
    /// (independent of any rayon pool and of `RAYON_NUM_THREADS`), so
    /// big-round barriers cannot starve; one shard runs on the caller's
    /// thread.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] if the queues have not
    /// drained by `config.max_engine_rounds` — all workers observe the
    /// identical engine-round counter, so they abandon the run in lockstep.
    ///
    /// # Panics
    /// Panics if the plan is malformed (missized vectors, zero stride,
    /// unknown algorithm) or a worker thread panics.
    pub fn run_sharded(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
    ) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
        Self::run_with(
            g,
            algos,
            seeds,
            units,
            config,
            config.shards,
            Some(&ObsConfig::off()),
        )
        .map(|(outcome, report, _)| (outcome, report))
    }

    /// Like [`Executor::run_sharded`], recording observability at the level
    /// `obs` asks for: each shard worker carries its own probe (events land
    /// on that shard's lane/track) and the per-shard recordings merge into
    /// one report in shard order — so the report's deterministic content is
    /// independent of thread interleaving, and the [`ScheduleOutcome`]
    /// stays byte-identical to [`Executor::run`] for every `obs` setting.
    /// Returns `None` for the report when recording is disabled.
    ///
    /// # Errors
    /// Returns [`ExecError::RoundCapExceeded`] exactly as
    /// [`Executor::run_sharded`] does.
    ///
    /// # Panics
    /// Panics on malformed plans or a worker panic, as
    /// [`Executor::run_sharded`] does.
    pub fn run_sharded_observed(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        obs: &ObsConfig,
    ) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), ExecError> {
        Self::run_with(g, algos, seeds, units, config, config.shards, Some(obs))
    }

    /// Every run's body: `shards` degree-balanced shards through the
    /// engine core — one on the caller's thread with the no-op exchange,
    /// more on one thread each with the in-process exchange. Each shard
    /// carries its own probe (events land on its lane); `obs: None` runs
    /// unobserved and unpublished.
    fn run_with(
        g: &Graph,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        seeds: &[u64],
        units: &[Unit],
        config: &ExecutorConfig,
        shards: usize,
        obs: Option<&ObsConfig>,
    ) -> Result<(ScheduleOutcome, ShardReport, Option<ObsReport>), ExecError> {
        assert_eq!(seeds.len(), algos.len(), "one seed per algorithm");
        let n = g.node_count();
        let part = Partition::degree_balanced(g, shards);
        let s = part.shards();
        let steps = FlatSteps::build(n, algos, units);
        let spec = |me| ShardSpec {
            g,
            algos,
            seeds,
            config,
            steps: &steps,
            of_node: part.of_node(),
            me,
        };
        let probe = |me: usize| match obs {
            Some(obs) => {
                let mut p = ExecObs::new(obs, me as u32);
                p.attach_live(config.live.clone());
                p
            }
            None => ExecObs::disabled(),
        };
        let results: Vec<Result<(ShardOutput, Option<ObsReport>), ExecError>> = if s == 1 {
            let mut p = probe(0);
            vec![run_shard(&spec(0), &mut Alone, &mut p).map(|o| (o, p.finish()))]
        } else {
            let boundary = Boundary::new(s);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..s)
                    .map(|me| {
                        let (spec, probe, boundary) = (spec(me), &probe, &boundary);
                        scope.spawn(move || {
                            let mut p = probe(me);
                            let mut exchange = Threaded::new(me, boundary);
                            run_shard(&spec, &mut exchange, &mut p).map(|o| (o, p.finish()))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard worker panicked"))
                    .collect()
            })
        };
        let mut parts = Vec::with_capacity(s);
        let mut merged_obs: Option<ObsReport> = None;
        for r in results {
            let (out, report) = r?;
            // shards are consumed in order, so the merged report is
            // deterministic for a fixed shard count
            if let Some(r) = report {
                match &mut merged_obs {
                    Some(m) => m.merge(&r),
                    None => merged_obs = Some(r),
                }
            }
            parts.push(out);
        }
        let (outcome, report) = merge(
            n,
            algos.len(),
            config.phase_len,
            steps.last_step_round,
            config.record_departures,
            parts,
        );
        Ok((outcome, report, merged_obs))
    }
}

/// Per-shard measurements from a sharded execution.
///
/// Wall-clock and traffic-split fields depend on the partition and the
/// machine, which is exactly why they live here and not in [`ExecStats`]:
/// the [`ScheduleOutcome`] stays byte-identical across shard counts.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Nodes owned by this shard.
    pub nodes: usize,
    /// Total degree owned by this shard (the balance target).
    pub degree: usize,
    /// Machine steps executed by this shard's worker.
    pub steps: u64,
    /// Messages delivered on arcs owned by this shard.
    pub delivered: u64,
    /// Messages this shard sent to other shards (through an outbox).
    pub cross_sent: u64,
    /// Wall-clock nanoseconds spent in step phases (nondeterministic).
    pub step_nanos: u64,
    /// Wall-clock nanoseconds spent in merge + drain phases
    /// (nondeterministic).
    pub drain_nanos: u64,
}

/// What a sharded execution reports beyond the (partition-independent)
/// [`ScheduleOutcome`]: the partition shape, cross-shard traffic, and
/// per-shard timing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardReport {
    /// Number of shards actually used (requested count clamped to `n`).
    pub shards: usize,
    /// Total messages that crossed a shard boundary (sum of
    /// [`ShardStats::cross_sent`]).
    pub cross_shard_messages: u64,
    /// Per-shard measurements, in shard order.
    pub per_shard: Vec<ShardStats>,
}

#[cfg(test)]
#[path = "../tests/support/row_oracle.rs"]
mod row_oracle;

#[cfg(test)]
mod tests {
    use super::row_oracle;
    use super::*;
    use crate::problem::DasProblem;
    use crate::synthetic::{FloodBall, RelayChain};
    use das_graph::{generators, NodeId};

    #[test]
    fn single_algorithm_zero_delay_matches_reference() {
        let g = generators::path(8);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 3);
        let units = vec![Unit::global(0, 0, 8)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        let reference = &p.references().unwrap()[0];
        assert_eq!(outcome.outputs[0], reference.outputs);
        assert_eq!(outcome.stats.late_messages, 0);
        // one message per round, phase 1: 7 rounds of activity
        assert_eq!(outcome.stats.delivered, 7);
    }

    #[test]
    fn two_relays_same_path_collide_with_zero_delays() {
        // both relays want the same edge in the same round; with phase 1 the
        // second message spills and arrives late
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0), p.algo_seed(1)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert!(outcome.stats.late_messages > 0, "collision must surface");
    }

    #[test]
    fn two_relays_staggered_delays_both_correct() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        // delay the second by one big-round: the token trains never collide
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 1, 6)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0), p.algo_seed(1)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.stats.late_messages, 0);
        let refs = p.references().unwrap();
        assert_eq!(outcome.outputs[0], refs[0].outputs);
        assert_eq!(outcome.outputs[1], refs[1].outputs);
        // length: second relay starts at big-round 1, runs 5 rounds
        assert_eq!(outcome.stats.engine_rounds, 6);
    }

    #[test]
    fn departures_form_valid_simulation() {
        let g = generators::path(6);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 3);
        let units = vec![Unit::global(0, 2, 6)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default().with_phase_len(3),
        )
        .unwrap();
        let map = &outcome.departures.as_ref().unwrap()[0];
        let pattern = &p.references().unwrap()[0].pattern;
        das_pattern::verify_simulation(&g, pattern, map).unwrap();
    }

    #[test]
    fn truncation_limits_execution() {
        let g = generators::path(10);
        let p = DasProblem::new(&g, vec![Box::new(FloodBall::new(0, &g, NodeId(0), 9))], 1);
        // truncate everyone at 3 rounds: the flood stops after 3 hops
        let units = vec![Unit {
            algo: 0,
            delay: vec![0; 10],
            stride: 1,
            trunc: vec![3; 10],
        }];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        // nodes 0..3 heard (they step rounds 0..3), beyond never stepped
        let out = &outcome.outputs[0];
        assert_eq!(out[2].as_ref().unwrap()[0], 1);
        assert_eq!(out[6].as_ref().unwrap()[0], 0);
    }

    #[test]
    fn two_units_earliest_wins_and_dedups() {
        let g = generators::path(5);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 2);
        // the same algorithm scheduled twice with different delays: the
        // canonical machine steps at the earlier one; total messages equal
        // one copy (dedup)
        let units = vec![Unit::global(0, 3, 5), Unit::global(0, 1, 5)];
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.stats.delivered, 4, "one copy of each message");
        assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
    }

    #[test]
    fn round_cap_surfaces_as_typed_error_not_panic() {
        // two colliding relays need ~10 engine rounds; cap at 3
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let config = ExecutorConfig {
            max_engine_rounds: 3,
            ..ExecutorConfig::default()
        };
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let err = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap_err();
        assert_eq!(
            err,
            ExecError::RoundCapExceeded {
                cap: 3,
                big_round: 3
            }
        );
        assert!(err.to_string().contains("cap 3"));
        // the sharded path reports the identical error
        let sharded_err =
            Executor::run_sharded(&g, p.algorithms(), &seeds, &units, &config.with_shards(3))
                .unwrap_err();
        assert_eq!(sharded_err, err);
    }

    #[test]
    fn sharded_outcome_matches_sequential_byte_for_byte() {
        let g = generators::grid(4, 4);
        let route = snake(&g);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::along(0, &g, route)) as Box<dyn BlackBoxAlgorithm>,
                Box::new(FloodBall::new(1, &g, NodeId(5), 3)),
            ],
            9,
        );
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let units = vec![Unit::global(0, 0, 16), Unit::global(1, 1, 16)];
        let config = ExecutorConfig::default().with_phase_len(2);
        let fused = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
        for shards in [1, 2, 5, 16, 64] {
            let (sharded, report) = Executor::run_sharded(
                &g,
                p.algorithms(),
                &seeds,
                &units,
                &config.clone().with_shards(shards),
            )
            .unwrap();
            assert_eq!(
                format!("{fused:?}"),
                format!("{sharded:?}"),
                "shards = {shards}"
            );
            assert_eq!(report.shards, shards.min(16));
            assert_eq!(report.per_shard.len(), report.shards);
            let sent: u64 = report.per_shard.iter().map(|s| s.cross_sent).sum();
            assert_eq!(sent, report.cross_shard_messages);
            if shards == 1 {
                assert_eq!(report.cross_shard_messages, 0);
            }
            let steps: u64 = report.per_shard.iter().map(|s| s.steps).sum();
            assert!(steps > 0, "workers actually stepped machines");
        }
    }

    /// The snake route over a 4x4 grid: left-to-right on even rows,
    /// right-to-left on odd (consecutive hops are grid edges).
    fn snake(g: &Graph) -> Vec<NodeId> {
        assert_eq!(g.node_count(), 16);
        (0..4)
            .flat_map(|row: u32| {
                let cols: Vec<u32> = if row.is_multiple_of(2) {
                    (0..4).collect()
                } else {
                    (0..4).rev().collect()
                };
                cols.into_iter().map(move |c| NodeId(row * 4 + c))
            })
            .collect()
    }

    #[test]
    fn engine_matches_row_oracle_byte_for_byte() {
        let g = generators::grid(4, 4);
        let route = snake(&g);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::along(0, &g, route.clone())) as Box<dyn BlackBoxAlgorithm>,
                Box::new(RelayChain::along(1, &g, route)),
                Box::new(FloodBall::new(2, &g, NodeId(5), 3)),
            ],
            11,
        );
        let seeds = [p.algo_seed(0), p.algo_seed(1), p.algo_seed(2)];
        let units = vec![
            Unit::global(0, 0, 16),
            Unit::global(1, 0, 16),
            Unit::global(2, 1, 16),
        ];
        for phase_len in [1, 2, 5] {
            let config = ExecutorConfig::default().with_phase_len(phase_len);
            let oracle = row_oracle::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
            let fused = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
            assert_eq!(
                format!("{oracle:?}"),
                format!("{fused:?}"),
                "phase_len = {phase_len}"
            );
        }
    }

    #[test]
    fn engine_matches_row_oracle_on_the_round_cap_error() {
        let g = generators::path(6);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::new(0, &g)),
                Box::new(RelayChain::new(1, &g)),
            ],
            3,
        );
        let units = vec![Unit::global(0, 0, 6), Unit::global(1, 0, 6)];
        let seeds = [p.algo_seed(0), p.algo_seed(1)];
        let config = ExecutorConfig {
            max_engine_rounds: 3,
            ..ExecutorConfig::default()
        };
        let oracle = row_oracle::run(&g, p.algorithms(), &seeds, &units, &config).unwrap_err();
        let fused = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap_err();
        assert_eq!(oracle, fused);
    }

    #[test]
    fn stride_spreads_steps() {
        let g = generators::path(4);
        let p = DasProblem::new(&g, vec![Box::new(RelayChain::new(0, &g))], 2);
        let units = vec![Unit {
            algo: 0,
            delay: vec![0; 4],
            stride: 3,
            trunc: vec![u32::MAX; 4],
        }];
        let plan = row_oracle::StepPlan::build(&g, p.algorithms(), &units);
        assert_eq!(plan.steps(0, NodeId(0)), &[0, 3, 6]);
        let outcome = Executor::run(
            &g,
            p.algorithms(),
            &[p.algo_seed(0)],
            &units,
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(outcome.outputs[0], p.references().unwrap()[0].outputs);
    }

    /// Two units per algorithm with truncation holes and strides above 1:
    /// the general case of the step table, which only the oracle's
    /// `StepPlan` spells out. The core must match the oracle fused and at
    /// every shard count, and its step table must agree with `StepPlan`.
    #[test]
    fn multi_unit_plans_match_the_oracle() {
        let g = generators::grid(4, 4);
        let route = snake(&g);
        let p = DasProblem::new(
            &g,
            vec![
                Box::new(RelayChain::along(0, &g, route.clone())) as Box<dyn BlackBoxAlgorithm>,
                Box::new(FloodBall::new(1, &g, NodeId(5), 4)),
                Box::new(RelayChain::along(2, &g, route.into_iter().rev().collect())),
            ],
            13,
        );
        let seeds = [p.algo_seed(0), p.algo_seed(1), p.algo_seed(2)];
        let n = 16;
        let mut units = Vec::new();
        for a in 0..3 {
            // an early, strided unit truncated short at every third node
            // (and dropped entirely at every fifth), plus a late stride-1
            // unit that carries the rest
            units.push(Unit {
                algo: a,
                delay: (0..n as u64).map(|v| (v + a as u64) % 4).collect(),
                stride: 2 + a as u64,
                trunc: (0..n as u32)
                    .map(|v| match v {
                        v if v % 5 == 0 => 0,
                        v if v % 3 == 0 => 2,
                        _ => u32::MAX,
                    })
                    .collect(),
            });
            units.push(Unit {
                algo: a,
                delay: (0..n as u64).map(|v| 3 + (v * 7 + a as u64) % 5).collect(),
                stride: 1,
                trunc: vec![u32::MAX; n],
            });
        }
        let step_plan = row_oracle::StepPlan::build(&g, p.algorithms(), &units);
        let flat = FlatSteps::build(n, p.algorithms(), &units);
        let mut from_flat = vec![vec![Vec::new(); n]; 3];
        for b in 0..=flat.last_step_round {
            for &(a, v, r) in flat.at(b) {
                assert_eq!(from_flat[a as usize][v as usize].len(), r as usize);
                from_flat[a as usize][v as usize].push(b);
            }
        }
        for (a, per_node) in from_flat.iter().enumerate() {
            for (v, steps) in per_node.iter().enumerate() {
                assert_eq!(steps, step_plan.steps(a, NodeId(v as u32)), "a {a} v {v}");
            }
        }
        assert_eq!(Some(flat.last_step_round), step_plan.last_big_round());
        assert_eq!(
            FlatSteps::last_big_round(n, p.algorithms(), &units),
            step_plan.last_big_round()
        );
        for phase_len in [1, 3] {
            let config = ExecutorConfig::default().with_phase_len(phase_len);
            let oracle = row_oracle::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
            let want = format!("{oracle:?}");
            let fused = Executor::run(&g, p.algorithms(), &seeds, &units, &config).unwrap();
            assert_eq!(want, format!("{fused:?}"), "fused, phase_len {phase_len}");
            for shards in [2, 3, 7] {
                let config = config.clone().with_shards(shards);
                let (sharded, _) =
                    Executor::run_sharded(&g, p.algorithms(), &seeds, &units, &config).unwrap();
                assert_eq!(want, format!("{sharded:?}"), "{shards} shards");
            }
        }
    }
}
