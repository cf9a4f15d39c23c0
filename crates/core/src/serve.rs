//! The long-lived scheduling service: `dasched serve`.
//!
//! A serve daemon turns the one-shot plan → execute → verify pipeline into
//! an online admission problem — the paper's framing of DAS as co-running
//! many independent jobs against shared congestion and dilation budgets,
//! kept running indefinitely:
//!
//! * **Clients** connect over the same length-prefixed framed-TCP layer
//!   the networked executor uses ([`crate::net`]), handshake with
//!   HELLO/CAPS (protocol version + graph fingerprint; the server
//!   advertises its capacity), and SUBMIT jobs carrying *declared*
//!   dilation / congestion / payload budgets.
//! * **Admission** is capability-based and content-free: a job is admitted
//!   or rejected by comparing its declared budgets against the advertised
//!   [`Capacity`] — arithmetic on announced numbers only, the same class
//!   of computation as [`crate::plan::analysis::predict`]'s precheck (no
//!   payload is inspected, no execution happens). Over-budget jobs get a
//!   typed REJECTED naming the violated budget.
//! * **Batching**: admitted jobs queue until [`ServeConfig::batch_max`]
//!   are waiting or [`ServeConfig::batch_wait_ms`] has passed; a batch of
//!   `k` jobs becomes one [`DasProblem`] (the job id is the algorithm id,
//!   so each job's random tape — and therefore its outputs — is
//!   independent of which other jobs share its batch). The batch is
//!   planned through the scheduler's sweep-artifact cache and executed on
//!   the bounded in-process sharded pool.
//! * **Trust, then verify**: declared budgets are *not* trusted beyond
//!   admission. After execution the server measures each job's real
//!   dilation and congestion from its reference run and cross-checks the
//!   declaration; a lying job comes back with
//!   [`JobStatus::BudgetMismatch`] even if its outputs verified clean.
//!   Outputs themselves are checked against the alone-run references
//!   ([`crate::verify::against_references`]) — the paper's correctness
//!   criterion — so a RESULT with [`JobStatus::Ok`] carries outputs
//!   byte-identical to a one-shot run of the same job set.
//!
//! [`run_loadgen`] is the deterministic counterpart: N client threads
//! submit seeded job streams, optionally re-deriving every output locally
//! to assert the byte-identity end-to-end, and report sustained jobs/sec
//! with p50/p95/p99 latency.

use crate::exec::{EngineKind, ExecError, ExecutorConfig};
use crate::net::{
    connect_with_retry, decode_reject, graph_fingerprint, wire, ByteReader, ByteWriter, FramedConn,
    NetConfig, PROTOCOL_VERSION,
};
use crate::plan::{execute_plan_sharded_with, SchedError};
use crate::problem::DasProblem;
use crate::reference::run_alone;
use crate::schedulers::Scheduler;
use crate::synthetic::{FloodBall, RelayChain};
use crate::verify;
use das_graph::{Graph, NodeId};
use das_obs::JobsLive;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked serve-side waits re-check the stop flag.
const STOP_POLL: Duration = Duration::from_millis(100);

/// Per-pool capacity the server advertises in its CAPS frame and admits
/// against. Budgets are *declared* quantities — admission never inspects
/// job content, so these caps bound what the pool has agreed to carry,
/// not what a client managed to sneak in (lies are caught post-execution
/// by the measured-budget cross-check).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacity {
    /// Largest declared dilation (algorithm rounds) admitted.
    pub max_dilation: u32,
    /// Largest declared per-edge congestion admitted.
    pub max_congestion: u64,
    /// Largest declared message payload, in bytes, admitted.
    pub max_payload_bytes: u32,
}

impl Default for Capacity {
    fn default() -> Self {
        Capacity {
            max_dilation: 256,
            max_congestion: 4096,
            max_payload_bytes: 40,
        }
    }
}

/// The job families a serve daemon accepts. Jobs are *specifications* —
/// the server instantiates the black-box algorithm itself, so a SUBMIT
/// frame carries parameters, never code or payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// [`FloodBall`] from `source` to the given `depth`.
    Flood,
    /// [`RelayChain`] along the job-seeded route (`source`/`depth`
    /// ignored).
    Relay,
}

impl JobKind {
    fn to_wire(self) -> u8 {
        match self {
            JobKind::Flood => 0,
            JobKind::Relay => 1,
        }
    }

    fn from_wire(b: u8) -> Option<JobKind> {
        match b {
            0 => Some(JobKind::Flood),
            1 => Some(JobKind::Relay),
            _ => None,
        }
    }
}

/// A job's declared budgets, as carried in its SUBMIT frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Declared dilation: the algorithm's round count.
    pub dilation: u32,
    /// Declared congestion: the job's maximum per-edge message load.
    pub congestion: u64,
    /// Declared maximum message payload, in bytes.
    pub payload_bytes: u32,
}

/// One submitted job: identity, family, parameters, declared budgets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen job id; becomes the algorithm id (`aid`), which makes
    /// the job's random tape — and outputs — batch-independent.
    pub job_id: u64,
    /// The job family.
    pub kind: JobKind,
    /// Source node (floods; ignored for relays).
    pub source: u32,
    /// Flood depth (floods; ignored for relays).
    pub depth: u32,
    /// The declared budgets admission checks against [`Capacity`].
    pub declared: Budgets,
}

/// Why admission refused a job: the violated budget and both numbers, as
/// shipped in the REJECTED frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rejection {
    /// A `wire::BUDGET_*` / [`wire::MALFORMED`] code.
    pub code: u32,
    /// The job's declared value for the violated budget.
    pub declared: u64,
    /// The server's capacity for it.
    pub capacity: u64,
}

/// Content-free admission: compares the job's declared budgets against
/// the advertised capacity — nothing else. This is deliberately the same
/// class of computation as [`crate::plan::analysis::predict`]'s
/// feasibility precheck (arithmetic over announced quantities; no
/// payloads, no execution, no engine), so rejection can never depend on
/// job content: two jobs declaring the same budgets are admitted or
/// refused identically.
///
/// # Errors
/// Returns the [`Rejection`] naming the first violated budget.
pub fn admit(spec: &JobSpec, nodes: usize, cap: &Capacity) -> Result<(), Rejection> {
    if spec.kind == JobKind::Flood && spec.source as usize >= nodes {
        return Err(Rejection {
            code: wire::MALFORMED,
            declared: spec.source as u64,
            capacity: nodes as u64,
        });
    }
    if spec.declared.dilation > cap.max_dilation {
        return Err(Rejection {
            code: wire::BUDGET_DILATION,
            declared: spec.declared.dilation as u64,
            capacity: cap.max_dilation as u64,
        });
    }
    if spec.declared.congestion > cap.max_congestion {
        return Err(Rejection {
            code: wire::BUDGET_CONGESTION,
            declared: spec.declared.congestion,
            capacity: cap.max_congestion,
        });
    }
    if spec.declared.payload_bytes > cap.max_payload_bytes {
        return Err(Rejection {
            code: wire::BUDGET_PAYLOAD,
            declared: spec.declared.payload_bytes as u64,
            capacity: cap.max_payload_bytes as u64,
        });
    }
    Ok(())
}

/// How a job's batch execution went, as carried in its RESULT frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobStatus {
    /// Outputs verified byte-identical to the job's alone run, and the
    /// measured budgets fit the declaration.
    Ok,
    /// At least one node's output diverged from the alone run.
    VerifyFailed,
    /// Outputs may be fine, but the job's *measured* dilation or
    /// congestion exceeded what it declared at admission: the declaration
    /// was a lie, caught at verify time rather than trusted.
    BudgetMismatch,
    /// The batch failed to plan or execute; no outputs.
    ExecFailed,
}

impl JobStatus {
    fn to_wire(self) -> u8 {
        match self {
            JobStatus::Ok => 0,
            JobStatus::VerifyFailed => 1,
            JobStatus::BudgetMismatch => 2,
            JobStatus::ExecFailed => 3,
        }
    }

    /// Decodes the wire byte (unknown values read as
    /// [`JobStatus::ExecFailed`]).
    pub fn from_wire(b: u8) -> JobStatus {
        match b {
            0 => JobStatus::Ok,
            1 => JobStatus::VerifyFailed,
            2 => JobStatus::BudgetMismatch,
            _ => JobStatus::ExecFailed,
        }
    }
}

/// Tunables of the serve daemon.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Jobs per batch: arrivals are grouped into [`DasProblem`]s of at
    /// most this size (clamped to ≥ 1).
    pub batch_max: usize,
    /// How long a non-full batch lingers (from its first job's arrival)
    /// before executing anyway, in milliseconds.
    pub batch_wait_ms: u64,
    /// Worker threads of the in-process execution pool.
    pub pool_shards: usize,
    /// Advertised per-pool admission capacity.
    pub capacity: Capacity,
    /// The tape seed every batch runs under; with job-id aids this pins
    /// every job's random tape across batches.
    pub tape_seed: u64,
    /// The scheduler seed every batch is planned with.
    pub sched_seed: u64,
    /// Kept for source compatibility only; see [`EngineKind`].
    pub engine: EngineKind,
    /// Network tunables; `net.stop` is the daemon's shutdown signal and
    /// `net.live` its optional telemetry hub.
    pub net: NetConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            batch_max: 4,
            batch_wait_ms: 50,
            pool_shards: 2,
            capacity: Capacity::default(),
            tape_seed: 42,
            sched_seed: 0,
            engine: EngineKind::default(),
            net: NetConfig::default(),
        }
    }
}

/// What a serve daemon reports once stopped.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Jobs that passed admission.
    pub admitted: u64,
    /// Jobs refused at admission.
    pub rejected: u64,
    /// Jobs that executed and verified clean.
    pub completed: u64,
    /// Jobs that executed but failed verify / budget cross-check /
    /// execution.
    pub failed: u64,
    /// Batches executed.
    pub batches: u64,
}

/// Shared daemon counters (atomics so the reader threads, the executor,
/// and the final report all see one truth).
#[derive(Default)]
struct Counters {
    queued: AtomicU64,
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
}

impl Counters {
    fn publish(&self, net: &NetConfig) {
        if let Some(hub) = &net.live {
            hub.publish_jobs(JobsLive {
                queued: self.queued.load(Ordering::SeqCst),
                admitted: self.admitted.load(Ordering::SeqCst),
                rejected: self.rejected.load(Ordering::SeqCst),
                completed: self.completed.load(Ordering::SeqCst),
                failed: self.failed.load(Ordering::SeqCst),
                batches: self.batches.load(Ordering::SeqCst),
            });
        }
    }
}

/// One admitted job waiting for a batch: the spec plus the client's write
/// half (ACCEPTED/REJECTED go out on the reader thread, RESULT on the
/// executor thread; the mutex serializes them).
struct PendingJob {
    spec: JobSpec,
    writer: Arc<Mutex<FramedConn>>,
}

struct JobQueue {
    jobs: Mutex<VecDeque<PendingJob>>,
    ready: Condvar,
}

/// Waits (interruptibly) for the next frame: `Ok(None)` means the stop
/// flag was raised, or `deadline` (when given) passed while the line was
/// quiet. With no deadline the wait is unbounded but still stops promptly
/// on the flag — the daemon's idle state.
fn recv_or_stop(
    conn: &mut FramedConn,
    net: &NetConfig,
    deadline: Option<Instant>,
) -> Result<Option<(u8, Vec<u8>)>, ExecError> {
    loop {
        if net.stopped() {
            return Ok(None);
        }
        if let Some(d) = deadline {
            if Instant::now() >= d {
                return Ok(None);
            }
        }
        if conn.poll_readable(STOP_POLL)? {
            return conn.recv("serve frame").map(Some);
        }
    }
}

/// Runs the scheduling service on `listener` until the configured stop
/// flag ([`NetConfig::with_stop`]) is raised: accepts any number of
/// clients, admits or rejects their jobs against `cfg.capacity`, executes
/// admitted jobs in batches planned by `scheduler`, and streams each
/// job's RESULT back. Without a stop flag the daemon runs forever.
///
/// Outstanding admitted jobs are drained (executed and answered) before
/// the daemon returns, so a clean shutdown never drops an ACCEPTED job.
///
/// # Errors
/// Returns [`SchedError::Exec`] only for listener-level failures; client
/// and batch failures are per-connection / per-job and never take the
/// daemon down.
pub fn serve(
    g: &Graph,
    scheduler: &dyn Scheduler,
    listener: TcpListener,
    cfg: &ServeConfig,
) -> Result<ServeReport, SchedError> {
    listener.set_nonblocking(true).map_err(|e| {
        SchedError::Exec(ExecError::Net {
            detail: format!("set_nonblocking: {e}"),
        })
    })?;
    let counters = Counters::default();
    let queue = JobQueue {
        jobs: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
    };
    let graph_fp = graph_fingerprint(g);
    counters.publish(&cfg.net);
    std::thread::scope(|scope| {
        let executor = scope.spawn(|| executor_loop(g, scheduler, cfg, &queue, &counters));
        while !cfg.net.stopped() {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let queue = &queue;
                    let counters = &counters;
                    scope.spawn(move || {
                        // per-client thread: a misbehaving client costs
                        // only its own connection, never the daemon
                        let _ = serve_client(g, graph_fp, stream, cfg, queue, counters);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        // wake the executor so it drains the queue and exits
        queue.ready.notify_all();
        let _ = executor.join();
    });
    Ok(ServeReport {
        admitted: counters.admitted.load(Ordering::SeqCst),
        rejected: counters.rejected.load(Ordering::SeqCst),
        completed: counters.completed.load(Ordering::SeqCst),
        failed: counters.failed.load(Ordering::SeqCst),
        batches: counters.batches.load(Ordering::SeqCst),
    })
}

/// One client connection: HELLO/CAPS handshake, then SUBMITs until the
/// client hangs up or the daemon stops. A disconnect mid-SUBMIT (clean or
/// truncated) closes the connection without touching any counter — the
/// clipped job was never admitted.
fn serve_client(
    g: &Graph,
    graph_fp: u64,
    stream: TcpStream,
    cfg: &ServeConfig,
    queue: &JobQueue,
    counters: &Counters,
) -> Result<(), ExecError> {
    let mut reader = FramedConn::new(
        stream.try_clone().map_err(|e| ExecError::Net {
            detail: format!("clone client stream: {e}"),
        })?,
        &cfg.net,
    )?;
    let writer = Arc::new(Mutex::new(FramedConn::new(stream, &cfg.net)?));

    // HELLO → CAPS (or REJECT): same shape as the worker handshake, but
    // against the graph fingerprint only — jobs arrive later.
    let hello_deadline = Instant::now() + Duration::from_millis(cfg.net.io_timeout_ms.max(1));
    let Some((kind, body)) = recv_or_stop(&mut reader, &cfg.net, Some(hello_deadline))? else {
        return Ok(());
    };
    if kind != wire::HELLO {
        return Err(ExecError::Net {
            detail: format!("expected HELLO, got frame kind {kind}"),
        });
    }
    let mut r = ByteReader::new(&body);
    let version = r.u32("HELLO version")?;
    let client_fp = r.u64("HELLO graph fingerprint")?;
    if version != PROTOCOL_VERSION {
        let mut w = ByteWriter::new();
        w.u32(wire::REJECT_VERSION);
        w.u64(PROTOCOL_VERSION as u64);
        w.u64(version as u64);
        let _ = lock_writer(&writer).send(wire::REJECT, &w.buf, "serve handshake (REJECT)");
        return Err(ExecError::VersionMismatch {
            coordinator: PROTOCOL_VERSION,
            worker: version,
        });
    }
    if client_fp != graph_fp {
        let mut w = ByteWriter::new();
        w.u32(wire::REJECT_PROBLEM);
        w.u64(graph_fp);
        w.u64(client_fp);
        let _ = lock_writer(&writer).send(wire::REJECT, &w.buf, "serve handshake (REJECT)");
        return Err(ExecError::ProblemMismatch {
            coordinator: graph_fp,
            worker: client_fp,
        });
    }
    let mut w = ByteWriter::new();
    w.u32(PROTOCOL_VERSION);
    w.u64(graph_fp);
    w.u64(cfg.tape_seed);
    w.u32(cfg.batch_max.max(1) as u32);
    w.u32(cfg.pool_shards.max(1) as u32);
    w.u32(cfg.capacity.max_dilation);
    w.u64(cfg.capacity.max_congestion);
    w.u32(cfg.capacity.max_payload_bytes);
    lock_writer(&writer).send(wire::CAPS, &w.buf, "serve handshake (CAPS)")?;

    let n = g.node_count();
    loop {
        let Some((kind, body)) = recv_or_stop(&mut reader, &cfg.net, None)? else {
            return Ok(()); // daemon stopping
        };
        if kind != wire::SUBMIT {
            return Err(ExecError::Net {
                detail: format!("expected SUBMIT, got frame kind {kind}"),
            });
        }
        let mut r = ByteReader::new(&body);
        let job_id = r.u64("SUBMIT job id")?;
        let kind_byte = r.u8("SUBMIT kind")?;
        let source = r.u32("SUBMIT source")?;
        let depth = r.u32("SUBMIT depth")?;
        let declared = Budgets {
            dilation: r.u32("SUBMIT dilation")?,
            congestion: r.u64("SUBMIT congestion")?,
            payload_bytes: r.u32("SUBMIT payload")?,
        };
        let Some(job_kind) = JobKind::from_wire(kind_byte) else {
            send_rejected(
                &writer,
                job_id,
                &Rejection {
                    code: wire::MALFORMED,
                    declared: kind_byte as u64,
                    capacity: 1,
                },
            );
            counters.rejected.fetch_add(1, Ordering::SeqCst);
            counters.publish(&cfg.net);
            continue;
        };
        let spec = JobSpec {
            job_id,
            kind: job_kind,
            source,
            depth,
            declared,
        };
        match admit(&spec, n, &cfg.capacity) {
            Err(rejection) => {
                send_rejected(&writer, job_id, &rejection);
                counters.rejected.fetch_add(1, Ordering::SeqCst);
            }
            Ok(()) => {
                let queued = {
                    let mut q = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
                    q.push_back(PendingJob {
                        spec,
                        writer: Arc::clone(&writer),
                    });
                    q.len() as u64
                };
                queue.ready.notify_all();
                counters.admitted.fetch_add(1, Ordering::SeqCst);
                counters.queued.store(queued, Ordering::SeqCst);
                let mut w = ByteWriter::new();
                w.u64(job_id);
                w.u64(queued);
                let _ = lock_writer(&writer).send(wire::ACCEPTED, &w.buf, "serve (ACCEPTED)");
            }
        }
        counters.publish(&cfg.net);
    }
}

fn lock_writer(writer: &Arc<Mutex<FramedConn>>) -> std::sync::MutexGuard<'_, FramedConn> {
    writer.lock().unwrap_or_else(|e| e.into_inner())
}

fn send_rejected(writer: &Arc<Mutex<FramedConn>>, job_id: u64, rejection: &Rejection) {
    let mut w = ByteWriter::new();
    w.u64(job_id);
    w.u32(rejection.code);
    w.u64(rejection.declared);
    w.u64(rejection.capacity);
    let _ = lock_writer(writer).send(wire::REJECTED, &w.buf, "serve (REJECTED)");
}

/// The batch executor: forms batches from the admitted queue, runs each
/// through plan → execute → verify, and answers every job. Keeps running
/// until the stop flag is raised *and* the queue is drained, so ACCEPTED
/// jobs are never dropped on shutdown.
fn executor_loop(
    g: &Graph,
    scheduler: &dyn Scheduler,
    cfg: &ServeConfig,
    queue: &JobQueue,
    counters: &Counters,
) {
    let batch_max = cfg.batch_max.max(1);
    let linger = Duration::from_millis(cfg.batch_wait_ms);
    loop {
        let batch: Vec<PendingJob> = {
            let mut q = queue.jobs.lock().unwrap_or_else(|e| e.into_inner());
            // wait for the first job (or for shutdown)
            while q.is_empty() {
                if cfg.net.stopped() {
                    return;
                }
                let (guard, _) = queue
                    .ready
                    .wait_timeout(q, STOP_POLL)
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            // linger for stragglers until the batch fills, the wait
            // expires, or the daemon stops
            let first_seen = Instant::now();
            while q.len() < batch_max && first_seen.elapsed() < linger && !cfg.net.stopped() {
                let (guard, _) = queue
                    .ready
                    .wait_timeout(q, linger.min(STOP_POLL))
                    .unwrap_or_else(|e| e.into_inner());
                q = guard;
            }
            let take = q.len().min(batch_max);
            let batch = q.drain(..take).collect();
            counters.queued.store(q.len() as u64, Ordering::SeqCst);
            batch
        };
        execute_batch(g, scheduler, cfg, batch, counters);
        counters.batches.fetch_add(1, Ordering::SeqCst);
        counters.publish(&cfg.net);
    }
}

/// Instantiates a job's black-box algorithm. The job id is the algorithm
/// id, which pins the job's random tape (`seed_mix(tape_seed, job_id)`)
/// independently of batch composition — the lever that makes served
/// outputs byte-identical to a one-shot run of the same jobs.
pub fn instantiate(spec: &JobSpec, g: &Graph) -> Box<dyn crate::BlackBoxAlgorithm> {
    match spec.kind {
        JobKind::Flood => Box::new(FloodBall::new(
            spec.job_id,
            g,
            NodeId(spec.source),
            spec.depth,
        )),
        JobKind::Relay => Box::new(RelayChain::new(spec.job_id, g)),
    }
}

/// One batch: build the [`DasProblem`], plan through the sweep-artifact
/// cache, execute on the sharded pool, verify against references,
/// cross-check measured budgets, and answer every job.
fn execute_batch(
    g: &Graph,
    scheduler: &dyn Scheduler,
    cfg: &ServeConfig,
    batch: Vec<PendingJob>,
    counters: &Counters,
) {
    if batch.is_empty() {
        return;
    }
    let algos: Vec<Box<dyn crate::BlackBoxAlgorithm>> =
        batch.iter().map(|j| instantiate(&j.spec, g)).collect();
    let problem = DasProblem::new(g, algos, cfg.tape_seed);
    let k = batch.len();

    let run = problem
        .references()
        .map_err(SchedError::from)
        .and_then(|_| {
            let artifact = scheduler.build_sweep_artifact(&problem)?;
            let plan = scheduler.plan_swept(&problem, &artifact, cfg.sched_seed)?;
            let exec_cfg = ExecutorConfig::default()
                .with_shards(cfg.pool_shards.max(1))
                .with_engine(cfg.engine);
            let (outcome, _report) = execute_plan_sharded_with(&problem, &plan, &exec_cfg)?;
            let report = verify::against_references(&problem, &outcome)?;
            Ok((outcome, report))
        });

    match run {
        Err(_) => {
            // the whole batch failed to plan or execute: typed ExecFailed
            // per job, and the daemon keeps serving
            for job in &batch {
                let mut w = ByteWriter::new();
                w.u64(job.spec.job_id);
                w.u8(JobStatus::ExecFailed.to_wire());
                w.u64(0);
                w.u32(k as u32);
                w.u64(0);
                w.u64(0);
                w.u32(0);
                w.u64(0);
                w.u32(0);
                let _ = lock_writer(&job.writer).send(wire::RESULT, &w.buf, "serve (RESULT)");
                counters.failed.fetch_add(1, Ordering::SeqCst);
            }
        }
        Ok((outcome, report)) => {
            let refs = problem.references().expect("references already built");
            for (i, job) in batch.iter().enumerate() {
                // measured budgets from the job's own reference run: the
                // declaration was only trusted for admission
                let measured_dilation = problem.algorithms()[i].rounds();
                let measured_congestion =
                    refs[i].pattern.edge_loads().into_iter().max().unwrap_or(0);
                let lied = measured_dilation > job.spec.declared.dilation
                    || measured_congestion > job.spec.declared.congestion;
                let status = if lied {
                    JobStatus::BudgetMismatch
                } else if report.mismatches[i] > 0 {
                    JobStatus::VerifyFailed
                } else {
                    JobStatus::Ok
                };
                let mut w = ByteWriter::new();
                w.u64(job.spec.job_id);
                w.u8(status.to_wire());
                w.u64(outcome.stats.engine_rounds);
                w.u32(k as u32);
                w.u64(outcome.stats.delivered);
                w.u64(outcome.stats.late_messages);
                w.u32(measured_dilation);
                w.u64(measured_congestion);
                let outputs = &outcome.outputs[i];
                w.u32(outputs.len() as u32);
                for out in outputs {
                    match out {
                        Some(bytes) => {
                            w.u8(1);
                            w.bytes(bytes);
                        }
                        None => w.u8(0),
                    }
                }
                let _ = lock_writer(&job.writer).send(wire::RESULT, &w.buf, "serve (RESULT)");
                if status == JobStatus::Ok {
                    counters.completed.fetch_add(1, Ordering::SeqCst);
                } else {
                    counters.failed.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }
}

// ---------------------------------------------------------------- loadgen

/// Tunables of the deterministic load generator.
#[derive(Clone, Debug)]
pub struct LoadgenConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Jobs each client submits.
    pub jobs_per_client: usize,
    /// Flood depth of every generated job.
    pub depth: u32,
    /// Stream seed: sources are drawn as
    /// `(job_id · 2654435761 + seed) mod n` — the same formula as the CLI
    /// `floods:K:DEPTH` workload, so a one-client stream is the same job
    /// set as a one-shot run with the same seed.
    pub seed: u64,
    /// Re-derive every RESULT's outputs locally (alone run with the
    /// server's advertised tape seed) and count byte mismatches.
    pub check: bool,
    /// When nonzero, every Nth job declares an over-capacity dilation to
    /// exercise the typed rejection path.
    pub reject_every: usize,
    /// Network tunables for the client connections.
    pub net: NetConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 2,
            jobs_per_client: 8,
            depth: 4,
            seed: 42,
            check: false,
            reject_every: 0,
            net: NetConfig::default(),
        }
    }
}

/// What one load-generator run measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LoadgenReport {
    /// Jobs submitted across all clients.
    pub submitted: u64,
    /// Jobs that came back [`JobStatus::Ok`].
    pub completed: u64,
    /// Jobs refused at admission (REJECTED frames).
    pub rejected: u64,
    /// Jobs that came back with any non-Ok status, plus client-side
    /// protocol failures.
    pub failed: u64,
    /// Output byte mismatches found by `check` (0 when `check` is off).
    pub check_mismatches: u64,
    /// Wall-clock of the whole run, in milliseconds.
    pub wall_ms: u64,
    /// Sustained throughput: terminal answers per second.
    pub jobs_per_sec: f64,
    /// Median submit→answer latency, in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency, in milliseconds.
    pub p95_ms: f64,
    /// 99th-percentile latency, in milliseconds.
    pub p99_ms: f64,
    /// Per-job outputs of every [`JobStatus::Ok`] RESULT, as
    /// `(job_id, per-node outputs)`, sorted by job id — for byte-identity
    /// diffs against a one-shot run.
    pub outputs: Vec<(u64, Vec<Option<Vec<u8>>>)>,
}

/// The generated job stream: one entry per `(client, j)` pair. Public so
/// the CLI and tests can reproduce the exact stream a loadgen run
/// submitted.
pub fn loadgen_job(g: &Graph, cfg: &LoadgenConfig, client: usize, j: usize) -> JobSpec {
    let n = g.node_count() as u64;
    let job_id = (client * cfg.jobs_per_client + j) as u64;
    let source = ((job_id.wrapping_mul(2654435761).wrapping_add(cfg.seed)) % n.max(1)) as u32;
    JobSpec {
        job_id,
        kind: JobKind::Flood,
        source,
        depth: cfg.depth,
        declared: Budgets::default(), // filled by the caller
    }
}

/// Measures a job's honest budgets from its alone run.
fn honest_budgets(g: &Graph, spec: &JobSpec, tape_seed: u64) -> Result<Budgets, ExecError> {
    let algo = instantiate(spec, g);
    let run = run_alone(
        g,
        algo.as_ref(),
        das_congest::util::seed_mix(tape_seed, spec.job_id),
    )
    .map_err(|e| ExecError::Net {
        detail: format!("loadgen reference run: {e}"),
    })?;
    Ok(Budgets {
        dilation: algo.rounds(),
        congestion: run.pattern.edge_loads().into_iter().max().unwrap_or(0),
        // both synthetic families carry one u64 per message
        payload_bytes: 8,
    })
}

/// Drives `cfg.clients` concurrent deterministic job streams against a
/// serve daemon at `connect` and measures sustained jobs/sec plus
/// latency quantiles. With `cfg.check`, every Ok RESULT's outputs are
/// re-derived locally (alone run under the server's advertised tape
/// seed) and compared byte-for-byte.
///
/// # Errors
/// Returns [`ExecError`] if any client fails to connect or handshake;
/// per-job failures are counted in the report instead.
pub fn run_loadgen(
    g: &Graph,
    connect: &str,
    cfg: &LoadgenConfig,
) -> Result<LoadgenReport, ExecError> {
    let clients = cfg.clients.max(1);
    let started = Instant::now();
    let results: Vec<Result<ClientOutcome, ExecError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || run_client(g, connect, cfg, c)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ExecError::Net {
                        detail: "loadgen client thread panicked".to_string(),
                    })
                })
            })
            .collect()
    });
    let wall = started.elapsed();
    let mut report = LoadgenReport::default();
    let mut latencies: Vec<f64> = Vec::new();
    for r in results {
        let c = r?;
        report.submitted += c.submitted;
        report.completed += c.completed;
        report.rejected += c.rejected;
        report.failed += c.failed;
        report.check_mismatches += c.check_mismatches;
        latencies.extend(c.latencies_ms);
        report.outputs.extend(c.outputs);
    }
    report.outputs.sort_by_key(|(id, _)| *id);
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let quantile = |q: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        latencies[rank - 1]
    };
    report.p50_ms = quantile(0.50);
    report.p95_ms = quantile(0.95);
    report.p99_ms = quantile(0.99);
    report.wall_ms = wall.as_millis() as u64;
    let answered = report.completed + report.rejected + report.failed;
    report.jobs_per_sec = if wall.as_secs_f64() > 0.0 {
        answered as f64 / wall.as_secs_f64()
    } else {
        0.0
    };
    Ok(report)
}

struct ClientOutcome {
    submitted: u64,
    completed: u64,
    rejected: u64,
    failed: u64,
    check_mismatches: u64,
    latencies_ms: Vec<f64>,
    outputs: Vec<(u64, Vec<Option<Vec<u8>>>)>,
}

fn run_client(
    g: &Graph,
    connect: &str,
    cfg: &LoadgenConfig,
    client: usize,
) -> Result<ClientOutcome, ExecError> {
    let stream = connect_with_retry(connect, &cfg.net)?;
    let mut conn = FramedConn::new(stream, &cfg.net)?;
    let graph_fp = graph_fingerprint(g);

    // HELLO → CAPS
    let mut w = ByteWriter::new();
    w.u32(PROTOCOL_VERSION);
    w.u64(graph_fp);
    conn.send(wire::HELLO, &w.buf, "loadgen handshake (HELLO)")?;
    let (kind, body) = conn.recv("loadgen handshake (CAPS)")?;
    if kind == wire::REJECT {
        return Err(decode_reject(&body)?);
    }
    if kind != wire::CAPS {
        return Err(ExecError::Net {
            detail: format!("expected CAPS, got frame kind {kind}"),
        });
    }
    let mut r = ByteReader::new(&body);
    let _version = r.u32("CAPS version")?;
    let _fp = r.u64("CAPS graph fingerprint")?;
    let tape_seed = r.u64("CAPS tape seed")?;
    let _batch_max = r.u32("CAPS batch max")?;
    let _pool = r.u32("CAPS pool shards")?;
    let cap = Capacity {
        max_dilation: r.u32("CAPS max dilation")?,
        max_congestion: r.u64("CAPS max congestion")?,
        max_payload_bytes: r.u32("CAPS max payload")?,
    };

    // submit the whole stream pipelined, then collect answers
    let mut pending: std::collections::HashMap<u64, Instant> = std::collections::HashMap::new();
    let mut expect_reject: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut out = ClientOutcome {
        submitted: 0,
        completed: 0,
        rejected: 0,
        failed: 0,
        check_mismatches: 0,
        latencies_ms: Vec::new(),
        outputs: Vec::new(),
    };
    for j in 0..cfg.jobs_per_client {
        let mut spec = loadgen_job(g, cfg, client, j);
        spec.declared = honest_budgets(g, &spec, tape_seed)?;
        if cfg.reject_every > 0 && (j + 1) % cfg.reject_every == 0 {
            // deliberately over-declare to exercise the typed rejection
            spec.declared.dilation = cap.max_dilation.saturating_add(1);
            expect_reject.insert(spec.job_id);
        }
        let mut w = ByteWriter::new();
        w.u64(spec.job_id);
        w.u8(spec.kind.to_wire());
        w.u32(spec.source);
        w.u32(spec.depth);
        w.u32(spec.declared.dilation);
        w.u64(spec.declared.congestion);
        w.u32(spec.declared.payload_bytes);
        conn.send(wire::SUBMIT, &w.buf, "loadgen (SUBMIT)")?;
        pending.insert(spec.job_id, Instant::now());
        out.submitted += 1;
    }

    // read until every job has a terminal answer (deadline-bounded by the
    // connection's io timeout per frame)
    while !pending.is_empty() {
        let (kind, body) = conn.recv("loadgen (answers)")?;
        let mut r = ByteReader::new(&body);
        match kind {
            wire::ACCEPTED => {
                let _job_id = r.u64("ACCEPTED job id")?;
                let _queued = r.u64("ACCEPTED queue depth")?;
            }
            wire::REJECTED => {
                let job_id = r.u64("REJECTED job id")?;
                let _code = r.u32("REJECTED code")?;
                if let Some(t) = pending.remove(&job_id) {
                    out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if expect_reject.contains(&job_id) {
                    out.rejected += 1;
                } else {
                    out.failed += 1;
                }
            }
            wire::RESULT => {
                let job_id = r.u64("RESULT job id")?;
                let status = JobStatus::from_wire(r.u8("RESULT status")?);
                let _rounds = r.u64("RESULT schedule rounds")?;
                let _batch_k = r.u32("RESULT batch k")?;
                let _delivered = r.u64("RESULT delivered")?;
                let _late = r.u64("RESULT late")?;
                let _md = r.u32("RESULT measured dilation")?;
                let _mc = r.u64("RESULT measured congestion")?;
                let count = r.u32("RESULT output count")? as usize;
                let mut outputs: Vec<Option<Vec<u8>>> = Vec::with_capacity(count);
                for _ in 0..count {
                    let some = r.u8("RESULT output tag")? != 0;
                    outputs.push(if some {
                        Some(r.bytes("RESULT output")?.to_vec())
                    } else {
                        None
                    });
                }
                if let Some(t) = pending.remove(&job_id) {
                    out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                }
                if status == JobStatus::Ok {
                    out.completed += 1;
                    if cfg.check {
                        out.check_mismatches +=
                            check_outputs(g, cfg, client, job_id, tape_seed, &outputs);
                    }
                    out.outputs.push((job_id, outputs));
                } else {
                    out.failed += 1;
                }
            }
            other => {
                return Err(ExecError::Net {
                    detail: format!("loadgen: unexpected frame kind {other}"),
                })
            }
        }
    }
    Ok(out)
}

/// Re-derives a job's outputs locally and counts byte mismatches against
/// what the server returned — the client-side half of the byte-identity
/// guarantee.
fn check_outputs(
    g: &Graph,
    cfg: &LoadgenConfig,
    client: usize,
    job_id: u64,
    tape_seed: u64,
    got: &[Option<Vec<u8>>],
) -> u64 {
    let j = (job_id as usize).wrapping_sub(client * cfg.jobs_per_client);
    let spec = loadgen_job(g, cfg, client, j);
    debug_assert_eq!(spec.job_id, job_id);
    let algo = instantiate(&spec, g);
    let Ok(reference) = run_alone(
        g,
        algo.as_ref(),
        das_congest::util::seed_mix(tape_seed, job_id),
    ) else {
        return got.len() as u64;
    };
    if reference.outputs.len() != got.len() {
        return got.len() as u64;
    }
    reference
        .outputs
        .iter()
        .zip(got)
        .filter(|(a, b)| a != b)
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(dilation: u32, congestion: u64, payload: u32) -> JobSpec {
        JobSpec {
            job_id: 7,
            kind: JobKind::Flood,
            source: 3,
            depth: 2,
            declared: Budgets {
                dilation,
                congestion,
                payload_bytes: payload,
            },
        }
    }

    #[test]
    fn admission_is_a_pure_budget_comparison() {
        let cap = Capacity {
            max_dilation: 10,
            max_congestion: 20,
            max_payload_bytes: 40,
        };
        assert_eq!(admit(&spec(10, 20, 40), 8, &cap), Ok(()));
        assert_eq!(
            admit(&spec(11, 20, 40), 8, &cap).unwrap_err().code,
            wire::BUDGET_DILATION
        );
        assert_eq!(
            admit(&spec(10, 21, 40), 8, &cap).unwrap_err().code,
            wire::BUDGET_CONGESTION
        );
        assert_eq!(
            admit(&spec(10, 20, 41), 8, &cap).unwrap_err().code,
            wire::BUDGET_PAYLOAD
        );
        // out-of-range source is malformed, not a budget violation
        let mut bad = spec(1, 1, 1);
        bad.source = 99;
        assert_eq!(admit(&bad, 8, &cap).unwrap_err().code, wire::MALFORMED);
        // relays ignore the source field entirely
        bad.kind = JobKind::Relay;
        assert_eq!(admit(&bad, 8, &cap), Ok(()));
    }

    #[test]
    fn job_kind_and_status_round_trip_the_wire() {
        for kind in [JobKind::Flood, JobKind::Relay] {
            assert_eq!(JobKind::from_wire(kind.to_wire()), Some(kind));
        }
        assert_eq!(JobKind::from_wire(9), None);
        for status in [
            JobStatus::Ok,
            JobStatus::VerifyFailed,
            JobStatus::BudgetMismatch,
            JobStatus::ExecFailed,
        ] {
            assert_eq!(JobStatus::from_wire(status.to_wire()), status);
        }
    }

    #[test]
    fn loadgen_stream_matches_the_cli_flood_workload_formula() {
        let g = das_graph::generators::path(16);
        let cfg = LoadgenConfig {
            clients: 1,
            jobs_per_client: 4,
            depth: 3,
            seed: 42,
            ..LoadgenConfig::default()
        };
        for i in 0..4 {
            let spec = loadgen_job(&g, &cfg, 0, i);
            assert_eq!(spec.job_id, i as u64);
            let expected = ((i as u64 * 2654435761 + 42) % 16) as u32;
            assert_eq!(spec.source, expected);
            assert_eq!(spec.depth, 3);
        }
    }
}
