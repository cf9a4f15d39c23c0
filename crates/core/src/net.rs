//! Networked coordinator/worker execution: the sharded executor's
//! big-round barrier promoted to a real network barrier.
//!
//! The in-process sharded executor ([`crate::Executor::run_sharded`])
//! proved that a DAS execution partitions cleanly at big-round boundaries:
//! within a big-round every worker touches only its own nodes and the arcs
//! it owns, and cross-shard messages move exactly once per big-round. This
//! module runs the same protocol over TCP, one OS process per shard:
//!
//! * The **coordinator** owns the plan. It accepts one connection per
//!   shard, handshakes (protocol version + problem fingerprint), ships each
//!   worker its slice of the [`SchedulePlan`] (guarded by a slice hash next
//!   to the full-plan hash) plus the shard assignment, then relays
//!   cross-shard outboxes at every big-round boundary and collects the
//!   per-shard outcomes at the end. Stragglers that JOIN after every slot
//!   is assigned are turned away with a typed REJECT
//!   ([`ExecError::LateJoin`]).
//! * A **worker** builds the identical problem locally (same graph,
//!   workload, and tape seed — enforced by the fingerprint), recomputes the
//!   same degree-balanced [`Partition`], and runs the engine core's
//!   big-round loop (the one every execution uses) through a framed-TCP
//!   boundary exchange: the three in-process barriers become two framed
//!   round-trips (OUTBOX → INBOX, ACTIVITY → DECISION), and a round cap
//!   becomes an ERROR frame.
//!
//! ## The network-barrier invariant
//!
//! Byte-identity of the [`ScheduleOutcome`] extends verbatim from the
//! threaded path because the wire protocol preserves exactly the state the
//! in-process barriers preserve — and nothing else crosses a shard
//! boundary:
//!
//! * each worker steps its nodes in the same global `(algorithm, node,
//!   round)` order the fused executor uses, so per-arc push order within a
//!   big-round is the sequential order (every arc has a unique source
//!   node, owned by exactly one worker);
//! * the coordinator routes each destination's INBOX by **ascending source
//!   shard**, each group in send order — the exact merge order of the
//!   in-process outbox sweep (`for src in 0..s`);
//! * lateness checks read only the destination worker's own `steps_done`,
//!   which never crosses the wire;
//! * a flight crosses the wire as `(arc, algo, round, payload)` only —
//!   its endpoints come from the worker's own arc table — and a worker
//!   rejects a flight on an arc it does not own, for an unknown
//!   algorithm, or tagged past its algorithm's last round with a typed
//!   [`ExecError::Net`];
//! * the termination decision is computed from the same `(big_round,
//!   any_active)` pair the in-process 3-barrier protocol agrees on.
//!
//! ## Robustness
//!
//! Every blocking wait is deadline-bounded ([`NetConfig::io_timeout_ms`]):
//! a dead peer surfaces as a typed [`ExecError`] — never a hang. Worker
//! connects retry with bounded backoff; frames carry a length prefix
//! checked against [`NetConfig::max_frame_bytes`]; a coordinator Ctrl-C
//! (see [`install_ctrl_c`]) aborts all workers gracefully, and a second
//! Ctrl-C aborts the process.

use crate::exec::{
    merge, run_shard, BoundaryExchange, ExecError, ExecStats, ExecutorConfig, FlatSteps,
    ShardOutput, ShardReport, ShardSpec, ShardStats,
};
use crate::plan::{SchedError, SchedulePlan};
use crate::problem::DasProblem;
use crate::schedule::ScheduleOutcome;
use crate::shard::Partition;
use das_graph::NodeId;
use das_obs::ExecObs;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Version of the wire protocol. A coordinator rejects workers announcing
/// any other version with [`ExecError::VersionMismatch`].
///
/// v2: ASSIGN ships a per-shard plan *slice* (guarded by its own hash next
/// to the full-plan hash) instead of the full plan, late JOINs get a typed
/// REJECT, and the serve-path frames (HELLO/CAPS/SUBMIT/…) exist.
///
/// v3: a flight is `(arc, algo, round, payload)` — no `dst`/`from`, which
/// the receiver derives from the arc — and DONE carries departures as flat
/// `(algo, round, arc, engine_round)` tuples.
pub const PROTOCOL_VERSION: u32 = 3;

/// Frame kinds of the wire protocol (the byte after the length prefix).
/// Public so integration tests can speak the protocol against real
/// endpoints without linking crate internals.
pub mod wire {
    /// worker → coordinator: `version: u32, problem_fingerprint: u64`.
    pub const JOIN: u8 = 1;
    /// coordinator → worker: `shard: u32, shards: u32, plan_hash: u64
    /// (full plan), slice_hash: u64, slice_json: bytes, of_node: u32
    /// list`. The slice is the full plan restricted to the shard's nodes
    /// ([`crate::SchedulePlan::slice_for_shard`]).
    pub const ASSIGN: u8 = 2;
    /// coordinator → worker: `code: u32, ours: u64, theirs: u64` — the
    /// handshake failed; decodes to a typed error worker-side.
    pub const REJECT: u8 = 3;
    /// worker → coordinator: `big_round: u64, groups: u32`, then per
    /// destination shard `shard: u32, count: u32` and that many flights
    /// `arc: u32, algo: u32, round: u32, payload: bytes`, staged during
    /// the step phase.
    pub const OUTBOX: u8 = 4;
    /// coordinator → worker: `big_round: u64, count: u32`, then the
    /// flights bound for this shard (encoded as in OUTBOX), pre-merged in
    /// ascending source-shard order.
    pub const INBOX: u8 = 5;
    /// worker → coordinator: `big_round: u64, active: u8` — whether this
    /// shard still holds undrained arcs after the drain phase — then the
    /// shard's cumulative `steps, delivered, late, cross_sent: u64`.
    pub const ACTIVITY: u8 = 6;
    /// coordinator → worker: `big_round: u64, done: u8` — the agreed
    /// termination decision for this big-round.
    pub const DECISION: u8 = 7;
    /// worker → coordinator: stats, outputs (`tag: u8 [, bytes]` per
    /// owned node per algorithm), and departures (`count: u64`, then
    /// `algo, round, arc, engine_round: u32` each) of the finished shard.
    pub const DONE: u8 = 8;
    /// worker → coordinator: `cap: u64, big_round: u64` — the engine
    /// round cap fired (all workers hit it in lockstep).
    pub const ERROR: u8 = 9;
    /// coordinator → worker: `reason: bytes` — stand down; the run is
    /// being torn down.
    pub const ABORT: u8 = 10;

    /// client → server: `job_id: u64, kind: u8, source: u32, depth: u32,
    /// declared_dilation: u32, declared_congestion: u64,
    /// declared_payload: u32` — submit one job with its declared budgets.
    pub const SUBMIT: u8 = 11;
    /// server → client: `job_id: u64, queued: u64` — the job passed
    /// admission and is queued for the next batch.
    pub const ACCEPTED: u8 = 12;
    /// server → client: `job_id: u64, code: u32, declared: u64,
    /// capacity: u64` — admission refused the job; `code` names the
    /// violated budget (`BUDGET_*`) or `MALFORMED`.
    pub const REJECTED: u8 = 13;
    /// server → client: `job_id: u64, status: u8, schedule_rounds: u64,
    /// batch_k: u32, delivered: u64, late: u64, measured_dilation: u32,
    /// measured_congestion: u64, outputs: u32 count + per node
    /// `tag: u8 [, bytes]`` — the job's outcome after batch execution.
    pub const RESULT: u8 = 14;
    /// client → server: `version: u32, graph_fingerprint: u64` — the
    /// serve-path handshake (the client has no problem yet, only a graph).
    pub const HELLO: u8 = 15;
    /// server → client: `version: u32, graph_fingerprint: u64,
    /// tape_seed: u64, batch_max: u32, pool_shards: u32,
    /// max_dilation: u32, max_congestion: u64, max_payload: u32` — the
    /// server's advertised capacity, in reply to HELLO.
    pub const CAPS: u8 = 16;

    /// REJECT code: protocol version mismatch.
    pub const REJECT_VERSION: u32 = 1;
    /// REJECT code: problem fingerprint mismatch.
    pub const REJECT_PROBLEM: u32 = 2;
    /// REJECT code: the worker JOINed after every shard slot was assigned.
    pub const REJECT_FULL: u32 = 3;

    /// REJECTED code: declared dilation exceeds the advertised capacity.
    pub const BUDGET_DILATION: u32 = 1;
    /// REJECTED code: declared congestion exceeds the advertised capacity.
    pub const BUDGET_CONGESTION: u32 = 2;
    /// REJECTED code: declared payload exceeds the advertised capacity.
    pub const BUDGET_PAYLOAD: u32 = 3;
    /// REJECTED code: the SUBMIT body itself was malformed (unknown job
    /// kind, out-of-range source node).
    pub const MALFORMED: u32 = 4;
}

// ---------------------------------------------------------------- hashing

/// FNV-1a 64-bit hash, used for the plan hash and problem fingerprint.
/// Stable across platforms and dependency-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The hash shipped in the ASSIGN frame: FNV-1a over the plan's canonical
/// JSON bytes. Workers recompute it over the received bytes and refuse a
/// mismatch with [`ExecError::PlanHashMismatch`].
pub fn plan_hash(plan: &SchedulePlan) -> u64 {
    fnv1a(plan.to_json().as_bytes())
}

/// A structural fingerprint of the problem: node count, edge list, tape
/// seed, and per-algorithm `(aid, rounds)`. Coordinator and workers build
/// their problems independently from identical CLI flags; the fingerprint
/// catches a divergence (different graph, workload, or seed) at handshake
/// time instead of as silent wrong outputs.
pub fn problem_fingerprint(problem: &DasProblem<'_>) -> u64 {
    let g = problem.graph();
    let mut w = ByteWriter::new();
    w.u64(g.node_count() as u64);
    for e in g.edges() {
        let (a, b) = g.endpoints(e);
        w.u32(a.0);
        w.u32(b.0);
    }
    w.u64(problem.tape_seed());
    w.u64(problem.k() as u64);
    for a in problem.algorithms() {
        w.u64(a.aid().0);
        w.u32(a.rounds());
    }
    fnv1a(&w.buf)
}

/// A structural fingerprint of just the graph (node count + edge list):
/// the serve-path analogue of [`problem_fingerprint`]. A serve client has
/// no [`DasProblem`] yet — jobs arrive later — so the HELLO/CAPS handshake
/// checks only that both sides were launched on the same graph spec.
pub fn graph_fingerprint(g: &das_graph::Graph) -> u64 {
    let mut w = ByteWriter::new();
    w.u64(g.node_count() as u64);
    for e in g.edges() {
        let (a, b) = g.endpoints(e);
        w.u32(a.0);
        w.u32(b.0);
    }
    fnv1a(&w.buf)
}

// ---------------------------------------------------------------- codec

/// Little-endian append-only encoder for frame bodies.
pub(crate) struct ByteWriter {
    pub(crate) buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Length-prefixed byte string.
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

/// Little-endian cursor over a received frame body. Every read is
/// bounds-checked; a short body decodes to [`ExecError::TruncatedFrame`].
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn truncated(&self, what: &str) -> ExecError {
        ExecError::TruncatedFrame {
            detail: format!("body ended while decoding {what}"),
        }
    }

    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], ExecError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(self.truncated(what)),
        }
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, ExecError> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, ExecError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, ExecError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn bytes(&mut self, what: &str) -> Result<&'a [u8], ExecError> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }
}

// ---------------------------------------------------------------- config

/// Tunables of the networked path. Every blocking wait uses
/// `io_timeout_ms`, so no failure mode can hang either side.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Deadline for each blocking network wait (accept, read, write), in
    /// milliseconds. Also bounds the coordinator's wait for all workers to
    /// connect.
    pub io_timeout_ms: u64,
    /// How many times a worker retries its initial connect before giving
    /// up with [`ExecError::NetTimeout`].
    pub connect_retries: u32,
    /// Sleep between connect attempts, in milliseconds.
    pub connect_backoff_ms: u64,
    /// Upper bound on a single frame body; larger length prefixes are
    /// rejected before any allocation ([`ExecError::Net`]).
    pub max_frame_bytes: usize,
    /// Cooperative-shutdown flag: when set (e.g. by [`install_ctrl_c`]),
    /// the coordinator aborts all workers at the next protocol boundary
    /// and returns [`ExecError::Aborted`].
    pub stop: Option<Arc<AtomicBool>>,
    /// Optional live hub (coordinator side): per-worker cumulative totals
    /// piggybacked on `ACTIVITY` frames and per-link traffic snapshots are
    /// published into it every big-round. Publication is write-only and
    /// never adds frames or blocks the protocol, so the outcome is
    /// byte-identical with or without a hub attached.
    pub live: Option<Arc<das_obs::LiveHub>>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            io_timeout_ms: 30_000,
            connect_retries: 40,
            connect_backoff_ms: 250,
            max_frame_bytes: 64 << 20,
            stop: None,
            live: None,
        }
    }
}

impl NetConfig {
    /// Sets the per-wait deadline in milliseconds (clamped to ≥ 1).
    pub fn with_io_timeout_ms(mut self, ms: u64) -> Self {
        self.io_timeout_ms = ms.max(1);
        self
    }

    /// Attaches a cooperative-shutdown flag.
    pub fn with_stop(mut self, stop: Arc<AtomicBool>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Attaches a live hub for coordinator-side telemetry publication.
    #[must_use]
    pub fn with_live(mut self, live: Option<Arc<das_obs::LiveHub>>) -> Self {
        self.live = live;
        self
    }

    fn io_timeout(&self) -> Duration {
        Duration::from_millis(self.io_timeout_ms.max(1))
    }

    pub(crate) fn stopped(&self) -> bool {
        self.stop.as_ref().is_some_and(|s| s.load(Ordering::SeqCst))
    }
}

/// Per-connection traffic counters (counted on the side that holds the
/// connection; frame = length prefix + kind + body).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Frames written to the peer.
    pub frames_sent: u64,
    /// Frames read from the peer.
    pub frames_received: u64,
    /// Bytes written, including frame headers.
    pub bytes_sent: u64,
    /// Bytes read, including frame headers.
    pub bytes_received: u64,
}

/// What a networked execution reports beyond the (partition-independent)
/// [`ScheduleOutcome`]: the merged [`ShardReport`] plus coordinator-side
/// per-worker traffic, in shard order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NetReport {
    /// The merged per-shard report, exactly as the in-process sharded
    /// executor returns it.
    pub shard: ShardReport,
    /// Coordinator-side traffic per worker connection, in shard order
    /// (`bytes_sent` = coordinator → worker).
    pub traffic: Vec<LinkTraffic>,
}

/// What [`run_worker`] reports once its shard completes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerOutcome {
    /// The shard this worker was assigned.
    pub shard: usize,
    /// Total shards in the run.
    pub shards: usize,
    /// Machine steps this worker executed.
    pub steps: u64,
    /// Messages delivered on arcs this worker owned.
    pub delivered: u64,
    /// Messages this worker sent to other shards.
    pub cross_sent: u64,
    /// Big-rounds executed (identical on every worker).
    pub big_rounds: u64,
    /// Worker-side traffic counters for the coordinator link.
    pub traffic: LinkTraffic,
}

// ---------------------------------------------------------------- framing

const FRAME_HEADER: usize = 5; // u32 body length + u8 kind

/// One framed, deadline-bounded, traffic-counted TCP connection.
pub(crate) struct FramedConn {
    stream: TcpStream,
    traffic: LinkTraffic,
    timeout: Duration,
    max_frame: usize,
}

impl FramedConn {
    pub(crate) fn new(stream: TcpStream, net: &NetConfig) -> Result<Self, ExecError> {
        let timeout = net.io_timeout();
        stream.set_nodelay(true).map_err(|e| ExecError::Net {
            detail: format!("set_nodelay: {e}"),
        })?;
        stream
            .set_read_timeout(Some(timeout))
            .and_then(|()| stream.set_write_timeout(Some(timeout)))
            .map_err(|e| ExecError::Net {
                detail: format!("set timeouts: {e}"),
            })?;
        Ok(FramedConn {
            stream,
            traffic: LinkTraffic::default(),
            timeout,
            max_frame: net.max_frame_bytes,
        })
    }

    fn io_error(&self, e: std::io::Error, during: &str) -> ExecError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                ExecError::NetTimeout {
                    during: during.to_string(),
                    ms: self.timeout.as_millis() as u64,
                }
            }
            std::io::ErrorKind::UnexpectedEof => ExecError::TruncatedFrame {
                detail: format!("stream ended mid-frame during {during}"),
            },
            _ => ExecError::Net {
                detail: format!("{during}: {e}"),
            },
        }
    }

    /// Waits up to `wait` for the next frame to start arriving, without
    /// consuming anything: `Ok(true)` means bytes are ready (or the peer
    /// closed — the following [`FramedConn::recv`] will classify that),
    /// `Ok(false)` means the deadline passed quietly. The connection's
    /// configured read timeout is restored before returning, so this
    /// composes with `recv` to make a long idle wait interruptible.
    pub(crate) fn poll_readable(&mut self, wait: Duration) -> Result<bool, ExecError> {
        self.stream
            .set_read_timeout(Some(wait.max(Duration::from_millis(1))))
            .map_err(|e| ExecError::Net {
                detail: format!("set poll timeout: {e}"),
            })?;
        let mut probe = [0u8; 1];
        let ready = match self.stream.peek(&mut probe) {
            Ok(_) => Ok(true),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(e) => Err(ExecError::Net {
                detail: format!("poll: {e}"),
            }),
        };
        self.stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| ExecError::Net {
                detail: format!("restore timeout: {e}"),
            })?;
        ready
    }

    /// Writes one frame: `[u32 LE body len][u8 kind][body]`.
    pub(crate) fn send(&mut self, kind: u8, body: &[u8], during: &str) -> Result<(), ExecError> {
        let mut header = [0u8; FRAME_HEADER];
        header[..4].copy_from_slice(&(body.len() as u32).to_le_bytes());
        header[4] = kind;
        self.stream
            .write_all(&header)
            .and_then(|()| self.stream.write_all(body))
            .and_then(|()| self.stream.flush())
            .map_err(|e| self.io_error(e, during))?;
        self.traffic.frames_sent += 1;
        self.traffic.bytes_sent += (FRAME_HEADER + body.len()) as u64;
        Ok(())
    }

    /// Reads one frame. A clean close at a frame boundary reads as a
    /// connection close ([`ExecError::Net`], upgraded to
    /// [`ExecError::WorkerDisconnected`] by the coordinator); a close
    /// mid-frame reads as [`ExecError::TruncatedFrame`].
    pub(crate) fn recv(&mut self, during: &str) -> Result<(u8, Vec<u8>), ExecError> {
        let mut header = [0u8; FRAME_HEADER];
        let mut filled = 0;
        while filled < FRAME_HEADER {
            match self.stream.read(&mut header[filled..]) {
                Ok(0) => {
                    return Err(if filled == 0 {
                        ExecError::Net {
                            detail: format!("connection closed by peer during {during}"),
                        }
                    } else {
                        ExecError::TruncatedFrame {
                            detail: format!("stream ended mid-header during {during}"),
                        }
                    });
                }
                Ok(got) => filled += got,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(self.io_error(e, during)),
            }
        }
        let len = u32::from_le_bytes(header[..4].try_into().expect("4 bytes")) as usize;
        let kind = header[4];
        if len > self.max_frame {
            return Err(ExecError::Net {
                detail: format!(
                    "frame of {len} bytes exceeds the {} byte limit during {during}",
                    self.max_frame
                ),
            });
        }
        let mut body = vec![0u8; len];
        self.stream
            .read_exact(&mut body)
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => ExecError::TruncatedFrame {
                    detail: format!("stream ended mid-body during {during}"),
                },
                _ => self.io_error(e, during),
            })?;
        self.traffic.frames_received += 1;
        self.traffic.bytes_received += (FRAME_HEADER + len) as u64;
        Ok((kind, body))
    }
}

/// Upgrades connection-level failures on an established worker link to
/// [`ExecError::WorkerDisconnected`] (a killed worker closes its socket);
/// protocol-level and timeout errors pass through unchanged.
fn for_worker(e: ExecError, shard: usize) -> ExecError {
    match e {
        ExecError::Net { detail } | ExecError::TruncatedFrame { detail } => {
            ExecError::WorkerDisconnected { shard, detail }
        }
        other => other,
    }
}

// ---------------------------------------------------------------- Ctrl-C

static CTRL_C: OnceLock<Arc<AtomicBool>> = OnceLock::new();

#[cfg(unix)]
extern "C" fn on_sigint(_sig: i32) {
    // async-signal-safe: atomic loads/stores and abort only
    if let Some(flag) = CTRL_C.get() {
        if flag.swap(true, Ordering::SeqCst) {
            // second Ctrl-C: the user wants out *now*
            std::process::abort();
        }
    }
}

/// Installs a SIGINT handler (Unix; a no-op flag elsewhere) and returns
/// the flag it sets. Wire the flag into [`NetConfig::with_stop`]: the
/// first Ctrl-C makes the coordinator abort all workers gracefully at the
/// next protocol boundary; a second Ctrl-C aborts the process.
pub fn install_ctrl_c() -> Arc<AtomicBool> {
    let flag = CTRL_C
        .get_or_init(|| Arc::new(AtomicBool::new(false)))
        .clone();
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    }
    flag
}

// ---------------------------------------------------------------- coordinator

/// Executes a plan over networked workers: the networked analogue of
/// [`crate::execute_plan_sharded`], with byte-identical
/// [`ScheduleOutcome`].
///
/// The coordinator waits (deadline-bounded) for one connection per shard
/// on `listener` — `workers` is clamped to the node count exactly as the
/// in-process partition clamps shards — then drives the big-round relay
/// until every shard reports done.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the plan fails validation, or
/// [`SchedError::Exec`] with a typed [`ExecError`]: the usual
/// [`ExecError::RoundCapExceeded`] (propagated from workers in lockstep),
/// or a network failure — worker disconnect, truncated frame, handshake
/// mismatch, deadline expiry, abort.
pub fn execute_plan_networked(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, NetReport), SchedError> {
    plan.validate(problem)?;
    let (mut outcome, report) = run_coordinator(problem, plan, workers, listener, net)?;
    outcome.precompute_rounds = plan.precompute_rounds;
    Ok((outcome, report))
}

fn run_coordinator(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    workers: usize,
    listener: TcpListener,
    net: &NetConfig,
) -> Result<(ScheduleOutcome, NetReport), ExecError> {
    if workers == 0 {
        return Err(ExecError::Net {
            detail: "a networked run needs at least one worker".to_string(),
        });
    }
    let g = problem.graph();
    let part = Partition::degree_balanced(g, workers);
    let s = part.shards();
    let mut conns = accept_workers(problem, plan, &part, &listener, net)?;
    // Keep listening for the rest of the run: a worker that JOINs after
    // every slot is assigned gets a typed REJECT_FULL instead of a
    // connection-refused (late-JOIN doorman).
    let doorman_stop = Arc::new(AtomicBool::new(false));
    let doorman = spawn_doorman(listener, s, net.clone(), doorman_stop.clone());
    let result = coordinator_protocol(problem, plan, &part, &mut conns, net);
    if let Err(ref e) = result {
        // best-effort teardown so surviving workers fail fast with a
        // typed Aborted instead of waiting out their own deadlines
        let mut w = ByteWriter::new();
        w.bytes(e.to_string().as_bytes());
        for c in conns.iter_mut() {
            let _ = c.send(wire::ABORT, &w.buf, "abort broadcast");
        }
    }
    doorman_stop.store(true, Ordering::SeqCst);
    // the doorman parks between polls; wake it so the join is immediate
    doorman.thread().unpark();
    let _ = doorman.join();
    let outcome = result?;
    let traffic: Vec<LinkTraffic> = conns.iter().map(|c| c.traffic.clone()).collect();
    debug_assert_eq!(traffic.len(), s);
    if let Some(hub) = &net.live {
        // final authoritative snapshot: includes the DECISION and DONE
        // frames the mid-run barrier snapshots have not seen yet
        hub.publish_links(
            traffic
                .iter()
                .enumerate()
                .map(|(shard, t)| das_obs::LinkLive {
                    shard,
                    frames_sent: t.frames_sent,
                    bytes_sent: t.bytes_sent,
                    frames_received: t.frames_received,
                    bytes_received: t.bytes_received,
                })
                .collect(),
        );
    }
    let (outcome, shard) = outcome;
    Ok((outcome, NetReport { shard, traffic }))
}

/// First and last sleep of [`accept_workers`]' poll while no worker is
/// pending.
const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(20);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(10);

/// Accepts and handshakes one connection per shard, in shard order. The
/// listener is polled non-blocking under the configured deadline so a
/// stop request (Ctrl-C) or a missing worker can never hang the accept
/// loop.
fn accept_workers(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    part: &Partition,
    listener: &TcpListener,
    net: &NetConfig,
) -> Result<Vec<FramedConn>, ExecError> {
    let s = part.shards();
    let fingerprint = problem_fingerprint(problem);
    let plan_hash = plan_hash(plan);
    listener.set_nonblocking(true).map_err(|e| ExecError::Net {
        detail: format!("set_nonblocking: {e}"),
    })?;
    let deadline = Instant::now() + net.io_timeout();
    let mut conns: Vec<FramedConn> = Vec::with_capacity(s);
    // Workers that are already on their way (in-process threads, local
    // processes) connect within microseconds, so the poll starts short and
    // backs off: a fixed 10 ms sleep would add a random 0–10 ms to a run.
    let mut backoff = ACCEPT_BACKOFF_MIN;
    while conns.len() < s {
        if net.stopped() {
            return Err(ExecError::Aborted {
                detail: "interrupted while waiting for workers".to_string(),
            });
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                stream.set_nonblocking(false).map_err(|e| ExecError::Net {
                    detail: format!("set_blocking: {e}"),
                })?;
                let shard = conns.len();
                let mut conn = FramedConn::new(stream, net)?;
                // each worker gets only its own slice of the plan: O(plan/s)
                // on the wire instead of O(plan) per worker
                let slice_json = plan.slice_for_shard(part.of_node(), shard as u32).to_json();
                handshake_worker(
                    &mut conn,
                    shard,
                    s,
                    fingerprint,
                    plan_hash,
                    &slice_json,
                    part,
                )?;
                conns.push(conn);
                backoff = ACCEPT_BACKOFF_MIN;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() >= deadline {
                    return Err(ExecError::NetTimeout {
                        during: format!(
                            "waiting for workers to connect ({} of {s} joined)",
                            conns.len()
                        ),
                        ms: net.io_timeout_ms,
                    });
                }
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
            }
            Err(e) => {
                return Err(ExecError::Net {
                    detail: format!("accept: {e}"),
                })
            }
        }
    }
    Ok(conns)
}

/// Owns the listener for the rest of the run and turns stragglers away:
/// any connection accepted after all shard slots are assigned gets its one
/// frame read (best-effort) and a `REJECT_FULL` reply, which workers
/// decode to [`ExecError::LateJoin`]. The thread polls non-blocking (the
/// listener already is), parking between polls, and exits as soon as
/// `stop` is set and the thread is unparked.
fn spawn_doorman(
    listener: TcpListener,
    shards: usize,
    net: NetConfig,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _addr)) => {
                    if stream.set_nonblocking(false).is_err() {
                        continue;
                    }
                    let Ok(mut conn) = FramedConn::new(stream, &net) else {
                        continue;
                    };
                    // read the straggler's JOIN so its REJECT is not lost
                    // in a half-open race; content does not matter
                    let _ = conn.recv("doorman (late JOIN)");
                    let mut w = ByteWriter::new();
                    w.u32(wire::REJECT_FULL);
                    w.u64(shards as u64);
                    w.u64(shards as u64);
                    let _ = conn.send(wire::REJECT, &w.buf, "doorman (REJECT)");
                }
                Err(_) => std::thread::park_timeout(Duration::from_millis(10)),
            }
        }
    })
}

/// Reads one JOIN, verifies it, and replies with ASSIGN (or REJECT plus a
/// typed error on mismatch). The ASSIGN carries the worker's plan slice
/// and both hashes: the slice hash guards the shipped bytes, the full-plan
/// hash pins the run identity across all workers.
fn handshake_worker(
    conn: &mut FramedConn,
    shard: usize,
    shards: usize,
    fingerprint: u64,
    plan_hash: u64,
    slice_json: &str,
    part: &Partition,
) -> Result<(), ExecError> {
    let (kind, body) = conn.recv("handshake (JOIN)")?;
    if kind != wire::JOIN {
        return Err(ExecError::Net {
            detail: format!("expected JOIN, got frame kind {kind}"),
        });
    }
    let mut r = ByteReader::new(&body);
    let version = r.u32("JOIN version")?;
    let worker_fp = r.u64("JOIN fingerprint")?;
    if version != PROTOCOL_VERSION {
        let mut w = ByteWriter::new();
        w.u32(wire::REJECT_VERSION);
        w.u64(PROTOCOL_VERSION as u64);
        w.u64(version as u64);
        let _ = conn.send(wire::REJECT, &w.buf, "handshake (REJECT)");
        return Err(ExecError::VersionMismatch {
            coordinator: PROTOCOL_VERSION,
            worker: version,
        });
    }
    if worker_fp != fingerprint {
        let mut w = ByteWriter::new();
        w.u32(wire::REJECT_PROBLEM);
        w.u64(fingerprint);
        w.u64(worker_fp);
        let _ = conn.send(wire::REJECT, &w.buf, "handshake (REJECT)");
        return Err(ExecError::ProblemMismatch {
            coordinator: fingerprint,
            worker: worker_fp,
        });
    }
    let mut w = ByteWriter::new();
    w.u32(shard as u32);
    w.u32(shards as u32);
    w.u64(plan_hash);
    w.u64(fnv1a(slice_json.as_bytes()));
    w.bytes(slice_json.as_bytes());
    w.u32(part.of_node().len() as u32);
    for &owner in part.of_node() {
        w.u32(owner);
    }
    conn.send(wire::ASSIGN, &w.buf, "handshake (ASSIGN)")
        .map_err(|e| for_worker(e, shard))
}

/// The coordinator's relay loop plus the final merge. Mirrors
/// [`crate::Executor::run_sharded`]'s merge exactly — the outcome is
/// byte-identical.
fn coordinator_protocol(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    part: &Partition,
    conns: &mut [FramedConn],
    net: &NetConfig,
) -> Result<(ScheduleOutcome, ShardReport), ExecError> {
    let n = problem.graph().node_count();
    let k = problem.k();
    let s = part.shards();
    let phase_len = plan.phase_len.max(1);
    let last_step_round =
        FlatSteps::last_big_round(n, problem.algorithms(), &plan.units).unwrap_or(0);

    let mut b: u64 = 0;
    loop {
        if net.stopped() {
            return Err(ExecError::Aborted {
                detail: format!("interrupted at big-round {b}"),
            });
        }
        // 1. Collect OUTBOX from every worker in ascending shard order and
        // append each group to its destination's INBOX. Reading sources in
        // ascending order reproduces the in-process merge order: per
        // destination, sources ascend and each group keeps its push order.
        let mut routed_bodies: Vec<Vec<u8>> = vec![Vec::new(); s];
        let mut routed_counts: Vec<u32> = vec![0; s];
        for (src, conn) in conns.iter_mut().enumerate() {
            let body = recv_from(conn, src, wire::OUTBOX, "OUTBOX", Some(b))?;
            let mut r = ByteReader::new(&body);
            r.u64("OUTBOX big-round")?;
            let groups = r.u32("OUTBOX group count")?;
            for _ in 0..groups {
                let dst = r.u32("OUTBOX group shard")? as usize;
                if dst >= s || dst == src {
                    return Err(ExecError::Net {
                        detail: format!("shard {src} routed a group to invalid shard {dst}"),
                    });
                }
                let count = r.u32("OUTBOX group size")?;
                let start = r.pos;
                for _ in 0..count {
                    skip_flight(&mut r)?;
                }
                routed_bodies[dst].extend_from_slice(&body[start..r.pos]);
                routed_counts[dst] += count;
            }
        }
        // 2. Ship each destination its merged INBOX.
        for dst in 0..s {
            let mut w = ByteWriter::new();
            w.u64(b);
            w.u32(routed_counts[dst]);
            w.buf.extend_from_slice(&routed_bodies[dst]);
            conns[dst]
                .send(wire::INBOX, &w.buf, "shipping inboxes")
                .map_err(|e| for_worker(e, dst))?;
        }
        // 3. Collect post-drain activity.
        let mut any_active = false;
        for (src, conn) in conns.iter_mut().enumerate() {
            let body = recv_from(conn, src, wire::ACTIVITY, "ACTIVITY", Some(b))?;
            let mut r = ByteReader::new(&body);
            r.u64("ACTIVITY big-round")?;
            any_active |= r.u8("ACTIVITY flag")? != 0;
            let steps = r.u64("ACTIVITY steps")?;
            let delivered = r.u64("ACTIVITY delivered")?;
            let late = r.u64("ACTIVITY late")?;
            let cross = r.u64("ACTIVITY cross-sent")?;
            if let Some(hub) = &net.live {
                hub.publish_worker_totals(src as u32, b, steps, delivered, late, cross);
            }
        }
        if let Some(hub) = &net.live {
            hub.publish_links(
                conns
                    .iter()
                    .enumerate()
                    .map(|(shard, c)| das_obs::LinkLive {
                        shard,
                        frames_sent: c.traffic.frames_sent,
                        bytes_sent: c.traffic.bytes_sent,
                        frames_received: c.traffic.frames_received,
                        bytes_received: c.traffic.bytes_received,
                    })
                    .collect(),
            );
        }
        // 4. Broadcast the termination decision — the same predicate the
        // in-process path evaluates after its post-increment (`b + 1` here
        // is the worker's incremented big-round counter).
        let done = b + 1 > last_step_round && !any_active;
        let mut w = ByteWriter::new();
        w.u64(b);
        w.u8(done as u8);
        for (dst, conn) in conns.iter_mut().enumerate() {
            conn.send(wire::DECISION, &w.buf, "broadcasting decision")
                .map_err(|e| for_worker(e, dst))?;
        }
        b += 1;
        if done {
            break;
        }
    }

    // Collect DONE frames and merge in shard order, exactly as the
    // in-process sharded run merges its shards.
    let mut parts = Vec::with_capacity(s);
    for (src, conn) in conns.iter_mut().enumerate() {
        let body = recv_from(conn, src, wire::DONE, "DONE", None)?;
        parts.push(decode_done(&body, k, part.nodes_of(src))?);
    }
    Ok(merge(n, k, phase_len, last_step_round, true, parts))
}

/// Receives shard `src`'s next frame, which must be `kind` (named `name`)
/// and, with `round`, be for that big-round. An ERROR frame instead
/// decodes to the round cap the worker hit.
fn recv_from(
    conn: &mut FramedConn,
    src: usize,
    kind: u8,
    name: &str,
    round: Option<u64>,
) -> Result<Vec<u8>, ExecError> {
    let (got, body) = conn
        .recv(&format!("collecting {name}"))
        .map_err(|e| for_worker(e, src))?;
    if got == wire::ERROR {
        return Err(decode_worker_error(&body)?);
    }
    if got != kind {
        return Err(ExecError::Net {
            detail: format!("expected {name} from shard {src}, got kind {got}"),
        });
    }
    if let Some(b) = round {
        let sent = ByteReader::new(&body).u64(&format!("{name} big-round"))?;
        if sent != b {
            return Err(ExecError::Net {
                detail: format!("shard {src} sent {name} for big-round {sent}, expected {b}"),
            });
        }
    }
    Ok(body)
}

/// Advances a reader past one encoded flight.
fn skip_flight(r: &mut ByteReader<'_>) -> Result<(), ExecError> {
    r.u32("flight arc")?;
    r.u32("flight algo")?;
    r.u32("flight round")?;
    r.bytes("flight payload")?;
    Ok(())
}

/// Decodes an ERROR frame into the [`ExecError`] the worker hit — today
/// always the round cap, which every worker reaches in lockstep.
fn decode_worker_error(body: &[u8]) -> Result<ExecError, ExecError> {
    let mut r = ByteReader::new(body);
    let cap = r.u64("ERROR cap")?;
    let big_round = r.u64("ERROR big-round")?;
    Ok(ExecError::RoundCapExceeded { cap, big_round })
}

/// Encodes a finished shard's DONE body; [`decode_done`] is its inverse.
fn encode_done(out: &ShardOutput) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(out.big_rounds);
    w.u64(out.last_activity_round);
    w.u64(out.stats.delivered);
    w.u64(out.stats.late_messages);
    w.u64(out.stats.invalid_sends);
    w.u64(out.stats.max_arc_queue as u64);
    let sh = &out.shard;
    for x in [sh.shard as u64, sh.nodes as u64, sh.degree as u64] {
        w.u64(x);
    }
    for x in [
        sh.steps,
        sh.delivered,
        sh.cross_sent,
        sh.step_nanos,
        sh.drain_nanos,
    ] {
        w.u64(x);
    }
    for output in out.outputs.iter().flatten() {
        match output {
            Some(bytes) => {
                w.u8(1);
                w.bytes(bytes);
            }
            None => w.u8(0),
        }
    }
    w.u64(out.departures.len() as u64);
    for &(algo, round, arc, engine_round) in &out.departures {
        for x in [algo, round, arc, engine_round] {
            w.u32(x);
        }
    }
    w.buf
}

/// Decodes shard `nodes`' DONE body. Total: a short body is
/// [`ExecError::TruncatedFrame`], a departure for an unknown algorithm is
/// [`ExecError::Net`].
fn decode_done(body: &[u8], k: usize, nodes: Vec<NodeId>) -> Result<ShardOutput, ExecError> {
    let mut r = ByteReader::new(body);
    let big_rounds = r.u64("DONE big-rounds")?;
    let last_activity_round = r.u64("DONE last activity")?;
    let stats = ExecStats {
        delivered: r.u64("DONE delivered")?,
        late_messages: r.u64("DONE late")?,
        invalid_sends: r.u64("DONE invalid sends")?,
        max_arc_queue: r.u64("DONE max arc queue")? as usize,
        ..ExecStats::default()
    };
    let shard = ShardStats {
        shard: r.u64("DONE shard index")? as usize,
        nodes: r.u64("DONE shard nodes")? as usize,
        degree: r.u64("DONE shard degree")? as usize,
        steps: r.u64("DONE shard steps")?,
        delivered: r.u64("DONE shard delivered")?,
        cross_sent: r.u64("DONE shard cross-sent")?,
        step_nanos: r.u64("DONE shard step nanos")?,
        drain_nanos: r.u64("DONE shard drain nanos")?,
    };
    let mut outputs: Vec<Vec<Option<Vec<u8>>>> = Vec::with_capacity(k);
    for _ in 0..k {
        let mut per_node = Vec::with_capacity(nodes.len());
        for _ in 0..nodes.len() {
            let some = r.u8("DONE output tag")? != 0;
            per_node.push(if some {
                Some(r.bytes("DONE output")?.to_vec())
            } else {
                None
            });
        }
        outputs.push(per_node);
    }
    let count = r.u64("DONE departure count")?;
    let mut departures = Vec::new();
    for _ in 0..count {
        let algo = r.u32("DONE departure algorithm")?;
        let round = r.u32("DONE departure round")?;
        let arc = r.u32("DONE departure arc")?;
        let engine_round = r.u32("DONE departure engine round")?;
        if algo as usize >= k {
            return Err(ExecError::Net {
                detail: format!("DONE departure for algorithm {algo}, but the problem has {k}"),
            });
        }
        departures.push((algo, round, arc, engine_round));
    }
    Ok(ShardOutput {
        nodes,
        outputs,
        departures,
        stats,
        last_activity_round,
        big_rounds,
        shard,
    })
}

// ---------------------------------------------------------------- worker

/// Connects to a coordinator, receives a shard assignment, and runs that
/// shard of the plan to completion.
///
/// The worker must be launched on the *same problem* as the coordinator
/// (same graph spec, workload, and seed): the handshake fingerprint
/// enforces this, the received plan's hash is checked against the
/// announced one, and the shipped partition is cross-checked against a
/// local recomputation — so a drifted deployment fails typed and early
/// rather than producing divergent bytes.
///
/// # Errors
/// [`SchedError::InvalidPlan`] if the received plan fails validation for
/// the local problem; [`SchedError::Exec`] for the round cap or any
/// network failure, including [`ExecError::Aborted`] when the coordinator
/// tears the run down.
pub fn run_worker(
    problem: &DasProblem<'_>,
    connect: &str,
    net: &NetConfig,
) -> Result<WorkerOutcome, SchedError> {
    let stream = connect_with_retry(connect, net).map_err(SchedError::Exec)?;
    let mut conn = FramedConn::new(stream, net).map_err(SchedError::Exec)?;

    // JOIN → ASSIGN (or REJECT / ABORT)
    let mut w = ByteWriter::new();
    w.u32(PROTOCOL_VERSION);
    w.u64(problem_fingerprint(problem));
    conn.send(wire::JOIN, &w.buf, "handshake (JOIN)")
        .map_err(SchedError::Exec)?;
    let (kind, body) = conn
        .recv("handshake (waiting for ASSIGN)")
        .map_err(SchedError::Exec)?;
    let mut r = ByteReader::new(&body);
    match kind {
        wire::ASSIGN => {}
        wire::REJECT => return Err(SchedError::Exec(decode_reject(&body)?)),
        wire::ABORT => {
            return Err(SchedError::Exec(ExecError::Aborted {
                detail: decode_abort(&body),
            }))
        }
        other => {
            return Err(SchedError::Exec(ExecError::Net {
                detail: format!("expected ASSIGN, got frame kind {other}"),
            }))
        }
    }
    let shard = r.u32("ASSIGN shard").map_err(SchedError::Exec)? as usize;
    let shards = r.u32("ASSIGN shard count").map_err(SchedError::Exec)? as usize;
    let _full_plan_hash = r.u64("ASSIGN plan hash").map_err(SchedError::Exec)?;
    let announced_hash = r.u64("ASSIGN slice hash").map_err(SchedError::Exec)?;
    let plan_bytes = r
        .bytes("ASSIGN plan slice JSON")
        .map_err(SchedError::Exec)?;
    let got_hash = fnv1a(plan_bytes);
    if got_hash != announced_hash {
        return Err(SchedError::Exec(ExecError::PlanHashMismatch {
            expected: announced_hash,
            got: got_hash,
        }));
    }
    let plan_json = std::str::from_utf8(plan_bytes).map_err(|e| {
        SchedError::Exec(ExecError::Net {
            detail: format!("plan JSON is not UTF-8: {e}"),
        })
    })?;
    let plan = SchedulePlan::from_json(plan_json).map_err(|e| {
        SchedError::Exec(ExecError::Net {
            detail: format!("plan JSON failed to parse: {e}"),
        })
    })?;
    // received plans are untrusted, exactly like plans loaded from disk
    plan.validate(problem)?;
    let part = Partition::degree_balanced(problem.graph(), shards);
    let of_len = r.u32("ASSIGN partition length").map_err(SchedError::Exec)? as usize;
    let mut shipped = Vec::with_capacity(of_len);
    for _ in 0..of_len {
        shipped.push(r.u32("ASSIGN partition entry").map_err(SchedError::Exec)?);
    }
    if part.shards() != shards || shipped != part.of_node() {
        return Err(SchedError::Exec(ExecError::Net {
            detail: "shipped partition disagrees with the locally recomputed \
                     degree-balanced partition"
                .to_string(),
        }));
    }
    if shard >= shards {
        return Err(SchedError::Exec(ExecError::Net {
            detail: format!("assigned shard {shard} out of range for {shards} shards"),
        }));
    }
    // the slice must be a fixed point of slicing: every scheduled step
    // belongs to a node this shard owns (with one shard this degenerates
    // to slice == full plan)
    if plan.slice_for_shard(part.of_node(), shard as u32) != plan {
        return Err(SchedError::Exec(ExecError::Net {
            detail: "received plan slice schedules nodes outside the assigned shard".to_string(),
        }));
    }
    worker_loop(problem, &plan, shard, &part, &mut conn).map_err(SchedError::Exec)
}

pub(crate) fn connect_with_retry(connect: &str, net: &NetConfig) -> Result<TcpStream, ExecError> {
    let started = Instant::now();
    let mut last_err = String::new();
    for attempt in 0..net.connect_retries.max(1) {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(net.connect_backoff_ms));
        }
        let addrs = match connect.to_socket_addrs() {
            Ok(a) => a,
            Err(e) => {
                last_err = format!("resolve {connect}: {e}");
                continue;
            }
        };
        for addr in addrs {
            match TcpStream::connect_timeout(&addr, net.io_timeout()) {
                Ok(stream) => return Ok(stream),
                Err(e) => last_err = format!("connect {addr}: {e}"),
            }
        }
    }
    Err(ExecError::NetTimeout {
        during: format!(
            "connecting to {connect} ({} attempts, last error: {last_err})",
            net.connect_retries.max(1)
        ),
        ms: started.elapsed().as_millis() as u64,
    })
}

pub(crate) fn decode_reject(body: &[u8]) -> Result<ExecError, ExecError> {
    let mut r = ByteReader::new(body);
    let code = r.u32("REJECT code")?;
    let ours = r.u64("REJECT coordinator value")?;
    let theirs = r.u64("REJECT worker value")?;
    Ok(match code {
        wire::REJECT_VERSION => ExecError::VersionMismatch {
            coordinator: ours as u32,
            worker: theirs as u32,
        },
        wire::REJECT_PROBLEM => ExecError::ProblemMismatch {
            coordinator: ours,
            worker: theirs,
        },
        wire::REJECT_FULL => ExecError::LateJoin {
            shards: ours as usize,
        },
        other => ExecError::Net {
            detail: format!("coordinator rejected the handshake with unknown code {other}"),
        },
    })
}

pub(crate) fn decode_abort(body: &[u8]) -> String {
    ByteReader::new(body)
        .bytes("ABORT reason")
        .ok()
        .map(|b| String::from_utf8_lossy(b).into_owned())
        .unwrap_or_else(|| "coordinator aborted the run".to_string())
}

/// The framed-TCP boundary exchange of one worker: staged flights are
/// encoded per destination shard and shipped in one OUTBOX frame, the
/// coordinator answers with this shard's INBOX (already in ascending
/// source-shard order), and termination is one ACTIVITY → DECISION
/// round-trip.
struct NetExchange<'c> {
    conn: &'c mut FramedConn,
    /// Encoded flights per destination shard, reused across big-rounds.
    groups: Vec<Vec<u8>>,
    counts: Vec<u32>,
    /// The last INBOX body.
    inbox: Vec<u8>,
}

impl NetExchange<'_> {
    /// Receives the next frame, which must be `kind` for big-round `b`
    /// (an ABORT is a typed [`ExecError::Aborted`]); returns the body past
    /// the big-round field.
    fn expect(&mut self, kind: u8, name: &str, b: u64) -> Result<Vec<u8>, ExecError> {
        let (got, body) = self.conn.recv(&format!("waiting for {name}"))?;
        if got == wire::ABORT {
            return Err(ExecError::Aborted {
                detail: decode_abort(&body),
            });
        }
        if got != kind {
            return Err(ExecError::Net {
                detail: format!("expected {name}, got frame kind {got}"),
            });
        }
        let round = ByteReader::new(&body).u64(&format!("{name} big-round"))?;
        if round != b {
            return Err(ExecError::Net {
                detail: format!("{name} for big-round {round}, expected {b}"),
            });
        }
        Ok(body)
    }
}

impl BoundaryExchange for NetExchange<'_> {
    fn stage(&mut self, owner: usize, arc: u32, algo: u32, round: u32, payload: &[u8]) {
        let grp = &mut self.groups[owner];
        for x in [arc, algo, round, payload.len() as u32] {
            grp.extend_from_slice(&x.to_le_bytes());
        }
        grp.extend_from_slice(payload);
        self.counts[owner] += 1;
    }

    fn cross(&mut self, b: u64, _: &mut ExecObs) -> Result<(), ExecError> {
        let mut w = ByteWriter::new();
        w.u64(b);
        w.u32(self.counts.iter().filter(|&&c| c > 0).count() as u32);
        for (dst, (grp, count)) in self.groups.iter_mut().zip(&mut self.counts).enumerate() {
            if *count > 0 {
                w.u32(dst as u32);
                w.u32(*count);
                w.buf.append(grp);
                *count = 0;
            }
        }
        self.conn.send(wire::OUTBOX, &w.buf, "sending outbox")?;
        self.inbox = self.expect(wire::INBOX, "INBOX", b)?;
        Ok(())
    }

    fn arrivals(
        &mut self,
        mut arrive: impl FnMut(u32, u32, u32, &[u8]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let mut r = ByteReader::new(&self.inbox);
        r.u64("INBOX big-round")?;
        for _ in 0..r.u32("INBOX count")? {
            let arc = r.u32("flight arc")?;
            let algo = r.u32("flight algo")?;
            let round = r.u32("flight round")?;
            arrive(arc, algo, round, r.bytes("flight payload")?)?;
        }
        Ok(())
    }

    fn decide(
        &mut self,
        b: u64,
        active: bool,
        _: u64,
        (stats, shard): (&ExecStats, &ShardStats),
        _: &mut ExecObs,
    ) -> Result<bool, ExecError> {
        // Cumulative telemetry totals ride along after the flag.
        let mut w = ByteWriter::new();
        w.u64(b);
        w.u8(active as u8);
        for x in [
            shard.steps,
            stats.delivered,
            stats.late_messages,
            shard.cross_sent,
        ] {
            w.u64(x);
        }
        self.conn.send(wire::ACTIVITY, &w.buf, "posting activity")?;
        let body = self.expect(wire::DECISION, "DECISION", b)?;
        let mut r = ByteReader::new(&body);
        r.u64("DECISION big-round")?;
        Ok(r.u8("DECISION flag")? != 0)
    }

    fn round_cap(&mut self, cap: u64, b: u64) {
        let mut w = ByteWriter::new();
        w.u64(cap);
        w.u64(b);
        let _ = self.conn.send(wire::ERROR, &w.buf, "reporting round cap");
    }
}

/// The worker's run: the engine core over this shard's plan slice, with
/// the framed-TCP exchange, then one DONE frame.
fn worker_loop(
    problem: &DasProblem<'_>,
    plan: &SchedulePlan,
    me: usize,
    part: &Partition,
    conn: &mut FramedConn,
) -> Result<WorkerOutcome, ExecError> {
    let algos = problem.algorithms();
    let config = ExecutorConfig::default().with_phase_len(plan.phase_len);
    let seeds: Vec<u64> = (0..algos.len()).map(|i| problem.algo_seed(i)).collect();
    let steps = FlatSteps::build(problem.graph().node_count(), algos, &plan.units);
    let spec = ShardSpec {
        g: problem.graph(),
        algos,
        seeds: &seeds,
        config: &config,
        steps: &steps,
        of_node: part.of_node(),
        me,
    };
    let s = part.shards();
    let mut exchange = NetExchange {
        conn,
        groups: vec![Vec::new(); s],
        counts: vec![0; s],
        inbox: Vec::new(),
    };
    let out = run_shard(&spec, &mut exchange, &mut ExecObs::disabled())?;
    let conn = exchange.conn;
    conn.send(wire::DONE, &encode_done(&out), "reporting results")?;
    Ok(WorkerOutcome {
        shard: me,
        shards: s,
        steps: out.shard.steps,
        delivered: out.stats.delivered,
        cross_sent: out.shard.cross_sent,
        big_rounds: out.big_rounds,
        traffic: conn.traffic.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // standard FNV-1a 64 test vectors
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn byte_codec_round_trips() {
        let mut w = ByteWriter::new();
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(0x0123_4567_89ab_cdef);
        w.bytes(b"payload");
        let mut r = ByteReader::new(&w.buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.bytes("d").unwrap(), b"payload");
        assert!(matches!(
            r.u8("past the end"),
            Err(ExecError::TruncatedFrame { .. })
        ));
    }

    #[test]
    fn short_body_decodes_to_truncated_frame() {
        let mut w = ByteWriter::new();
        w.u32(100); // promises 100 bytes
        w.buf.extend_from_slice(b"short");
        let mut r = ByteReader::new(&w.buf);
        assert!(matches!(
            r.bytes("clipped"),
            Err(ExecError::TruncatedFrame { .. })
        ));
    }
}
