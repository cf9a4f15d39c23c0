//! The engine core: the one big-round loop behind every way of running a
//! plan — fused, sharded in-process, networked worker, and served.
//!
//! [`run_shard`] runs one shard's share of the schedule. Each big-round it
//!
//! 1. **steps** the shard's machines: the big-round's `(a, v, r)` triples
//!    (from the shared [`FlatSteps`] table) are grouped into maximal
//!    same-algorithm runs and each run dispatches as **one**
//!    [`NodeBatch::step_block`] call over a node-contiguous slab; sends are
//!    then validated and enqueued segment by segment, in step order;
//! 2. **crosses the boundary**: flights for arcs another shard owns (an arc
//!    belongs to the shard of its destination node) were staged during the
//!    step phase; the [`BoundaryExchange`] moves them and hands this
//!    shard's arrivals back in ascending source-shard order;
//! 3. **drains** every active owned arc once, delivering up to `phase_len`
//!    queued messages as one contiguous batch — message `j` departs at
//!    engine round `phase_start + j`, and lateness reads only the
//!    destination's own progress;
//! 4. **agrees on termination** through the exchange.
//!
//! The exchanges differ only in how step 2 and step 4 happen: [`Alone`]
//! (one shard, no-op, caller's thread), [`Threaded`] (in-process shards,
//! mutex outboxes and barriers), and the framed-TCP exchange of
//! [`crate::net`]. Because each arc has a unique source node owned by one
//! shard, each shard steps its nodes in the global step order, and
//! arrivals merge in ascending source-shard order, every arc queue sees
//! exactly the pushes of the one-shard run in the same order — so the
//! outcome is byte-identical for every partition.
//!
//! Layout: per-arc queues keep message metadata and payload bytes in two
//! flat arenas ([`ColFifo`]); per-(algorithm, node) arrival windows store
//! arrivals columnar with bucket occupancy in u64 bitset words
//! ([`ColWindow`]); departures are deferred as flat tuples and bulk-built
//! into maps after the run ([`build_departures`]).

use super::steps::FlatSteps;
use super::{ExecError, ExecStats, ExecutorConfig, ShardReport, ShardStats};
use crate::algorithm::{BatchedSends, BlackBoxAlgorithm, BlockStep, NodeBatch};
use crate::schedule::ScheduleOutcome;
use das_graph::{Graph, NodeId};
use das_obs::ExecObs;
use das_pattern::{SimulationMap, TimedArc};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Metadata for one queued message; its payload occupies the next `len`
/// bytes of the owning queue's byte arena.
#[derive(Clone, Copy)]
struct ColMsg {
    algo: u32,
    round: u32,
    len: u32,
}

/// Per-arc FIFO: metadata and payload bytes in two flat arenas, aligned to
/// a cache line so the per-round scan over active arcs never splits a
/// queue header across lines.
#[derive(Default)]
#[repr(align(64))]
struct ColFifo {
    /// Message metadata in arrival order; `meta[head..]` is live.
    meta: Vec<ColMsg>,
    head: usize,
    /// Concatenated payloads in arrival order; `bytes[bytes_head..]` is
    /// live.
    bytes: Vec<u8>,
    bytes_head: usize,
}

impl ColFifo {
    #[inline]
    fn len(&self) -> usize {
        self.meta.len() - self.head
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head == self.meta.len()
    }

    #[inline]
    fn push(&mut self, algo: u32, round: u32, payload: &[u8]) {
        self.meta.push(ColMsg {
            algo,
            round,
            len: payload.len() as u32,
        });
        self.bytes.extend_from_slice(payload);
    }

    /// Reclaims consumed prefixes: a cheap reset once fully drained, a
    /// compaction when the dead prefix dominates a long-lived backlog, so
    /// arena growth stays proportional to the live queue.
    #[inline]
    fn reclaim(&mut self) {
        if self.head == self.meta.len() {
            self.meta.clear();
            self.bytes.clear();
            self.head = 0;
            self.bytes_head = 0;
        } else if self.head > 64 && self.head * 2 > self.meta.len() {
            let live = self.meta.len() - self.head;
            self.meta.copy_within(self.head.., 0);
            self.meta.truncate(live);
            self.head = 0;
            let live_bytes = self.bytes.len() - self.bytes_head;
            self.bytes.copy_within(self.bytes_head.., 0);
            self.bytes.truncate(live_bytes);
            self.bytes_head = 0;
        }
    }
}

/// One tag bucket of a [`ColWindow`]: arrivals stored columnar.
#[derive(Default)]
struct ColBucket {
    /// `(sender node, payload length)` per arrival, in arrival order.
    meta: Vec<(u32, u32)>,
    /// Concatenated payload bytes, in arrival order.
    bytes: Vec<u8>,
}

/// Arrival window for one (algorithm, node) machine: inbox entries keyed
/// by algorithm-round tag. Step `r` consumes tag `r - 1` and older
/// arrivals are dropped as late, so the live tags form a window starting
/// at the consumer's next tag — a power-of-two ring of buckets, with
/// bucket occupancy mirrored into u64 bitset words.
#[derive(Default)]
struct ColWindow {
    /// Smallest tag the window can currently hold.
    base: u32,
    /// Ring position of `base`'s bucket.
    head: usize,
    /// One occupancy bit per ring slot; a zero word clears 64 tags at once.
    occupied: Vec<u64>,
    /// Power-of-two ring of buckets (empty until the first push).
    buckets: Vec<ColBucket>,
}

impl ColWindow {
    /// Re-bases an **empty** window at `base`. The engine skips a window
    /// entirely (neither `take` nor bucket access) while its
    /// buffered-arrival count is zero, which lets `base` go stale; the
    /// first push after such a skip re-enters the ring discipline here,
    /// using the consumer's next tag as the new base. The late-drop check
    /// guarantees every accepted arrival's tag is `>=` that next tag.
    #[inline]
    fn reset_to(&mut self, base: u32) {
        debug_assert!(self.occupied.iter().all(|w| *w == 0), "window not empty");
        self.base = base;
        self.head = 0;
    }

    /// Files one arrival under `tag`. Requires `tag >= base`, which the
    /// late-drop check guarantees.
    fn push(&mut self, tag: u32, from: u32, payload: &[u8]) {
        debug_assert!(tag >= self.base, "arrival below the live window");
        let offset = (tag - self.base) as usize;
        if offset >= self.buckets.len() {
            self.grow(offset + 1);
        }
        let pos = (self.head + offset) & (self.buckets.len() - 1);
        self.occupied[pos >> 6] |= 1u64 << (pos & 63);
        let bucket = &mut self.buckets[pos];
        bucket.meta.push((from, payload.len() as u32));
        bucket.bytes.extend_from_slice(payload);
    }

    /// Moves the bucket for `tag` into `into` in canonical (sender-sorted)
    /// order and advances the window past `tag`. Payload allocations are
    /// drawn from and returned to `pool`; `scratch` is reusable sort
    /// space. The occupancy word is consulted first, so an empty tag never
    /// touches bucket memory.
    ///
    /// Sorting happens here on `(sender, offset, len)` integer triples —
    /// senders are unique per tag (a machine sends at most one message per
    /// round to a given target), so this is exactly the canonical
    /// `(NodeId, payload)` order without ever comparing payload bytes.
    fn take(
        &mut self,
        tag: u32,
        into: &mut Vec<(NodeId, Vec<u8>)>,
        pool: &mut Vec<Vec<u8>>,
        scratch: &mut Vec<(u32, u32, u32)>,
    ) {
        if !into.is_empty() {
            recycle(into, pool);
        }
        debug_assert!(tag >= self.base, "tags are consumed in order");
        if self.buckets.is_empty() {
            self.base = tag + 1;
            return;
        }
        let len = self.buckets.len();
        let offset = (tag - self.base) as usize;
        if offset >= len {
            // the window never stretched to this tag: nothing is stored
            debug_assert!(self.occupied.iter().all(|w| *w == 0));
            self.base = tag + 1;
            self.head = 0;
            return;
        }
        let mask = len - 1;
        for i in 0..offset {
            debug_assert!(
                self.buckets[(self.head + i) & mask].meta.is_empty(),
                "skipped a live tag"
            );
        }
        let pos = (self.head + offset) & mask;
        if self.occupied[pos >> 6] & (1u64 << (pos & 63)) != 0 {
            self.occupied[pos >> 6] &= !(1u64 << (pos & 63));
            let bucket = &mut self.buckets[pos];
            scratch.clear();
            let mut off = 0u32;
            for &(from, plen) in &bucket.meta {
                scratch.push((from, off, plen));
                off += plen;
            }
            scratch.sort_unstable();
            for &(from, off, plen) in scratch.iter() {
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.extend_from_slice(&bucket.bytes[off as usize..(off + plen) as usize]);
                into.push((NodeId(from), buf));
            }
            bucket.meta.clear();
            bucket.bytes.clear();
        }
        self.head = (self.head + offset + 1) & mask;
        self.base = tag + 1;
    }

    fn grow(&mut self, min_len: usize) {
        let new_len = min_len.next_power_of_two().max(4);
        let mut new_buckets: Vec<ColBucket> = Vec::with_capacity(new_len);
        new_buckets.resize_with(new_len, ColBucket::default);
        let old_len = self.buckets.len();
        for (i, slot) in new_buckets.iter_mut().enumerate().take(old_len) {
            *slot = std::mem::take(&mut self.buckets[(self.head + i) & (old_len - 1)]);
        }
        self.buckets = new_buckets;
        self.head = 0;
        self.occupied = vec![0u64; new_len.div_ceil(64)];
        for (i, b) in self.buckets.iter().enumerate() {
            if !b.meta.is_empty() {
                self.occupied[i >> 6] |= 1u64 << (i & 63);
            }
        }
    }
}

/// Returns an inbox's payload allocations to the pool instead of dropping
/// them.
#[inline]
fn recycle(inbox: &mut Vec<(NodeId, Vec<u8>)>, pool: &mut Vec<Vec<u8>>) {
    for (_, buf) in inbox.drain(..) {
        pool.push(buf);
    }
}

/// A delivered message's departure, deferred: `(algo, round, arc,
/// engine_round)`.
pub(crate) type Departure = (u32, u32, u32, u32);

/// Bulk-builds the per-algorithm departure maps from deferred tuples.
/// `BTreeMap`'s `FromIterator` sorts the pairs once and builds each tree
/// bottom-up; exact because departure keys are unique (one canonical
/// machine per (algorithm, node), deduplicated sends), so neither
/// insertion order nor the shard a tuple came from can matter.
fn build_departures(k: usize, deferred: &[Departure]) -> Vec<SimulationMap> {
    let mut per_algo: Vec<Vec<(TimedArc, u32)>> = vec![Vec::new(); k];
    for &(a, round, arc, eng) in deferred {
        per_algo[a as usize].push((
            TimedArc {
                round,
                arc: das_graph::Arc::from_index(arc as usize),
            },
            eng,
        ));
    }
    per_algo
        .into_iter()
        .map(|pairs| pairs.into_iter().collect())
        .collect()
}

/// How flights cross shard boundaries, and how shards agree to stop.
///
/// Every implementation moves a cross-shard flight only at the big-round
/// boundary and hands a shard its arrivals in ascending source-shard
/// order, each source's flights in send order — the merge order that
/// keeps per-arc FIFO order equal to the one-shard run's.
pub(crate) trait BoundaryExchange {
    /// Stages, during the step phase, a flight on `arc`, which shard
    /// `owner` owns.
    fn stage(&mut self, owner: usize, arc: u32, algo: u32, round: u32, payload: &[u8]);

    /// Ends big-round `b`'s step phase: publishes the staged flights and
    /// waits until every flight bound for this shard is available.
    ///
    /// # Errors
    /// Transport failures (networked exchange only).
    fn cross(&mut self, b: u64, obs: &mut ExecObs) -> Result<(), ExecError>;

    /// Hands each flight that arrived at the last [`Self::cross`] to
    /// `arrive` as `(arc, algo, round, payload)`, in merge order.
    ///
    /// # Errors
    /// The first error `arrive` or the decoder returns.
    fn arrivals(
        &mut self,
        arrive: impl FnMut(u32, u32, u32, &[u8]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError>;

    /// Agrees on termination after big-round `b`'s drain: the run is done
    /// once `b` is past `last_step_round` and no shard holds an undrained
    /// arc. `active` is this shard's view; `progress` holds its running
    /// totals (the networked exchange reports them upstream).
    ///
    /// # Errors
    /// Transport failures (networked exchange only).
    fn decide(
        &mut self,
        b: u64,
        active: bool,
        last_step_round: u64,
        progress: (&ExecStats, &ShardStats),
        obs: &mut ExecObs,
    ) -> Result<bool, ExecError>;

    /// Reports that the engine-round cap fired during big-round `b`.
    /// Every shard's engine-round counter is identical, so all shards get
    /// here in lockstep and nobody is left waiting at a boundary.
    fn round_cap(&mut self, _cap: u64, _b: u64) {}
}

/// The one-shard exchange: nothing ever crosses, and the decision is
/// local. Runs on the caller's thread with no barrier.
pub(crate) struct Alone;

impl BoundaryExchange for Alone {
    fn stage(&mut self, _: usize, _: u32, _: u32, _: u32, _: &[u8]) {
        unreachable!("a lone shard owns every arc");
    }

    fn cross(&mut self, _: u64, _: &mut ExecObs) -> Result<(), ExecError> {
        Ok(())
    }

    fn arrivals(
        &mut self,
        _: impl FnMut(u32, u32, u32, &[u8]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        Ok(())
    }

    fn decide(
        &mut self,
        b: u64,
        active: bool,
        last_step_round: u64,
        _: (&ExecStats, &ShardStats),
        _: &mut ExecObs,
    ) -> Result<bool, ExecError> {
        Ok(b + 1 > last_step_round && !active)
    }
}

/// Flights staged for one destination shard: `(arc, algo, round, len)`
/// per flight plus the concatenated payloads, in send order.
#[derive(Default)]
struct Outbox {
    meta: Vec<[u32; 4]>,
    bytes: Vec<u8>,
}

/// State the in-process shards of one run share.
pub(crate) struct Boundary {
    shards: usize,
    /// `outboxes[src * shards + dst]`: flights from `src` to arcs `dst`
    /// owns, published at the big-round boundary.
    outboxes: Vec<Mutex<Outbox>>,
    barrier: Barrier,
    /// How many shards still hold undrained arcs after the current
    /// big-round (reset by shard 0 between rounds).
    active: AtomicU64,
}

impl Boundary {
    pub(crate) fn new(shards: usize) -> Self {
        Boundary {
            shards,
            outboxes: (0..shards * shards).map(|_| Mutex::default()).collect(),
            barrier: Barrier::new(shards),
            active: AtomicU64::new(0),
        }
    }

    /// Waits at the barrier, sampling the wall-clock wait into the
    /// probe's side channel when enabled.
    fn wait(&self, obs: &mut ExecObs) {
        if obs.wall_enabled() {
            let t = Instant::now();
            self.barrier.wait();
            obs.on_barrier_wait_ns(t.elapsed().as_nanos() as u64);
        } else {
            self.barrier.wait();
        }
    }
}

/// The in-process exchange of shard `me`: staged flights move through
/// mutex outboxes, three barriers per big-round (outboxes complete /
/// activity posted / decision read).
pub(crate) struct Threaded<'b> {
    me: usize,
    shared: &'b Boundary,
    staged: Vec<Outbox>,
}

impl<'b> Threaded<'b> {
    pub(crate) fn new(me: usize, shared: &'b Boundary) -> Self {
        let mut staged = Vec::with_capacity(shared.shards);
        staged.resize_with(shared.shards, Outbox::default);
        Threaded { me, shared, staged }
    }
}

impl BoundaryExchange for Threaded<'_> {
    fn stage(&mut self, owner: usize, arc: u32, algo: u32, round: u32, payload: &[u8]) {
        let out = &mut self.staged[owner];
        out.meta.push([arc, algo, round, payload.len() as u32]);
        out.bytes.extend_from_slice(payload);
    }

    fn cross(&mut self, _: u64, obs: &mut ExecObs) -> Result<(), ExecError> {
        let s = self.shared.shards;
        for (dst, out) in self.staged.iter_mut().enumerate() {
            if !out.meta.is_empty() {
                // the receiver emptied this slot before the last decision
                // barrier; swapping hands its allocation back for reuse
                let mut slot = self.shared.outboxes[self.me * s + dst]
                    .lock()
                    .expect("outbox lock");
                std::mem::swap(&mut *slot, out);
            }
        }
        self.shared.wait(obs);
        Ok(())
    }

    fn arrivals(
        &mut self,
        mut arrive: impl FnMut(u32, u32, u32, &[u8]) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        let s = self.shared.shards;
        for src in (0..s).filter(|&src| src != self.me) {
            let mut inbox = self.shared.outboxes[src * s + self.me]
                .lock()
                .expect("outbox lock");
            let mut off = 0usize;
            for &[arc, algo, round, len] in &inbox.meta {
                arrive(arc, algo, round, &inbox.bytes[off..off + len as usize])?;
                off += len as usize;
            }
            inbox.meta.clear();
            inbox.bytes.clear();
        }
        Ok(())
    }

    fn decide(
        &mut self,
        b: u64,
        active: bool,
        last_step_round: u64,
        _: (&ExecStats, &ShardStats),
        obs: &mut ExecObs,
    ) -> Result<bool, ExecError> {
        // post activity, agree on it, and let shard 0 reset the counter
        // strictly after everyone has read it and strictly before anyone
        // can post again (the next boundary's barrier)
        if active {
            self.shared.active.fetch_add(1, Ordering::SeqCst);
        }
        self.shared.wait(obs);
        let any_active = self.shared.active.load(Ordering::SeqCst) > 0;
        self.shared.wait(obs);
        if self.me == 0 {
            self.shared.active.store(0, Ordering::SeqCst);
        }
        Ok(b + 1 > last_step_round && !any_active)
    }
}

/// Everything a shard's run needs: the problem, the configuration, the
/// step table every shard shares, and the node → shard assignment.
pub(crate) struct ShardSpec<'a> {
    pub(crate) g: &'a Graph,
    pub(crate) algos: &'a [Box<dyn BlackBoxAlgorithm>],
    pub(crate) seeds: &'a [u64],
    pub(crate) config: &'a ExecutorConfig,
    pub(crate) steps: &'a FlatSteps,
    /// Shard index of every node.
    pub(crate) of_node: &'a [u32],
    /// This shard's index.
    pub(crate) me: usize,
}

/// What one shard's run hands back to be merged.
pub(crate) struct ShardOutput {
    /// Owned nodes, ascending (the local index space).
    pub(crate) nodes: Vec<NodeId>,
    /// `outputs[a][local]` for the owned nodes.
    pub(crate) outputs: Vec<Vec<Option<Vec<u8>>>>,
    /// Departures on owned arcs (empty unless recording).
    pub(crate) departures: Vec<Departure>,
    pub(crate) stats: ExecStats,
    pub(crate) last_activity_round: u64,
    pub(crate) big_rounds: u64,
    pub(crate) shard: ShardStats,
}

/// Builds one [`NodeBatch`] slab per algorithm over `nodes`, seeding each
/// machine with the same per-(algorithm, node) mix the reference runner
/// uses — machine state is therefore independent of the partition.
fn build_batches(
    algos: &[Box<dyn BlackBoxAlgorithm>],
    seeds: &[u64],
    nodes: &[NodeId],
    n: usize,
) -> Vec<NodeBatch> {
    let mut node_seeds = vec![0u64; nodes.len()];
    algos
        .iter()
        .zip(seeds)
        .map(|(algo, &seed)| {
            for (slot, v) in node_seeds.iter_mut().zip(nodes) {
                *slot = das_congest::util::seed_mix(seed, u64::from(v.0));
            }
            algo.create_nodes(nodes, n, &node_seeds)
        })
        .collect()
}

/// The big-round loop for shard `spec.me`; see the module docs.
///
/// # Errors
/// [`ExecError::RoundCapExceeded`] when the queues have not drained by
/// `config.max_engine_rounds`; [`ExecError::Net`] when the exchange hands
/// over a flight this shard cannot accept (an arc it does not own, an
/// unknown algorithm, or a round past the algorithm's last); and any
/// transport error of the exchange.
pub(crate) fn run_shard<X: BoundaryExchange>(
    spec: &ShardSpec<'_>,
    exchange: &mut X,
    obs: &mut ExecObs,
) -> Result<ShardOutput, ExecError> {
    let &ShardSpec {
        g,
        algos,
        seeds,
        config,
        steps,
        of_node,
        me,
    } = spec;
    let n = g.node_count();
    let k = algos.len();
    let rounds: Vec<u32> = algos.iter().map(|a| a.rounds()).collect();
    let nodes: Vec<NodeId> = (0..n)
        .filter(|&v| of_node[v] as usize == me)
        .map(|v| NodeId(v as u32))
        .collect();
    let own_n = nodes.len();
    let mut local_of = vec![u32::MAX; n];
    for (li, v) in nodes.iter().enumerate() {
        local_of[v.index()] = li as u32;
    }
    // Per arc: its source node, and its destination's local index —
    // `u32::MAX` when another shard owns the arc.
    let arcs = g.arc_count();
    let (arc_src, arc_dst): (Vec<u32>, Vec<u32>) = (0..arcs)
        .map(|i| {
            let (s, d) = g.arc_endpoints(das_graph::Arc::from_index(i));
            (s.0, local_of[d.index()])
        })
        .unzip();

    // Per-machine state is flat and indexed `a * own_n + local`; the
    // buffered-arrival counter lets machines with nothing buffered skip
    // their window entirely.
    let mut batches = build_batches(algos, seeds, &nodes, n);
    let mut steps_done = vec![0u32; k * own_n];
    let mut windows: Vec<ColWindow> = Vec::with_capacity(k * own_n);
    windows.resize_with(k * own_n, ColWindow::default);
    let mut buffered = vec![0u32; k * own_n];
    let mut inbox: Vec<(NodeId, Vec<u8>)> = Vec::new();
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut sort_scratch: Vec<(u32, u32, u32)> = Vec::new();
    // Duplicate-send detection via generation stamps: O(1) per send.
    let mut sent_gen = vec![0u64; n];
    let mut gen: u64 = 0;
    // Per-run scratch: the run's concatenated inboxes, its step
    // descriptors, and the flat send arena.
    let mut run_inbox: Vec<(NodeId, Vec<u8>)> = Vec::new();
    let mut run_steps: Vec<BlockStep> = Vec::new();
    let mut sends = BatchedSends::new();

    // Full-width arc array for global indexing; only owned arcs are used.
    let mut queues: Vec<ColFifo> = Vec::with_capacity(arcs);
    queues.resize_with(arcs, ColFifo::default);
    let mut active_arcs: Vec<usize> = Vec::new();
    let mut scratch_arcs: Vec<usize> = Vec::new();
    obs.init(arcs, config.phase_len);
    let mut stats = ExecStats {
        phase_len: config.phase_len,
        ..ExecStats::default()
    };
    let mut deferred: Vec<Departure> = Vec::new();
    let mut shard = ShardStats {
        shard: me,
        nodes: own_n,
        degree: nodes.iter().map(|&v| g.degree(v)).sum(),
        ..ShardStats::default()
    };
    let mut engine_round: u64 = 0;
    let mut last_activity_round: u64 = 0;

    let mut b: u64 = 0;
    loop {
        // 1. Step phase: this shard's share of each same-algorithm run.
        // Triples are in ascending (a, v, r) order, so a run is
        // contiguous and steps each machine at most once. Taking a whole
        // run's inboxes before executing any of its steps is safe: windows
        // only fill during drains.
        let t_step = Instant::now();
        let steps_b = steps.at(b);
        let mut i = 0usize;
        while i < steps_b.len() {
            let a = steps_b[i].0;
            let mut j = i + 1;
            while j < steps_b.len() && steps_b[j].0 == a {
                j += 1;
            }
            run_steps.clear();
            debug_assert!(run_inbox.is_empty());
            for &(_, v, r) in &steps_b[i..j] {
                let li = local_of[v as usize];
                if li == u32::MAX {
                    continue;
                }
                let idx = a as usize * own_n + li as usize;
                debug_assert_eq!(steps_done[idx], r, "steps execute in order");
                let start = run_inbox.len() as u32;
                if r > 0 && buffered[idx] > 0 {
                    // take() materializes the inbox already in canonical
                    // sender-sorted order
                    windows[idx].take(r - 1, &mut inbox, &mut pool, &mut sort_scratch);
                    buffered[idx] -= inbox.len() as u32;
                    run_inbox.append(&mut inbox);
                }
                let len = run_inbox.len() as u32 - start;
                obs.on_step(len as usize);
                steps_done[idx] = r + 1;
                shard.steps += 1;
                run_steps.push(BlockStep {
                    node: li,
                    round: r,
                    inbox_start: start,
                    inbox_len: len,
                });
            }
            i = j;
            if run_steps.is_empty() {
                continue;
            }
            sends.clear();
            batches[a as usize].step_block(&run_steps, &run_inbox, &mut sends);
            debug_assert_eq!(sends.segments(), run_steps.len(), "one segment per step");
            // Validate and enqueue segment by segment, in step order. `gen`
            // need only be distinct per non-empty segment.
            for (si, bs) in run_steps.iter().enumerate() {
                if sends.segment_is_empty(si) {
                    continue;
                }
                let me_node = nodes[bs.node as usize];
                gen += 1;
                for (to, payload) in sends.segment(si) {
                    let Some(edge) = g.find_edge(me_node, to) else {
                        stats.invalid_sends += 1;
                        obs.on_invalid_send();
                        continue;
                    };
                    if payload.len() > config.message_bytes || sent_gen[to.index()] == gen {
                        stats.invalid_sends += 1;
                        obs.on_invalid_send();
                        continue;
                    }
                    sent_gen[to.index()] = gen;
                    let arc = g.arc_from(edge, me_node).index();
                    if arc_dst[arc] == u32::MAX {
                        shard.cross_sent += 1;
                        obs.on_cross_send();
                        let owner = of_node[to.index()] as usize;
                        exchange.stage(owner, arc as u32, a, bs.round, payload);
                        continue;
                    }
                    let q = &mut queues[arc];
                    if q.is_empty() {
                        active_arcs.push(arc);
                    }
                    q.push(a, bs.round, payload);
                    stats.max_arc_queue = stats.max_arc_queue.max(q.len());
                    obs.on_inject(arc, q.len());
                }
            }
            recycle(&mut run_inbox, &mut pool);
        }
        shard.step_nanos += t_step.elapsed().as_nanos() as u64;

        // 2. The boundary: cross-shard flights enter the owned queues once
        // per big-round, in ascending source-shard order. Each is checked
        // before it touches any queue, so a forged flight is a typed error.
        exchange.cross(b, obs)?;
        let t_drain = Instant::now();
        exchange.arrivals(|arc, algo, round, payload| {
            let reject = if arc as usize >= arcs || arc_dst[arc as usize] == u32::MAX {
                format!("flight on arc {arc}, which shard {me} does not own")
            } else if algo as usize >= k {
                format!("flight for unknown algorithm {algo} (the problem has {k})")
            } else if round >= rounds[algo as usize] {
                format!(
                    "flight tagged round {round} of algorithm {algo}, which has {} rounds",
                    rounds[algo as usize]
                )
            } else {
                let q = &mut queues[arc as usize];
                if q.is_empty() {
                    active_arcs.push(arc as usize);
                }
                q.push(algo, round, payload);
                stats.max_arc_queue = stats.max_arc_queue.max(q.len());
                obs.on_inject(arc as usize, q.len());
                return Ok(());
            };
            Err(ExecError::Net { detail: reject })
        })?;

        // 3. Drain: each active arc is visited once and delivers up to
        // phase_len messages as one batch; message j departs at engine
        // round `phase_start + j`. Lateness reads only the destination's
        // progress, which this shard owns.
        let phase_start = engine_round;
        std::mem::swap(&mut active_arcs, &mut scratch_arcs);
        for &arc in &scratch_arcs {
            let q = &mut queues[arc];
            let cnt = (q.len() as u64).min(config.phase_len) as usize;
            if cnt == 0 {
                continue;
            }
            let from = arc_src[arc];
            let li = arc_dst[arc] as usize;
            let mut off = q.bytes_head;
            for j in 0..cnt {
                let m = q.meta[q.head + j];
                let payload = &q.bytes[off..off + m.len as usize];
                off += m.len as usize;
                let eng = phase_start + j as u64;
                if config.record_departures {
                    deferred.push((m.algo, m.round, arc as u32, eng as u32));
                }
                let idx = m.algo as usize * own_n + li;
                // late iff the consumer already stepped round + 1, i.e.
                // steps_done >= round + 2 (written overflow-free)
                let late = steps_done[idx].saturating_sub(1) > m.round;
                if late {
                    stats.late_messages += 1;
                } else {
                    if buffered[idx] == 0 {
                        // first arrival since the window went idle: re-base
                        // at the consumer's next tag
                        windows[idx].reset_to(steps_done[idx].max(1) - 1);
                    }
                    windows[idx].push(m.round, from, payload);
                    buffered[idx] += 1;
                    stats.delivered += 1;
                }
                obs.on_deliver(eng, late);
            }
            q.head += cnt;
            q.bytes_head = off;
            q.reclaim();
            if !q.is_empty() {
                active_arcs.push(arc);
            }
            last_activity_round = last_activity_round.max(phase_start + cnt as u64);
        }
        scratch_arcs.clear();
        engine_round += config.phase_len;
        if engine_round > config.max_engine_rounds {
            exchange.round_cap(config.max_engine_rounds, b);
            return Err(ExecError::RoundCapExceeded {
                cap: config.max_engine_rounds,
                big_round: b,
            });
        }
        shard.drain_nanos += t_drain.elapsed().as_nanos() as u64;
        obs.end_big_round(b);

        // 4. Termination.
        let active = !active_arcs.is_empty();
        let done = exchange.decide(b, active, steps.last_step_round, (&stats, &shard), obs)?;
        b += 1;
        if done {
            break;
        }
    }

    shard.delivered = stats.delivered;
    let outputs = batches
        .iter()
        .map(|batch| (0..own_n).map(|li| batch.output(li)).collect())
        .collect();
    Ok(ShardOutput {
        nodes,
        outputs,
        departures: deferred,
        stats,
        last_activity_round,
        big_rounds: b,
        shard,
    })
}

/// Merges shard outputs, given in shard order, into the run's outcome and
/// shard report. The outcome does not depend on the partition: outputs
/// land at their global node ids, counters sum, and departures are keyed
/// uniquely.
pub(crate) fn merge(
    n: usize,
    k: usize,
    phase_len: u64,
    last_step_round: u64,
    record_departures: bool,
    parts: Vec<ShardOutput>,
) -> (ScheduleOutcome, ShardReport) {
    let mut outputs: Vec<Vec<Option<Vec<u8>>>> = vec![vec![None; n]; k];
    let mut deferred: Vec<Departure> = Vec::new();
    let mut stats = ExecStats {
        phase_len,
        ..ExecStats::default()
    };
    let mut last_activity_round = 0u64;
    let mut report = ShardReport {
        shards: parts.len(),
        cross_shard_messages: 0,
        per_shard: Vec::with_capacity(parts.len()),
    };
    let whole = parts.len() == 1;
    for mut p in parts {
        stats.delivered += p.stats.delivered;
        stats.late_messages += p.stats.late_messages;
        stats.invalid_sends += p.stats.invalid_sends;
        stats.max_arc_queue = stats.max_arc_queue.max(p.stats.max_arc_queue);
        // every shard leaves the lockstep loop at the same big-round
        stats.big_rounds = p.big_rounds;
        last_activity_round = last_activity_round.max(p.last_activity_round);
        if whole {
            // a lone shard owns every node, in id order
            outputs = p.outputs;
        } else {
            for (a, outs) in p.outputs.into_iter().enumerate() {
                for (li, out) in outs.into_iter().enumerate() {
                    outputs[a][p.nodes[li].index()] = out;
                }
            }
        }
        deferred.append(&mut p.departures);
        report.cross_shard_messages += p.shard.cross_sent;
        report.per_shard.push(p.shard);
    }
    // Schedule length: the last big-round boundary with any step, extended
    // by any drain tail.
    stats.engine_rounds = (last_step_round + 1)
        .saturating_mul(phase_len)
        .max(last_activity_round);
    let outcome = ScheduleOutcome {
        outputs,
        stats,
        departures: record_departures.then(|| build_departures(k, &deferred)),
        precompute_rounds: 0,
    };
    (outcome, report)
}
