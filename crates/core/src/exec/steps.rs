//! The step table: which machine steps which algorithm round at which
//! big-round.
//!
//! Round `r` of algorithm `a` at node `v` executes at the *earliest*
//! big-round over all units of `a` that schedule it. A unit schedules the
//! contiguous rounds `0 .. min(rounds, trunc[v])` at `delay[v] + r ·
//! stride`, so the union over units is again a contiguous prefix and the
//! earliest big-round is strictly increasing in `r` (every stride is at
//! least 1 and the set of units covering round `r + 1` is a subset of
//! those covering `r`).

use super::Unit;
use crate::algorithm::BlackBoxAlgorithm;

/// `(algo, node, round)` triples grouped by big-round through a counting
/// sort over two flat arrays. Within a big-round, triples appear in
/// ascending `(a, v, r)` order (the counting sort is stable), which is the
/// order every engine run steps them in.
pub(crate) struct FlatSteps {
    /// All step triples, grouped by big-round.
    steps: Vec<(u32, u32, u32)>,
    /// `steps[offsets[b]..offsets[b + 1]]` holds big-round `b`'s triples.
    offsets: Vec<usize>,
    /// The last big-round with any step (0 for an empty plan).
    pub(crate) last_step_round: u64,
}

/// Panics on units that are malformed for `n` nodes and `k` algorithms —
/// plans from untrusted sources go through
/// [`crate::SchedulePlan::validate`] first.
fn check_units(n: usize, k: usize, units: &[Unit]) {
    for u in units {
        assert!(u.algo < k, "unit for unknown algorithm");
        assert_eq!(u.delay.len(), n, "delay vector missized");
        assert_eq!(u.trunc.len(), n, "truncation vector missized");
        assert!(u.stride >= 1, "stride must be at least 1");
    }
}

impl FlatSteps {
    /// Builds the table for `units` over `n` nodes.
    ///
    /// # Panics
    /// Panics if units reference unknown algorithms, are missized, or
    /// have a zero stride.
    pub(crate) fn build(n: usize, algos: &[Box<dyn BlackBoxAlgorithm>], units: &[Unit]) -> Self {
        let k = algos.len();
        check_units(n, k, units);
        let mut unit_of = vec![usize::MAX; k];
        let mut single = true;
        for (i, u) in units.iter().enumerate() {
            if unit_of[u.algo] != usize::MAX {
                single = false;
            }
            unit_of[u.algo] = i;
        }
        if single {
            // Fast path for one unit per algorithm: `earliest` is just
            // `delay[v] + r * stride` over a prefix of length
            // `min(rounds, trunc[v])` — no per-(a, v, r) scratch array.
            return Self::build_single_unit(n, algos, units, &unit_of);
        }
        // earliest[algo_off[a] + v * rounds_a + r] = earliest big-round
        let mut algo_off = vec![0usize; k + 1];
        for a in 0..k {
            algo_off[a + 1] = algo_off[a] + n * algos[a].rounds() as usize;
        }
        let mut earliest = vec![u64::MAX; algo_off[k]];
        let mut prefix_len = vec![0u32; k * n];
        for u in units {
            let rounds = algos[u.algo].rounds() as usize;
            let base = algo_off[u.algo];
            for v in 0..n {
                let lim = (rounds as u32).min(u.trunc[v]);
                let row = &mut earliest[base + v * rounds..][..rounds];
                for (r, slot) in row.iter_mut().take(lim as usize).enumerate() {
                    *slot = (*slot).min(u.delay[v] + r as u64 * u.stride);
                }
                let len = &mut prefix_len[u.algo * n + v];
                *len = (*len).max(lim);
            }
        }
        // the scheduled prefix of (a, v): earliest big-round per round
        let row = |a: usize, v: usize| {
            let rounds = algos[a].rounds() as usize;
            &earliest[algo_off[a] + v * rounds..][..prefix_len[a * n + v] as usize]
        };
        let mut last_step_round = 0u64;
        let mut total = 0usize;
        for a in 0..k {
            for v in 0..n {
                if let Some(&b) = row(a, v).last() {
                    last_step_round = last_step_round.max(b);
                }
                total += row(a, v).len();
            }
        }
        // Counting sort by big-round, stable in (a, v, r) order.
        let mut offsets = vec![0usize; last_step_round as usize + 2];
        for a in 0..k {
            for v in 0..n {
                for &b in row(a, v) {
                    offsets[b as usize + 1] += 1;
                }
            }
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut steps = vec![(0u32, 0u32, 0u32); total];
        for a in 0..k {
            for v in 0..n {
                for (r, &b) in row(a, v).iter().enumerate() {
                    steps[cursor[b as usize]] = (a as u32, v as u32, r as u32);
                    cursor[b as usize] += 1;
                }
            }
        }
        FlatSteps {
            steps,
            offsets,
            last_step_round,
        }
    }

    /// The one-unit-per-algorithm case of [`FlatSteps::build`]: identical
    /// output (same triples, same stable order, same extent), computed
    /// straight from each unit's `(delay, stride, trunc)` arithmetic.
    fn build_single_unit(
        n: usize,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        units: &[Unit],
        unit_of: &[usize],
    ) -> Self {
        // (unit, rounds) per scheduled algorithm, in algorithm order
        let scheduled: Vec<(usize, &Unit, u32)> = unit_of
            .iter()
            .enumerate()
            .filter(|&(_, &i)| i != usize::MAX)
            .map(|(a, &i)| (a, &units[i], algos[a].rounds()))
            .collect();
        let mut last_step_round = 0u64;
        let mut total = 0usize;
        for &(_, u, rounds) in &scheduled {
            for v in 0..n {
                let len = rounds.min(u.trunc[v]) as u64;
                if len > 0 {
                    last_step_round = last_step_round.max(u.delay[v] + (len - 1) * u.stride);
                    total += len as usize;
                }
            }
        }
        let mut offsets = vec![0usize; last_step_round as usize + 2];
        if units.iter().all(|u| u.stride == 1) {
            // Stride-1 counting via a difference array: each (a, v)
            // contributes one step to every big-round in the contiguous
            // range [delay[v], delay[v] + len), so per-round counts are the
            // running sum of O(k·n) range endpoints instead of `total`
            // individual increments.
            let mut diff = vec![0i64; last_step_round as usize + 2];
            for &(_, u, rounds) in &scheduled {
                for v in 0..n {
                    let len = rounds.min(u.trunc[v]) as u64;
                    if len > 0 {
                        diff[u.delay[v] as usize] += 1;
                        diff[(u.delay[v] + len) as usize] -= 1;
                    }
                }
            }
            let mut run = 0i64;
            for b in 0..=last_step_round as usize {
                run += diff[b];
                offsets[b + 1] = offsets[b] + run as usize;
            }
        } else {
            for &(_, u, rounds) in &scheduled {
                for v in 0..n {
                    for r in 0..rounds.min(u.trunc[v]) as u64 {
                        offsets[(u.delay[v] + r * u.stride) as usize + 1] += 1;
                    }
                }
            }
            for i in 1..offsets.len() {
                offsets[i] += offsets[i - 1];
            }
        }
        let mut cursor = offsets.clone();
        let mut steps = vec![(0u32, 0u32, 0u32); total];
        for &(a, u, rounds) in &scheduled {
            for v in 0..n {
                for r in 0..rounds.min(u.trunc[v]) as u64 {
                    let b = (u.delay[v] + r * u.stride) as usize;
                    steps[cursor[b]] = (a as u32, v as u32, r as u32);
                    cursor[b] += 1;
                }
            }
        }
        FlatSteps {
            steps,
            offsets,
            last_step_round,
        }
    }

    /// The last big-round with any step of `units`, or `None` if they
    /// schedule nothing — the extent of [`FlatSteps::build`]'s table,
    /// computed in `O(units · n)` without building it.
    ///
    /// Per `(a, v)` the scheduled prefix has length `L = max_u min(rounds,
    /// trunc_u[v])`, and its last round runs at the earliest `delay_u[v] +
    /// (L - 1) · stride_u` over the units that reach round `L - 1`.
    ///
    /// # Panics
    /// As [`FlatSteps::build`].
    pub(crate) fn last_big_round(
        n: usize,
        algos: &[Box<dyn BlackBoxAlgorithm>],
        units: &[Unit],
    ) -> Option<u64> {
        check_units(n, algos.len(), units);
        let mut len = vec![0u32; algos.len() * n];
        let mut last = vec![u64::MAX; algos.len() * n];
        for u in units {
            let rounds = algos[u.algo].rounds();
            for v in 0..n {
                let lim = rounds.min(u.trunc[v]);
                let i = u.algo * n + v;
                if lim == 0 || lim < len[i] {
                    continue;
                }
                let b = u.delay[v] + (lim as u64 - 1) * u.stride;
                last[i] = if lim > len[i] { b } else { last[i].min(b) };
                len[i] = lim;
            }
        }
        len.iter()
            .zip(&last)
            .filter(|&(&l, _)| l > 0)
            .map(|(_, &b)| b)
            .max()
    }

    /// Whether the table holds no step at all.
    pub(crate) fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Big-round `b`'s step triples (empty past the last step round).
    #[inline]
    pub(crate) fn at(&self, b: u64) -> &[(u32, u32, u32)] {
        let b = b as usize;
        if b + 1 >= self.offsets.len() {
            &[]
        } else {
            &self.steps[self.offsets[b]..self.offsets[b + 1]]
        }
    }
}
