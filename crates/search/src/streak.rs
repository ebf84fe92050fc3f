//! The solve streak both engines share: turn the frontier's next
//! pending sets into the next candidate input.
//!
//! After a run is banked and the arena frozen, an engine calls
//! [`solve_next`]. It pops pending sets in the frontier's order and
//! solves them until one is satisfiable, the frontier drains, or the
//! wall clock runs out. With `workers > 1` it pops up to `workers` sets
//! at a time and solves them concurrently against the frozen arena
//! ([`crate::pool::parallel_map`]). Verdicts are still committed one by
//! one in pop order, and the unconsumed tail goes back
//! ([`Frontier::restore`]) before anything mutates the frontier. Only
//! solving is speculative: the engine runs the winning model itself, on
//! its own arena, so the verdict stream, the arena numbering and the
//! witness are the same at every worker count.

use crate::pool::parallel_map;
use crate::{signature, Frontier, SearchLimits, SpeculativePop};
use solver::{mix_seed, solve_or_pin_ro_cached, ExprArena, PrefixCache, SolveCfg, SolveStats};
use std::time::Instant;

/// Counters over the committed solver calls of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTally {
    /// Committed solver calls.
    pub calls: u64,
    /// Calls that found a model.
    pub sat: u64,
    /// Calls that retried with the hard-pinned variant after the
    /// bounded form went unsolved.
    pub pin_fallbacks: u64,
    /// Calls that started from a cached path prefix.
    pub cache_hits: u64,
    /// Calls that found no cached prefix (every call with the prefix
    /// cache disabled).
    pub cache_misses: u64,
    /// Literals skipped via cached prefixes, over all hits.
    pub prefix_lits_saved: u64,
}

impl SolveTally {
    fn note(&mut self, stats: &SolveStats, sat: bool) {
        self.merge(&SolveTally {
            calls: 1,
            sat: u64::from(sat),
            pin_fallbacks: u64::from(stats.pin_fallback),
            cache_hits: u64::from(stats.prefix_hit),
            cache_misses: u64::from(!stats.prefix_hit),
            prefix_lits_saved: stats.prefix_lits_saved,
        });
    }

    /// Adds `other`'s counts into this tally.
    pub fn merge(&mut self, other: &SolveTally) {
        self.calls += other.calls;
        self.sat += other.sat;
        self.pin_fallbacks += other.pin_fallbacks;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.prefix_lits_saved += other.prefix_lits_saved;
    }
}

/// How a solve streak ended.
#[derive(Debug, PartialEq, Eq)]
pub enum Streak {
    /// The first satisfiable set in pop order; its model is the next
    /// candidate input.
    Model(Vec<i64>),
    /// The frontier ran dry without a model.
    Drained,
    /// The wall-clock cap passed after an UNSAT verdict.
    TimedOut,
}

/// What a streak solves against.
pub struct SolveCtx<'a> {
    /// The session arena, frozen since the last banked run.
    pub arena: &'a ExprArena,
    /// The session's prefix cache (read only while
    /// [`SearchLimits::prefix_cache`] is set).
    pub cache: &'a PrefixCache,
    /// Solver configuration; each call reseeds it.
    pub solve: &'a SolveCfg,
    /// Session seed: call `n` (1-based, in commit order) solves under
    /// `mix_seed(seed, n)`, whichever worker runs it.
    pub seed: u64,
    /// Worker count, prefix-cache switch and wall-clock cap.
    pub limits: &'a SearchLimits,
    /// When the session started (the wall-clock cap counts from here).
    pub start: Instant,
}

/// The frontier as an UNSAT hook sees it. The sets popped after the
/// UNSAT one may still be out on speculation; the first call to
/// [`Tail::frontier`] puts them back, so whatever the hook then offers
/// lands exactly where a one-set-at-a-time search would put it.
pub struct Tail<'f> {
    frontier: &'f mut Frontier,
    unused: Option<std::vec::IntoIter<SpeculativePop>>,
}

impl Tail<'_> {
    /// The frontier, with every unconsumed speculative pop restored.
    pub fn frontier(&mut self) -> &mut Frontier {
        if let Some(rest) = self.unused.take() {
            self.frontier.restore(rest.collect());
        }
        self.frontier
    }
}

/// Solves pending sets in the frontier's order until one is
/// satisfiable (see the module docs for the protocol). Every committed
/// call is counted into `tally` and its verdict into the frontier.
/// `on_unsat(sig, tail)` runs after each UNSAT verdict, before the
/// wall-clock check; a hook that mutates the frontier reaches it
/// through [`Tail::frontier`]. A `workers` limit of 0 counts as 1.
pub fn solve_next(
    frontier: &mut Frontier,
    ctx: &SolveCtx<'_>,
    tally: &mut SolveTally,
    mut on_unsat: impl FnMut(u128, &mut Tail<'_>),
) -> Streak {
    let workers = ctx.limits.workers.max(1);
    let cache = ctx.limits.prefix_cache.then_some(ctx.cache);
    'batch: loop {
        let batch = frontier.pop_batch(workers);
        if batch.is_empty() {
            return Streak::Drained;
        }
        let base = tally.calls;
        let solve = |i: usize, pop: &SpeculativePop| {
            let cfg = SolveCfg {
                seed: mix_seed(ctx.seed, base + i as u64 + 1),
                ..ctx.solve.clone()
            };
            solve_or_pin_ro_cached(ctx.arena, &pop.set.cs, Some(&pop.set.seed), &cfg, cache)
        };
        let phase = parallel_map(workers, batch.iter().collect(), solve);
        if workers > 1 {
            frontier.note_worker_runs(&phase.worker_counts);
        }
        let mut pops = batch.into_iter();
        for (model, stats) in phase.results {
            let pop = pops.next().expect("one verdict per popped set");
            tally.note(&stats, model.is_some());
            let sig = signature(&pop.set.cs);
            frontier.note_solved_sig(sig, model.is_some());
            if let Some(model) = model {
                frontier.restore(pops.collect());
                return Streak::Model(model);
            }
            let mut tail = Tail {
                frontier: &mut *frontier,
                unused: Some(pops),
            };
            on_unsat(sig, &mut tail);
            let unused = tail.unused;
            if ctx.limits.wall_expired(ctx.start) {
                if let Some(rest) = unused {
                    frontier.restore(rest.collect());
                }
                return Streak::TimedOut;
            }
            match unused {
                Some(rest) => pops = rest,
                // The hook restored the tail: re-pop from the frontier
                // as it now stands.
                None => continue 'batch,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchPolicy;
    use solver::{ConstraintSet, Lit, Op, VarInfo};
    use std::time::Duration;

    /// One byte variable `x`; `x == c` is satisfiable, `x == a && x ==
    /// b` (a != b) is refuted.
    fn pinned(arena: &mut ExprArena, values: &[i64]) -> ConstraintSet {
        let x = arena.var_expr(solver::VarId(0));
        let mut cs = ConstraintSet::new();
        for v in values {
            let c = arena.constant(*v);
            cs.push(Lit {
                expr: arena.bin(Op::Eq, x, c),
                positive: true,
            });
        }
        cs
    }

    fn session() -> (ExprArena, Frontier, ConstraintSet) {
        let mut arena = ExprArena::new();
        arena.fresh_var(VarInfo::byte());
        let mut frontier = Frontier::new(SearchPolicy::default(), 64, 4000);
        frontier.begin_run();
        for values in [&[1, 2][..], &[3, 4], &[5], &[6, 7], &[8, 9], &[10]] {
            let cs = pinned(&mut arena, values);
            assert!(frontier.offer(cs, vec![0x20], None));
        }
        frontier.end_run();
        // The hook's offer re-offers a set that is still queued: the
        // frontier promotes it to the priority lane — but only if a
        // speculative pop of it was put back first.
        let repair = pinned(&mut arena, &[10]);
        arena.freeze();
        (arena, frontier, repair)
    }

    type Observation = (Vec<Streak>, Vec<(u128, bool)>, SolveTally, u64, u64);

    /// Streaks until the frontier drains. The hook offers `repair` on
    /// the priority lane after the second UNSAT, so the speculative
    /// tail must be back in the frontier before the offer.
    fn drive(workers: usize) -> Observation {
        let (arena, mut frontier, repair) = session();
        let cache = PrefixCache::new();
        let limits = SearchLimits {
            workers,
            ..SearchLimits::analysis()
        };
        let ctx = SolveCtx {
            arena: &arena,
            cache: &cache,
            solve: &SolveCfg::default(),
            seed: 3,
            limits: &limits,
            start: Instant::now(),
        };
        let mut tally = SolveTally::default();
        let mut unsat = 0;
        let mut streaks = Vec::new();
        loop {
            let streak = solve_next(&mut frontier, &ctx, &mut tally, |_, tail| {
                unsat += 1;
                if unsat == 2 {
                    tail.frontier()
                        .offer_priority(repair.clone(), vec![0x20], false);
                }
            });
            let done = streak == Streak::Drained;
            streaks.push(streak);
            if done {
                break;
            }
        }
        let stats = frontier.into_stats();
        let consumed = stats.popped - stats.restored;
        (streaks, stats.solved_sigs, tally, stats.committed, consumed)
    }

    #[test]
    fn every_worker_count_commits_the_same_streaks() {
        let one = drive(1);
        assert_eq!(one.2.calls, 6, "the promoted set is solved once");
        assert_eq!(one.2.sat, 2, "x == 5 and x == 10");
        assert_eq!(
            one.0[0],
            Streak::Model(vec![10]),
            "promoted ahead of x == 5"
        );
        assert_eq!(one.2.cache_hits + one.2.cache_misses, one.2.calls);
        assert_eq!(one.3, one.4, "every consumed pop is committed");
        assert_eq!(
            one.0
                .iter()
                .filter(|s| matches!(s, Streak::Model(_)))
                .count(),
            2
        );
        for workers in [0, 2, 3, 8] {
            assert_eq!(one, drive(workers), "workers={workers} diverged");
        }
    }

    #[test]
    fn expired_wall_clock_stops_after_an_unsat_and_restores_the_tail() {
        let (arena, mut frontier, _) = session();
        let cache = PrefixCache::new();
        let limits = SearchLimits {
            workers: 4,
            max_wall_ms: 1,
            ..SearchLimits::analysis()
        };
        let start = Instant::now()
            .checked_sub(Duration::from_secs(1))
            .unwrap_or_else(|| {
                std::thread::sleep(Duration::from_millis(5));
                Instant::now()
            });
        let ctx = SolveCtx {
            arena: &arena,
            cache: &cache,
            solve: &SolveCfg::default(),
            seed: 3,
            limits: &limits,
            start,
        };
        let mut tally = SolveTally::default();
        let streak = solve_next(&mut frontier, &ctx, &mut tally, |_, _| {});
        assert_eq!(streak, Streak::TimedOut);
        assert_eq!(tally.calls, 1);
        let stats = frontier.stats();
        assert_eq!(stats.popped, stats.committed + stats.restored);
        assert_eq!(frontier.len(), 5, "the speculative tail went back");
    }

    #[test]
    fn tallies_merge_fieldwise() {
        let mut a = SolveTally {
            calls: 2,
            sat: 1,
            pin_fallbacks: 0,
            cache_hits: 1,
            cache_misses: 1,
            prefix_lits_saved: 3,
        };
        a.merge(&a.clone());
        assert_eq!(
            (a.calls, a.sat, a.cache_hits, a.prefix_lits_saved),
            (4, 2, 2, 6)
        );
    }
}
