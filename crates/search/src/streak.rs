//! The solve streak both engines share: turn the frontier's next
//! pending sets into the next candidate input.
//!
//! After a run is banked and the arena frozen, an engine calls
//! [`solve_next`]. It pops one pending set at a time, in the frontier's
//! order, solves it on the calling thread against the frozen arena and
//! commits the verdict, until one set is satisfiable, the frontier
//! drains, or the wall clock runs out. This is the paper's §3.2 loop:
//! the engine runs the winning model itself, on its own arena.

use crate::{signature, Frontier, SearchLimits};
use solver::{mix_seed, solve_or_pin, ExprArena, PrefixCache, SolveCfg, SolveStats};
use std::time::Instant;

/// Counters over the solver calls of a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveTally {
    /// Solver calls.
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
    /// Session seed: call `n` (1-based) solves under `mix_seed(seed, n)`.
    pub seed: u64,
    /// Prefix-cache switch and wall-clock cap.
    pub limits: &'a SearchLimits,
    /// When the session started (the wall-clock cap counts from here).
    pub start: Instant,
}

/// Solves pending sets in the frontier's order until one is
/// satisfiable. Every call is counted into `tally` and its verdict into
/// the frontier. `on_unsat(sig, frontier)` runs after each UNSAT
/// verdict, before the wall-clock check; whatever it offers is popped
/// next if it lands on the priority lane.
pub fn solve_next(
    frontier: &mut Frontier,
    ctx: &SolveCtx<'_>,
    tally: &mut SolveTally,
    mut on_unsat: impl FnMut(u128, &mut Frontier),
) -> Streak {
    let cache = ctx.limits.prefix_cache.then_some(ctx.cache);
    while let Some(set) = frontier.pop() {
        let cfg = SolveCfg {
            seed: mix_seed(ctx.seed, tally.calls + 1),
            ..ctx.solve.clone()
        };
        let (model, stats) = solve_or_pin(ctx.arena, &set.cs, Some(&set.seed), &cfg, cache);
        tally.note(&stats, model.is_some());
        let sig = signature(&set.cs);
        frontier.note_solved_sig(sig, model.is_some());
        if let Some(model) = model {
            return Streak::Model(model);
        }
        on_unsat(sig, frontier);
        if ctx.limits.wall_expired(ctx.start) {
            return Streak::TimedOut;
        }
    }
    Streak::Drained
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
        // frontier promotes it to the priority lane.
        let repair = pinned(&mut arena, &[10]);
        arena.freeze();
        (arena, frontier, repair)
    }

    #[test]
    fn unsat_hook_offers_are_solved_next() {
        // Streaks until the frontier drains. The hook offers `repair`
        // on the priority lane after the second UNSAT, so it is solved
        // right after that verdict, ahead of `x == 5`.
        let (arena, mut frontier, repair) = session();
        let cache = PrefixCache::new();
        let limits = SearchLimits::analysis();
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
            let streak = solve_next(&mut frontier, &ctx, &mut tally, |_, frontier| {
                unsat += 1;
                if unsat == 2 {
                    frontier.offer_priority(repair.clone(), vec![0x20], false);
                }
            });
            let done = streak == Streak::Drained;
            streaks.push(streak);
            if done {
                break;
            }
        }
        assert_eq!(tally.calls, 6, "the promoted set is solved once");
        assert_eq!(tally.sat, 2, "x == 5 and x == 10");
        assert_eq!(tally.cache_hits + tally.cache_misses, tally.calls);
        assert_eq!(
            streaks,
            vec![
                Streak::Model(vec![10]),
                Streak::Model(vec![5]),
                Streak::Drained
            ],
            "promoted ahead of x == 5"
        );
        let verdicts: Vec<bool> = frontier.stats().solved_sigs.iter().map(|v| v.1).collect();
        assert_eq!(verdicts, [false, false, true, true, false, false]);
        assert_eq!(frontier.stats().solved_sat, 2);
        assert_eq!(frontier.stats().solved_unsat, 4);
    }

    #[test]
    fn expired_wall_clock_stops_after_an_unsat() {
        let (arena, mut frontier, _) = session();
        let cache = PrefixCache::new();
        let limits = SearchLimits {
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
        assert_eq!(frontier.len(), 5, "the unsolved sets stay queued");
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
