//! The shared search-budget surface.
//!
//! Both engines read the same knobs — run caps, per-run fuel, wall
//! clock, frontier caps, scheduling policy, prefix cache.
//! [`SearchLimits`] is their single definition; `concolic::Budget`
//! embeds it (via `Deref`, so `budget.max_runs` reads and writes
//! directly) next to the one knob that is not a search limit (the
//! concretization mode), and both engines take that one budget type.

use crate::SearchPolicy;
use std::time::Instant;

/// The knobs shared by every frontier-driven search session, whether
/// the concolic analysis engine or the log-guided replay engine drives
/// it. Embedded by `concolic::Budget`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchLimits {
    /// Maximum runs (path explorations / replay candidates).
    pub max_runs: usize,
    /// Instruction budget per run.
    pub fuel_per_run: u64,
    /// Optional wall-clock cap in milliseconds (0 = none).
    pub max_wall_ms: u64,
    /// Pending constraint sets scheduled per run. Bounds the
    /// otherwise-quadratic prefix copying on long paths.
    pub max_pendings_per_run: usize,
    /// Pending sets longer than this many literals are skipped (too
    /// deep to solve within interactive budgets).
    pub max_pending_lits: usize,
    /// Frontier scheduling policy (strategy, per-branch quotas, drain
    /// restarts, forced-set repair).
    pub policy: SearchPolicy,
    /// Path-prefix solve cache over the frozen arena generations.
    /// Outcome-identical; only changes wall time.
    pub prefix_cache: bool,
}

impl SearchLimits {
    /// The concolic analysis defaults: the paper's deterministic
    /// stand-in for the 1-hour LC budget (64 runs).
    pub fn analysis() -> Self {
        SearchLimits {
            max_runs: 64,
            fuel_per_run: 20_000_000,
            max_wall_ms: 0,
            max_pendings_per_run: 64,
            max_pending_lits: 4000,
            policy: SearchPolicy::default(),
            prefix_cache: true,
        }
    }

    /// The replay defaults: the developer-site search gets a deeper
    /// run budget (512) because a replay that stops short is useless.
    pub fn replay() -> Self {
        SearchLimits {
            max_runs: 512,
            ..SearchLimits::analysis()
        }
    }

    /// True once the wall-clock cap has passed (never when the cap is
    /// 0). Checked after every run and after every UNSAT verdict.
    pub fn wall_expired(&self, start: Instant) -> bool {
        self.max_wall_ms > 0 && start.elapsed().as_millis() as u64 > self.max_wall_ms
    }
}

impl Default for SearchLimits {
    fn default() -> Self {
        SearchLimits::analysis()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_and_replay_differ_only_in_run_budget() {
        let a = SearchLimits::analysis();
        let r = SearchLimits::replay();
        assert_eq!(a.max_runs, 64);
        assert_eq!(r.max_runs, 512);
        assert_eq!(SearchLimits { max_runs: 64, ..r }, a);
        assert_eq!(SearchLimits::default(), SearchLimits::analysis());
    }
}
