//! Complete refutation of small-support constraint sets.
//!
//! Local search can find models but never prove their absence, so before
//! this step every contradiction the interval checks missed cost a full
//! iteration budget. The uServer replay and analysis workloads are full
//! of such sets: a negated tail literal that contradicts prefix literals
//! over the same few input bytes.
//!
//! The step takes the support variables of the items the seed assignment
//! leaves unsatisfied, closes that set over every item sharing a
//! variable, filters each variable's propagated domain through its unary
//! items, and backtracks over what remains, checking each multi-variable
//! item as soon as its last variable is assigned. Exhausting the search
//! is a proof of UNSAT for the whole set: a subset of its items already
//! has no model. Anything else — a model, a component over the caps, a
//! spent budget — is *no* proof, and the caller runs local search exactly
//! as if this step did not exist.

use crate::arena::VarId;
use crate::solve::Search;

/// Largest closed component (in variables) the step enumerates. Past it,
/// only domains pruned hard by unary items would let the backtracking
/// finish within [`MAX_EVALS`], so the closure stops early instead.
const MAX_VARS: usize = 8;

/// Widest propagated domain (values) the step enumerates: bytes and small
/// counters qualify, addresses and lengths do not.
const MAX_DOMAIN: i64 = 4096;

/// Item evaluations the step may spend before giving up, so a set that
/// defeats enumeration costs a bounded amount before local search takes
/// over. On the uServer tables no step comes near it: the slowest, proof
/// or not, takes about 0.6 ms.
const MAX_EVALS: usize = 400_000;

/// True when exhaustive search proves `search`'s items unsatisfiable.
/// The search's assignment and satisfaction flags are left untouched, so
/// a `false` answer leaves local search to start exactly where it would
/// have without this step.
pub(crate) fn refutes(search: &mut Search) -> bool {
    let Some((vars, items)) = component(search) else {
        return false;
    };
    let saved: Vec<i64> = vars.iter().map(|v| search.assign[v.0 as usize]).collect();
    let mut budget = MAX_EVALS;
    let refuted = exhausted(search, &vars, &items, &mut budget) == Some(true);
    for (v, old) in vars.iter().zip(saved) {
        search.assign[v.0 as usize] = old;
    }
    search.ev.invalidate();
    refuted
}

/// The variables and items connected to the unsatisfied items, or `None`
/// when the component grows past [`MAX_VARS`].
fn component(search: &Search) -> Option<(Vec<VarId>, Vec<usize>)> {
    let mut listed = search.sat.iter().map(|s| !s).collect::<Vec<bool>>();
    let mut items: Vec<usize> = (0..listed.len()).filter(|&i| listed[i]).collect();
    let mut vars: Vec<VarId> = Vec::new();
    let mut next = 0;
    while next < items.len() {
        for &v in &search.supports[items[next]] {
            if vars.contains(&v) {
                continue;
            }
            if vars.len() == MAX_VARS {
                return None;
            }
            vars.push(v);
            for &j in &search.var_lits[&v] {
                if !listed[j] {
                    listed[j] = true;
                    items.push(j);
                }
            }
        }
        next += 1;
    }
    Some((vars, items))
}

/// `Some(true)` when no assignment of `vars` satisfies `items`,
/// `Some(false)` when one does, `None` when a cap or the budget stopped
/// the search first.
fn exhausted(
    search: &mut Search,
    vars: &[VarId],
    items: &[usize],
    budget: &mut usize,
) -> Option<bool> {
    // Node consistency: a value survives only if every unary item on its
    // variable admits it.
    let mut doms: Vec<(VarId, Vec<i64>)> = Vec::with_capacity(vars.len());
    for &v in vars {
        let d = search.domains[v.0 as usize];
        if d.hi.saturating_sub(d.lo) >= MAX_DOMAIN {
            return None;
        }
        let unary: Vec<usize> = items
            .iter()
            .copied()
            .filter(|&i| search.supports[i] == [v])
            .collect();
        let mut vals = Vec::new();
        for x in d.lo..=d.hi {
            search.assign[v.0 as usize] = x;
            if all_hold(search, &unary, budget)? {
                vals.push(x);
            }
        }
        if vals.is_empty() {
            return Some(true);
        }
        doms.push((v, vals));
    }
    // Smallest domains first; each multi-variable item is checked at the
    // depth where its last variable is assigned.
    doms.sort_by_key(|(_, vals)| vals.len());
    let mut checks: Vec<Vec<usize>> = vec![Vec::new(); doms.len()];
    for &i in items {
        let sup = &search.supports[i];
        if sup.len() > 1 {
            let depth = sup
                .iter()
                .map(|v| {
                    doms.iter()
                        .position(|(d, _)| d == v)
                        .expect("the component holds every support variable of its items")
                })
                .max()
                .expect("the support has more than one variable");
            checks[depth].push(i);
        }
    }
    Some(!backtrack(search, &doms, &checks, 0, budget)?)
}

/// Depth-first search for an assignment of `doms[depth..]` passing every
/// check; `Some(true)` when one exists.
fn backtrack(
    search: &mut Search,
    doms: &[(VarId, Vec<i64>)],
    checks: &[Vec<usize>],
    depth: usize,
    budget: &mut usize,
) -> Option<bool> {
    let Some((v, vals)) = doms.get(depth) else {
        return Some(true);
    };
    for &x in vals {
        search.assign[v.0 as usize] = x;
        if all_hold(search, &checks[depth], budget)?
            && backtrack(search, doms, checks, depth + 1, budget)?
        {
            return Some(true);
        }
    }
    Some(false)
}

/// Whether every item holds under the current assignment, charging one
/// evaluation per item checked; `None` once the budget is spent.
fn all_hold(search: &mut Search, items: &[usize], budget: &mut usize) -> Option<bool> {
    search.ev.invalidate();
    for &i in items {
        *budget = budget.checked_sub(1)?;
        if !search.lit_holds(i) {
            return Some(false);
        }
    }
    Some(true)
}
