//! Correctness checks. They run outside every timed region, and every
//! failure counts toward the run's error rate.

use cc_core::{PointEstimate, Route};
use cc_graphs::{bfs, Dist, Graph, INF};

/// Attempted and failed checks or requests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One estimate against the exact distance: never below it, and within the
/// bound of the guarantee it is tagged with. A missing estimate is right
/// only for an unreachable pair.
fn estimate_ok(exact: Dist, estimate: Option<PointEstimate>) -> bool {
    match estimate {
        None => exact >= INF,
        Some(e) => {
            exact < INF && e.dist >= exact && e.dist as f64 <= e.guarantee.bound(exact) + 1e-9
        }
    }
}

/// Checks the estimates of every `(s, v)` pair, `s` from `sources`, against
/// an exact BFS from `s`.
pub fn check_estimates(
    g: &Graph,
    sources: &[usize],
    estimate: impl Fn(usize, usize) -> Option<PointEstimate>,
) -> Tally {
    let mut tally = Tally::default();
    for &s in sources {
        let exact = bfs::sssp(g, s);
        for (v, &d) in exact.iter().enumerate() {
            tally.record(estimate_ok(d, estimate(s, v)));
        }
    }
    tally
}

/// A served route must be a walk over input-graph edges from `src` to
/// `dst`, its weight its edge count, no shorter than the exact distance and
/// no heavier than the estimate it is served beside.
fn route_ok(g: &Graph, exact: Dist, estimate: Option<PointEstimate>, route: &Route) -> bool {
    let Some(estimate) = estimate else {
        return false;
    };
    let mut at = route.src;
    for &(x, y) in &route.edges {
        if x != at || !g.has_edge(x as usize, y as usize) {
            return false;
        }
        at = y;
    }
    at == route.dst
        && route.weight as usize == route.edges.len()
        && route.weight >= exact
        && route.weight <= estimate.dist
}

/// Checks the routes of `pairs`; a pair with an estimate must have a route.
pub fn check_routes(
    g: &Graph,
    pairs: &[(usize, usize)],
    estimate: impl Fn(usize, usize) -> Option<PointEstimate>,
    route: impl Fn(usize, usize) -> Option<Route>,
) -> Tally {
    let mut tally = Tally::default();
    for &(u, v) in pairs {
        let exact = bfs::sssp(g, u)[v];
        let ok = match route(u, v) {
            Some(r) => route_ok(g, exact, estimate(u, v), &r),
            None => estimate(u, v).is_none(),
        };
        tally.record(ok);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_core::{Execution, SolverBuilder};
    use cc_graphs::generators;

    fn solved(record_paths: bool) -> (Graph, cc_core::Solver) {
        let g = generators::grid(6, 6);
        let mut solver = SolverBuilder::new(g.clone())
            .eps(0.25)
            .execution(Execution::Seeded(3))
            .record_paths(record_paths)
            .build()
            .expect("valid configuration");
        solver.apsp_2eps().expect("apsp2");
        solver.apsp_near_additive().expect("additive");
        (g, solver)
    }

    #[test]
    fn true_estimates_pass() {
        let (g, solver) = solved(false);
        let oracle = solver.freeze().expect("freeze");
        let sources: Vec<usize> = (0..g.n()).collect();
        let tally = check_estimates(&g, &sources, |u, v| oracle.dist(u, v));
        assert_eq!(tally.failed, 0);
        assert_eq!(tally.attempted, (g.n() * g.n()) as u64);
    }

    #[test]
    fn negative_control_corrupted_estimate_fails() {
        let (g, solver) = solved(false);
        let oracle = solver.freeze().expect("freeze");
        // One estimate lowered below the true distance.
        let tally = check_estimates(&g, &[0], |u, v| {
            let mut e = oracle.dist(u, v);
            if v == 5 {
                if let Some(e) = e.as_mut() {
                    e.dist -= 1;
                }
            }
            e
        });
        assert_eq!(tally.failed, 1);
        // One estimate beyond its guarantee's bound.
        let tally = check_estimates(&g, &[0], |u, v| {
            oracle.dist(u, v).map(|mut e| {
                if v == 35 {
                    e.dist = INF - 1;
                }
                e
            })
        });
        assert_eq!(tally.failed, 1);
    }

    #[test]
    fn negative_control_broken_route_fails() {
        let (g, solver) = solved(true);
        let oracle = solver.freeze_with_paths().expect("freeze");
        let pairs = [(0, 35), (3, 20), (7, 7)];
        let good = check_routes(
            &g,
            &pairs,
            |u, v| oracle.dist(u, v),
            |u, v| oracle.path(u, v),
        );
        assert_eq!(
            good,
            Tally {
                attempted: 3,
                failed: 0
            }
        );
        let bad = check_routes(
            &g,
            &pairs,
            |u, v| oracle.dist(u, v),
            |u, v| {
                oracle.path(u, v).map(|mut r| {
                    if let Some(last) = r.edges.last_mut() {
                        last.1 = (last.1 + 2) % 36; // not an edge, or wrong end
                    }
                    r
                })
            },
        );
        assert_eq!(bad.failed, 2);
    }
}
