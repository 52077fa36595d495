//! Online placement maintenance: staleness watching, swap-repair, and
//! escalation to a full re-greedy.
//!
//! ## Policy
//!
//! The maintainer holds the serving placement and a *certified fraction*
//! baseline: `value / singleton_upper_bound` measured when the placement was
//! last adopted (the singleton bound from `rap_core::bounds` is one cheap
//! pass over the candidates, and no placement of size `k` can beat it, so
//! the fraction is a drift-robust quality certificate — rescaling all
//! volumes leaves it unchanged).
//!
//! Every `check_interval` applied deltas it re-measures the fraction
//! straight off the scenario's live arrays
//! ([`MutableScenario::singleton_upper_bound`] and
//! [`MutableScenario::evaluate_current`], both bit-identical to measuring a
//! snapshot), so a clean check materializes nothing. Only when the fraction
//! has decayed more than `staleness_threshold` relative to the baseline does
//! the check materialize a snapshot, off the intervention clock, and
//! intervene:
//!
//! 1. **Repair** — swap local search (`rap_core::SwapSearch`) from the
//!    current placement: cheap, usually recovers a few drifted RAPs.
//! 2. **Resolve** — if the repaired placement is *still* stale, escalate to
//!    a full re-greedy on the inverted-index delta-propagation engine
//!    (`rap_core::InvertedGainEngine`), run on the caller's thread, and
//!    adopt its placement when it is at least as good as the repair. The
//!    flow→candidate index is built for that escalation's snapshot with
//!    [`MaintainerConfig::threads`] workers; every applied delta moves the
//!    snapshot on, so there is no index worth keeping between escalations.
//!
//! Initial solves and escalations reset the baseline to the fraction the
//! greedy actually achieved (the attainable level); clean checks and repairs
//! only ever *raise* it. The upward ratchet matters in both directions of
//! drift: when new traffic raises the attainable level, the baseline follows
//! the serving placement's own best observed fraction instead of staying at
//! a stale adoption-time low; and a repair that lands slightly below the
//! baseline keeps accumulating staleness against it instead of ratcheting it
//! down — without this, a long run of individually sub-threshold slips could
//! compound into unbounded drift. The policy is deterministic under the
//! config seed; wall-clock time is recorded for metrics but never consulted
//! for decisions.

use crate::delta::StreamError;
use rap_core::{
    singleton_upper_bound, InvertedGainEngine, InvertedIndex, MutableScenario, Placement, Scenario,
    SwapSearch,
};
use serde::Serialize;
use std::time::Instant;

/// Maintenance policy knobs.
#[derive(Clone, Debug)]
pub struct MaintainerConfig {
    /// Number of RAPs to serve.
    pub k: usize,
    /// Relative certified-fraction decay that triggers a repair (e.g.
    /// `0.05` = repair once quality certifiably slipped 5% versus adoption
    /// time).
    pub staleness_threshold: f64,
    /// Applied deltas between staleness checks.
    pub check_interval: u64,
    /// Worker threads for the inverted-index build behind the initial solve
    /// and each escalation; the greedy itself runs on the caller's thread.
    /// Placements are identical at every value.
    pub threads: usize,
    /// Swap-repair parameters.
    pub swap: SwapSearch,
    /// Seed reserved for randomized engine runs. The current repair and
    /// escalation engines are fully deterministic, so the maintenance
    /// trajectory depends only on the delta stream and these knobs.
    pub seed: u64,
}

impl Default for MaintainerConfig {
    fn default() -> Self {
        MaintainerConfig {
            k: 5,
            staleness_threshold: 0.05,
            check_interval: 32,
            threads: 4,
            swap: SwapSearch::default(),
            seed: 2015,
        }
    }
}

/// What the maintainer did after a delta was applied.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MaintainAction {
    /// Not a check boundary; nothing measured.
    None,
    /// Measured staleness was within tolerance; placement kept.
    Checked {
        /// Relative certified-fraction decay measured at this check.
        staleness: f64,
    },
    /// Swap-repair ran and its placement was adopted.
    Repaired {
        /// Staleness that triggered the repair.
        staleness: f64,
        /// Objective value of the adopted placement.
        objective: f64,
        /// Repair wall-clock latency, microseconds (metrics only).
        latency_us: u64,
    },
    /// Swap-repair stalled; the full re-greedy ran and the better of its
    /// placement and the repair was adopted.
    Resolved {
        /// Staleness that triggered the escalation.
        staleness: f64,
        /// Objective value of the adopted placement.
        objective: f64,
        /// Combined repair + re-greedy latency, microseconds (metrics only).
        latency_us: u64,
    },
}

/// Lifetime counters for the maintenance loop.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct MaintainerStats {
    /// Staleness checks performed.
    pub checks: u64,
    /// Swap-repairs adopted.
    pub repairs: u64,
    /// Full re-greedy escalations adopted.
    pub resolves: u64,
    /// Total time spent inside adopted repairs, microseconds.
    pub repair_us: u64,
    /// Total time spent inside escalations, microseconds.
    pub resolve_us: u64,
    /// Worst single repair-or-resolve latency, microseconds.
    pub max_intervention_us: u64,
}

/// The maintainer's scalar state, extracted for persistence and restored
/// on resume. Together with the serving [`Placement`] (persisted in the
/// snapshot proper) this is everything a crashed stream needs to continue
/// the exact maintenance trajectory.
#[derive(Clone, Copy, Debug)]
pub struct MaintainerState {
    /// Objective at the last measurement.
    pub objective: f64,
    /// Certified fraction recorded at the last adoption.
    pub baseline_certified: f64,
    /// Applied deltas since the last staleness check.
    pub deltas_since_check: u64,
    /// Lifetime counters.
    pub stats: MaintainerStats,
}

/// Keeps a placement serving while the scenario drifts underneath it.
#[derive(Debug)]
pub struct Maintainer {
    cfg: MaintainerConfig,
    placement: Placement,
    /// Objective at the last measurement (check or adoption).
    objective: f64,
    /// Certified fraction at the last adoption.
    baseline_certified: f64,
    deltas_since_check: u64,
    stats: MaintainerStats,
}

impl Maintainer {
    /// Solves the initial placement on a fresh snapshot and adopts it.
    ///
    /// # Errors
    ///
    /// Propagates scenario evaluation failures (none today — the signature
    /// leaves room for fallible solves).
    pub fn new(cfg: MaintainerConfig, scenario: &mut MutableScenario) -> Result<Self, StreamError> {
        let snap = scenario.snapshot();
        let placement = solve(&snap, cfg.k, cfg.threads);
        let objective = snap.evaluate(&placement);
        let baseline_certified = certified(objective, singleton_upper_bound(&snap, cfg.k));
        Ok(Maintainer {
            cfg,
            placement,
            objective,
            baseline_certified,
            deltas_since_check: 0,
            stats: MaintainerStats::default(),
        })
    }

    /// Reconstructs a maintainer mid-trajectory from a persisted placement
    /// and [`MaintainerState`] — no initial solve runs.
    pub fn resume(cfg: MaintainerConfig, placement: Placement, state: MaintainerState) -> Self {
        Maintainer {
            cfg,
            placement,
            objective: state.objective,
            baseline_certified: state.baseline_certified,
            deltas_since_check: state.deltas_since_check,
            stats: state.stats,
        }
    }

    /// The scalar state to persist alongside the serving placement.
    pub fn state(&self) -> MaintainerState {
        MaintainerState {
            objective: self.objective,
            baseline_certified: self.baseline_certified,
            deltas_since_check: self.deltas_since_check,
            stats: self.stats,
        }
    }

    /// Call after every applied delta; runs a staleness check every
    /// `check_interval` deltas and repairs/escalates as needed.
    pub fn note_delta(&mut self, scenario: &mut MutableScenario) -> MaintainAction {
        self.deltas_since_check += 1;
        if self.deltas_since_check < self.cfg.check_interval.max(1) {
            return MaintainAction::None;
        }
        self.deltas_since_check = 0;
        self.check(scenario)
    }

    /// Runs one staleness check immediately (used at check boundaries and
    /// by callers that want a final measurement at end of stream).
    pub fn check(&mut self, scenario: &mut MutableScenario) -> MaintainAction {
        self.stats.checks += 1;
        // Both measurements read the live arrays, bit-identical to the
        // snapshot's: most checks find nothing stale and never materialize.
        let ub = scenario.singleton_upper_bound(self.cfg.k);
        self.objective = scenario.evaluate_current(&self.placement);
        let certified_now = certified(self.objective, ub);
        let staleness = self.staleness(certified_now);
        if staleness <= self.cfg.staleness_threshold {
            // Ratchet the baseline up with the observation: when drift makes
            // the serving placement *better* certified (e.g. new volume lands
            // on already-chosen RAPs), later decay is measured from that high
            // point, not from a stale adoption-time level.
            self.baseline_certified = self.baseline_certified.max(certified_now);
            return MaintainAction::Checked { staleness };
        }

        // Repair: swap local search from the serving placement, on a snapshot
        // materialized off the intervention clock.
        let snap = scenario.snapshot();
        let start = Instant::now();
        let (repaired, repaired_value) = self.cfg.swap.refine(&snap, self.placement.clone());
        let repaired_staleness = self.staleness(certified(repaired_value, ub));
        if repaired_staleness <= self.cfg.staleness_threshold {
            let latency_us = start.elapsed().as_micros() as u64;
            self.adopt_repair(repaired, repaired_value, ub);
            self.stats.repairs += 1;
            self.stats.repair_us += latency_us;
            self.stats.max_intervention_us = self.stats.max_intervention_us.max(latency_us);
            return MaintainAction::Repaired {
                staleness,
                objective: repaired_value,
                latency_us,
            };
        }

        // Resolve: swaps stalled — full re-greedy on the inverted engine.
        let resolved = solve(&snap, self.cfg.k, self.cfg.threads);
        let resolved_value = snap.evaluate(&resolved);
        let latency_us = start.elapsed().as_micros() as u64;
        // Keep whichever is better; re-greedy can only tie-or-beat swaps in
        // practice, but the comparison makes adoption monotone by contract.
        if resolved_value >= repaired_value {
            self.adopt(resolved, resolved_value, ub);
        } else {
            self.adopt(repaired, repaired_value, ub);
        }
        self.stats.resolves += 1;
        self.stats.resolve_us += latency_us;
        self.stats.max_intervention_us = self.stats.max_intervention_us.max(latency_us);
        MaintainAction::Resolved {
            staleness,
            objective: self.objective,
            latency_us,
        }
    }

    /// Full adoption (initial solve, escalation): the greedy just measured
    /// the attainable certified fraction, so the baseline resets to it.
    fn adopt(&mut self, placement: Placement, objective: f64, ub: f64) {
        self.placement = placement;
        self.objective = objective;
        self.baseline_certified = certified(objective, ub);
    }

    /// Repair adoption: serve the repaired placement but never lower the
    /// baseline — sub-threshold slips must accumulate toward escalation
    /// rather than compound silently.
    fn adopt_repair(&mut self, placement: Placement, objective: f64, ub: f64) {
        let floor = self.baseline_certified;
        self.adopt(placement, objective, ub);
        self.baseline_certified = self.baseline_certified.max(floor);
    }

    /// Relative certified-fraction decay versus the adoption baseline,
    /// clamped to `[0, 1]`.
    fn staleness(&self, certified_now: f64) -> f64 {
        if self.baseline_certified <= 0.0 {
            return 0.0;
        }
        (1.0 - certified_now / self.baseline_certified).clamp(0.0, 1.0)
    }

    /// The serving placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Objective value at the most recent measurement.
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Certified fraction recorded at the last adoption.
    pub fn baseline_certified(&self) -> f64 {
        self.baseline_certified
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MaintainerStats {
        self.stats
    }
}

/// The greedy behind the initial solve and every escalation: the inverted
/// engine over an index built for `snap` with `threads` workers. Its
/// placement is `MarginalGreedy`'s, bit for bit.
fn solve(snap: &Scenario, k: usize, threads: usize) -> Placement {
    let index = InvertedIndex::build_with_threads(snap, threads.max(1));
    InvertedGainEngine.place_with_index(snap, &index, k).0
}

fn certified(value: f64, upper_bound: f64) -> f64 {
    if upper_bound > 0.0 {
        value / upper_bound
    } else {
        1.0 // empty scenario: nothing to attract, nothing stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rap_core::{FlowDelta, MarginalGreedy, PlacementAlgorithm, UtilityKind};
    use rap_graph::{Distance, GridGraph, NodeId};
    use rap_traffic::{FlowSet, FlowSpec};

    fn scenario_with(specs: Vec<FlowSpec>) -> MutableScenario {
        let grid = GridGraph::new(5, 5, Distance::from_feet(200));
        let flows = FlowSet::route(grid.graph(), specs).unwrap();
        MutableScenario::new(
            grid.graph().clone(),
            flows,
            vec![grid.center()],
            UtilityKind::Linear.instantiate(Distance::from_feet(1_500)),
        )
        .unwrap()
    }

    fn spec(o: u32, d: u32, vol: f64) -> FlowSpec {
        FlowSpec::new(NodeId::new(o), NodeId::new(d), vol)
            .unwrap()
            .with_attractiveness(0.3)
            .unwrap()
    }

    fn config(interval: u64) -> MaintainerConfig {
        MaintainerConfig {
            k: 2,
            check_interval: interval,
            threads: 2,
            ..MaintainerConfig::default()
        }
    }

    #[test]
    fn initial_solve_matches_sequential_greedy() {
        let mut m = scenario_with(vec![spec(0, 24, 900.0), spec(4, 20, 500.0)]);
        let maintainer = Maintainer::new(config(8), &mut m).unwrap();
        let snap = m.snapshot();
        let seq = MarginalGreedy.place(&snap, 2, &mut StdRng::seed_from_u64(0));
        assert_eq!(maintainer.placement(), &seq);
        assert_eq!(
            maintainer.objective().to_bits(),
            snap.evaluate(&seq).to_bits()
        );
    }

    #[test]
    fn checks_fire_on_the_interval() {
        let mut m = scenario_with(vec![spec(0, 24, 900.0), spec(4, 20, 500.0)]);
        let mut maintainer = Maintainer::new(config(3), &mut m).unwrap();
        for i in 1..=7u64 {
            m.apply(&FlowDelta::RescaleFlow {
                flow: 0,
                factor: 1.01,
            })
            .unwrap();
            let action = maintainer.note_delta(&mut m);
            if i % 3 == 0 {
                assert_ne!(action, MaintainAction::None, "delta {i} is a boundary");
            } else {
                assert_eq!(action, MaintainAction::None, "delta {i} not a boundary");
            }
        }
        assert_eq!(maintainer.stats().checks, 2);
    }

    #[test]
    fn uniform_rescaling_is_never_stale() {
        // Certified fraction is scale-invariant: doubling every volume
        // doubles both the objective and the singleton bound. Checks fire
        // only at full-sweep boundaries (mid-sweep the mix has genuinely
        // shifted, so staleness there would be real, not a bug).
        let mut m = scenario_with(vec![spec(0, 24, 900.0), spec(4, 20, 500.0)]);
        let mut maintainer = Maintainer::new(config(2), &mut m).unwrap();
        for _ in 0..4 {
            for flow in m.live_stable_ids() {
                m.apply(&FlowDelta::RescaleFlow { flow, factor: 2.0 })
                    .unwrap();
                match maintainer.note_delta(&mut m) {
                    MaintainAction::None => {}
                    MaintainAction::Checked { staleness } => {
                        assert!(
                            staleness < 1e-9,
                            "uniform rescale looked stale: {staleness}"
                        )
                    }
                    other => panic!("expected clean check, got {other:?}"),
                }
            }
        }
        assert_eq!(maintainer.stats().repairs + maintainer.stats().resolves, 0);
    }

    #[test]
    fn heavy_drift_triggers_intervention_and_recovers_quality() {
        // Start with traffic in one corner, then move all of it to the
        // opposite corner: the adopted placement must follow.
        let mut m = scenario_with(vec![spec(0, 6, 900.0), spec(1, 5, 700.0)]);
        let mut maintainer = Maintainer::new(config(1), &mut m).unwrap();
        // Kill the original corner and grow a far one.
        m.apply(&FlowDelta::RemoveFlow { flow: 0 }).unwrap();
        maintainer.note_delta(&mut m);
        m.apply(&FlowDelta::RemoveFlow { flow: 1 }).unwrap();
        maintainer.note_delta(&mut m);
        for _ in 0..3 {
            m.apply(&FlowDelta::AddFlow {
                origin: NodeId::new(24),
                destination: NodeId::new(18),
                volume: 800.0,
                alpha: 0.3,
            })
            .unwrap();
            maintainer.note_delta(&mut m);
        }
        let stats = maintainer.stats();
        assert!(
            stats.repairs + stats.resolves > 0,
            "relocated traffic must trigger maintenance: {stats:?}"
        );
        // The maintained placement matches a fresh greedy's quality.
        let snap = m.snapshot();
        let fresh = MarginalGreedy.place(&snap, 2, &mut StdRng::seed_from_u64(0));
        let maintained = snap.evaluate(maintainer.placement());
        let oracle = snap.evaluate(&fresh);
        assert!(
            maintained >= 0.95 * oracle,
            "maintained {maintained} below 95% of oracle {oracle}"
        );
    }

    #[test]
    fn escalation_serves_the_marginal_greedy_placement() {
        // No swap rounds: the repair returns the serving placement, so every
        // stale check escalates to the re-greedy.
        let cfg = MaintainerConfig {
            swap: SwapSearch {
                max_rounds: 0,
                ..SwapSearch::default()
            },
            ..config(1)
        };
        let mut m = scenario_with(vec![spec(0, 6, 900.0), spec(1, 5, 700.0)]);
        let mut maintainer = Maintainer::new(cfg, &mut m).unwrap();
        let far = FlowDelta::AddFlow {
            origin: NodeId::new(24),
            destination: NodeId::new(18),
            volume: 800.0,
            alpha: 0.3,
        };
        let deltas = [
            far,
            far,
            far,
            FlowDelta::RemoveFlow { flow: 0 },
            FlowDelta::RemoveFlow { flow: 1 },
        ];
        let mut resolves = 0;
        for delta in &deltas {
            m.apply(delta).unwrap();
            let MaintainAction::Resolved { objective, .. } = maintainer.note_delta(&mut m) else {
                continue;
            };
            resolves += 1;
            let snap = m.snapshot();
            let greedy = MarginalGreedy.place(&snap, 2, &mut StdRng::seed_from_u64(0));
            let greedy_value = snap.evaluate(&greedy);
            let served = maintainer.placement();
            assert_eq!(objective.to_bits(), maintainer.objective().to_bits());
            assert_eq!(objective.to_bits(), snap.evaluate(served).to_bits());
            if served == &greedy {
                assert_eq!(objective.to_bits(), greedy_value.to_bits());
            } else {
                assert!(
                    objective > greedy_value,
                    "served {served} ({objective}) is neither the greedy {greedy} \
                     ({greedy_value}) nor strictly better"
                );
            }
        }
        assert!(
            resolves > 0,
            "drift never escalated: {:?}",
            maintainer.stats()
        );
    }

    #[test]
    fn maintenance_is_deterministic_under_a_seed() {
        let run = || {
            let mut m = scenario_with(vec![spec(0, 6, 900.0), spec(1, 5, 700.0)]);
            let mut maintainer = Maintainer::new(config(2), &mut m).unwrap();
            let deltas = crate::source::SyntheticDrift::new(25, m.live_stable_ids(), 2, 60, 9);
            for d in deltas {
                if let crate::delta::StreamDelta::Flow(fd) = d {
                    m.apply(&fd).unwrap();
                    maintainer.note_delta(&mut m);
                }
            }
            (
                maintainer.placement().clone(),
                maintainer.objective().to_bits(),
                maintainer.stats().checks,
            )
        };
        assert_eq!(run(), run());
    }
}
