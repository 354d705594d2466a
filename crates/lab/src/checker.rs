//! Whole-algorithm verification with counterexample extraction.
//!
//! Wraps the exhaustive exploration of [`crate::enumerate`] with the
//! specification checkers of `ssp-model`: verify an algorithm against
//! the uniform consensus specification over *every* run of a bounded
//! space, or get back the exact run that breaks it.

use core::fmt;

use ssp_model::{
    check_uniform_consensus, check_uniform_consensus_strong, spec::ConsensusViolation,
    ConsensusOutcome, EventCounts, InitialConfig, Value,
};
use ssp_rounds::{CrashSchedule, PendingChoice};

use crate::metrics::LatencyAggregator;

/// Which validity flavor to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityMode {
    /// Only the paper's uniform validity (unanimity ⇒ that value).
    Uniform,
    /// Also require decisions to be some process's input.
    Strong,
}

impl ValidityMode {
    /// Checks `outcome` against uniform consensus with this validity
    /// flavor.
    ///
    /// # Errors
    ///
    /// Returns the violated specification clause.
    pub fn check<V: Value>(
        self,
        outcome: &ConsensusOutcome<V>,
    ) -> Result<(), ConsensusViolation<V>> {
        match self {
            ValidityMode::Uniform => check_uniform_consensus(outcome),
            ValidityMode::Strong => check_uniform_consensus_strong(outcome),
        }
    }
}

/// A complete counterexample: the run inputs plus the violated clause.
#[derive(Debug, Clone)]
pub struct Counterexample<V> {
    /// The initial configuration of the violating run.
    pub config: InitialConfig<V>,
    /// Its crash schedule.
    pub schedule: CrashSchedule,
    /// Its pending choice (empty for `RS` runs).
    pub pending: PendingChoice,
    /// The outcome.
    pub outcome: ConsensusOutcome<V>,
    /// The violated specification clause.
    pub violation: ConsensusViolation<V>,
}

impl<V: Value> fmt::Display for Counterexample<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counterexample: {}", self.violation)?;
        writeln!(f, "  config:   {}", self.config)?;
        writeln!(f, "  schedule: {}", self.schedule)?;
        if !self.pending.is_empty() {
            write!(f, "  pending:  ")?;
            for (r, s, d) in self.pending.triples() {
                write!(f, "[{s}→{d} @{r}] ")?;
            }
            writeln!(f)?;
        }
        write!(f, "{}", self.outcome)
    }
}

/// The result of a verification sweep.
#[derive(Debug)]
pub struct Verification<V> {
    /// Number of runs actually *executed*. Without symmetry reduction
    /// this is the full space on a clean sweep, or the prefix up to
    /// and including the counterexample (the sweep stops there); with
    /// reduction it is the number of canonical orbit representatives
    /// visited.
    pub runs: u64,
    /// Number of runs *represented*: each executed run counted with
    /// its exact orbit size. Equal to `runs` when symmetry reduction
    /// is off; equal to the full space size on any clean sweep, so
    /// reduced and unreduced clean sweeps report the same coverage.
    pub represented: u64,
    /// Orbit-weighted latency statistics over the visited runs, when
    /// requested via `Verifier::collect_latency` (always present for
    /// sampled sweeps).
    pub latency: Option<LatencyAggregator<V>>,
    /// Canonical-event totals over the visited runs, when requested
    /// via `Verifier::count_events`. `events.delivers` is the sweep's
    /// aggregate message complexity as observed at receivers. Raw
    /// per-visited-run counts, never orbit-weighted.
    pub events: Option<EventCounts>,
    /// The least violation found (in enumeration order), if any.
    pub counterexample: Option<Counterexample<V>>,
}

impl<V: Value> Verification<V> {
    /// Whether every explored run satisfied the specification.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.counterexample.is_none()
    }

    /// Unwraps the success case.
    ///
    /// # Panics
    ///
    /// Panics with the counterexample's display if a violation exists.
    pub fn expect_ok(&self) -> u64 {
        if let Some(cex) = &self.counterexample {
            panic!("specification violated after {} runs:\n{cex}", self.runs);
        }
        self.runs
    }

    /// Unwraps the failure case.
    ///
    /// # Panics
    ///
    /// Panics if no violation was found.
    pub fn expect_violation(&self) -> &Counterexample<V> {
        self.counterexample
            .as_ref()
            .expect("expected a specification violation, found none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::{RoundModel, Verifier};
    use ssp_algos::{FloodSet, FloodSetWs, A1};
    use ssp_model::spec::ConsensusViolation;

    #[test]
    fn floodset_verified_in_rs() {
        // E3 (small instance): FloodSet solves uniform consensus in RS.
        let v = Verifier::new(&FloodSet)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .run();
        assert!(v.runs > 500);
        v.expect_ok();
    }

    #[test]
    fn a1_verified_in_rs() {
        // Theorem 5.2 (exhaustive, n=3): A1 solves uniform consensus.
        let v = Verifier::new(&A1)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .run();
        v.expect_ok();
    }

    #[test]
    fn floodset_refuted_in_rws_with_t2() {
        // E4: the checker *finds* the pending-message disagreement.
        let v = Verifier::new(&FloodSet)
            .n(3)
            .t(2)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Uniform)
            .model(RoundModel::Rws)
            .run();
        let cex = v.expect_violation();
        assert!(matches!(
            cex.violation,
            ConsensusViolation::UniformAgreement { .. }
        ));
        // The counterexample prints all the forensics.
        let text = cex.to_string();
        assert!(text.contains("uniform agreement"));
        assert!(text.contains("pending"));
    }

    #[test]
    fn a1_refuted_in_rws() {
        // §5.3: A1 is not uniform in RWS; the checker finds the run.
        let v = Verifier::new(&A1)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Uniform)
            .model(RoundModel::Rws)
            .run();
        let cex = v.expect_violation();
        assert!(matches!(
            cex.violation,
            ConsensusViolation::UniformAgreement { .. }
        ));
    }

    #[test]
    fn floodset_ws_verified_in_rws() {
        // E5 (small instance): FloodSetWS survives every pending choice.
        let v = Verifier::new(&FloodSetWs)
            .n(3)
            .t(1)
            .domain(&[0u64, 1])
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rws)
            .run();
        assert!(v.runs > 1_000);
        v.expect_ok();
    }
}
