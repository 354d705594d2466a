//! The one front door of the threaded runtime: [`RuntimeBuilder`].
//!
//! Mirrors the `Verifier` builder of `ssp-lab`: construct with the
//! algorithm and the initial configuration, chain the knobs you care
//! about, and [`RuntimeBuilder::run`] the execution. Three sources of
//! fault configuration compose, in precedence order:
//!
//! 1. an explicit [`RuntimeConfig`] ([`RuntimeBuilder::runtime`]),
//!    used verbatim;
//! 2. an explicit [`FaultPlan`] ([`RuntimeBuilder::plan`]);
//! 3. otherwise a plan derived from [`RuntimeBuilder::seed`] under the
//!    configured model, chaos, and degrade mode — the fuzzing path.
//!
//! The clock backend defaults to [`Backend::Virtual`]: virtual-time
//! runs emit `RunLog`s byte-identical to real-clock runs (the backend
//! conformance suite pins this, seed by seed) while completing in
//! microseconds of wall time.

use ssp_model::{InitialConfig, Value};
use ssp_rounds::{RoundAlgorithm, RoundModel, RoundProcess};

use crate::chaos::ChaosConfig;
use crate::clock::Backend;
use crate::driver::{run_on_backend, ConfigError, RuntimeConfig, ThreadedOutcome};
use crate::fd::DegradeMode;
use crate::plan::FaultPlan;

/// Builder for threaded runtime executions — the single entry point
/// that replaced the `run_threaded*` free functions.
///
/// ```
/// use ssp_rounds::RoundModel;
/// use ssp_runtime::{Backend, RuntimeBuilder};
/// use ssp_algos::A1;
/// use ssp_model::InitialConfig;
///
/// let config = InitialConfig::new(vec![4u64, 9, 2]);
/// let outcome = RuntimeBuilder::new(&A1, &config)
///     .t(1)
///     .model(RoundModel::Rs)
///     .seed(42)
///     .backend(Backend::Virtual)
///     .run()
///     .unwrap();
/// assert!(outcome.outcome.iter().all(|(_, o)| o.decision.is_some()));
/// ```
#[derive(Debug)]
pub struct RuntimeBuilder<'a, V, A> {
    algo: &'a A,
    config: &'a InitialConfig<V>,
    t: usize,
    model: RoundModel,
    seed: u64,
    chaos: Option<ChaosConfig>,
    degrade: DegradeMode,
    backend: Backend,
    plan: Option<FaultPlan>,
    runtime: Option<RuntimeConfig>,
}

// Manual impl: a derived `Clone` would demand `V: Clone, A: Clone`,
// which the borrowed fields don't actually need.
impl<V, A> Clone for RuntimeBuilder<'_, V, A> {
    fn clone(&self) -> Self {
        RuntimeBuilder {
            algo: self.algo,
            config: self.config,
            t: self.t,
            model: self.model,
            seed: self.seed,
            chaos: self.chaos,
            degrade: self.degrade,
            backend: self.backend,
            plan: self.plan.clone(),
            runtime: self.runtime.clone(),
        }
    }
}

impl<'a, V, A> RuntimeBuilder<'a, V, A>
where
    V: Value + Sync,
    A: RoundAlgorithm<V>,
    A::Process: Send + 'static,
    <A::Process as RoundProcess>::Msg: Send + 'static,
{
    /// Starts a builder for `algo` over `config` with the defaults:
    /// `t = 1`, [`RoundModel::Rs`], seed 0, no chaos,
    /// [`DegradeMode::Off`], [`Backend::Virtual`].
    #[must_use]
    pub fn new(algo: &'a A, config: &'a InitialConfig<V>) -> Self {
        RuntimeBuilder {
            algo,
            config,
            t: 1,
            model: RoundModel::Rs,
            seed: 0,
            chaos: None,
            degrade: DegradeMode::Off,
            backend: Backend::Virtual,
            plan: None,
            runtime: None,
        }
    }

    /// Sets the resilience bound `t` (number of tolerated crashes).
    #[must_use]
    pub fn t(mut self, t: usize) -> Self {
        self.t = t;
        self
    }

    /// Sets the round model seeded plans are derived for.
    #[must_use]
    pub fn model(mut self, model: RoundModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the fault-plan seed (ignored when an explicit plan or
    /// runtime configuration is supplied).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds (or removes) transport chaos on the seeded-plan path.
    #[must_use]
    pub fn chaos(mut self, chaos: Option<ChaosConfig>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Sets the watchdog's degradation mode on the seeded-plan path.
    #[must_use]
    pub fn degrade(mut self, degrade: DegradeMode) -> Self {
        self.degrade = degrade;
        self
    }

    /// Selects the clock backend (default [`Backend::Virtual`]).
    #[must_use]
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Runs this exact fault plan instead of deriving one from the
    /// seed.
    #[must_use]
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Runs this exact runtime configuration, verbatim — the highest-
    /// precedence source; seed, model, chaos and degrade are ignored.
    /// (Early close, off on the plan and seed paths, is set here with
    /// [`RuntimeConfig::with_early_close`].)
    #[must_use]
    pub fn runtime(mut self, runtime: RuntimeConfig) -> Self {
        self.runtime = Some(runtime);
        self
    }

    /// The algorithm under execution.
    #[must_use]
    pub fn algo(&self) -> &'a A {
        self.algo
    }

    /// The initial configuration under execution.
    #[must_use]
    pub fn config(&self) -> &'a InitialConfig<V> {
        self.config
    }

    /// The configured resilience bound.
    #[must_use]
    pub fn t_bound(&self) -> usize {
        self.t
    }

    /// The configured round model.
    #[must_use]
    pub fn plan_model(&self) -> RoundModel {
        self.model
    }

    /// The fault plan this builder would execute: the explicit plan if
    /// one was set, otherwise the seed-derived plan with chaos and
    /// degrade applied. (An explicit [`RuntimeBuilder::runtime`] has no
    /// plan representation; this still returns the seeded plan.)
    #[must_use]
    pub fn effective_plan(&self) -> FaultPlan {
        if let Some(plan) = &self.plan {
            return plan.clone();
        }
        let n = self.config.n();
        let horizon = self.algo.round_horizon(n, self.t);
        let mut plan = FaultPlan::from_seed(self.seed, n, self.t, horizon, self.model);
        if let Some(chaos) = self.chaos {
            plan = plan.with_chaos(chaos);
        }
        plan.with_degrade(self.degrade)
    }

    /// Executes the run on the configured backend.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] found by [`RuntimeConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panics.
    pub fn run(self) -> Result<ThreadedOutcome<V, <A::Process as RoundProcess>::Msg>, ConfigError> {
        let runtime = match self.runtime {
            Some(rt) => rt,
            None => self.effective_plan().runtime_config(),
        };
        run_on_backend(self.algo, self.config, self.t, runtime, self.backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssp_algos::A1;
    use ssp_model::check_uniform_consensus_strong;
    use ssp_rounds::RoundAlgorithm;

    #[test]
    fn builder_defaults_run_failure_free_rs() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let result = RuntimeBuilder::new(&A1, &config).seed(0).run().unwrap();
        check_uniform_consensus_strong(&result.outcome).unwrap();
        assert_eq!(result.pending_messages, 0);
    }

    #[test]
    fn explicit_plan_beats_the_seed() {
        let config = InitialConfig::new(vec![10u64, 11, 12]);
        let b = RuntimeBuilder::new(&A1, &config)
            .seed(7)
            .plan(FaultPlan::section_5_3());
        assert_eq!(
            b.effective_plan().to_string(),
            FaultPlan::section_5_3().to_string(),
            "the explicit plan wins over the seed"
        );
    }

    #[test]
    fn seeded_plan_reflects_model_and_horizon() {
        let config = InitialConfig::new(vec![1u64, 2, 3]);
        let horizon = RoundAlgorithm::<u64>::round_horizon(&A1, 3, 1);
        let b = RuntimeBuilder::new(&A1, &config)
            .model(RoundModel::Rws)
            .seed(98);
        assert_eq!(
            b.effective_plan().to_string(),
            FaultPlan::from_seed(98, 3, 1, horizon, RoundModel::Rws).to_string()
        );
    }

    #[test]
    fn invalid_runtime_is_a_typed_error() {
        let config = InitialConfig::new(vec![4u64, 9, 2]);
        let mut bad = RuntimeConfig::ss_flavor(3, 1);
        bad.policy = crate::driver::SyncPolicy::Rs {
            drain: core::time::Duration::ZERO,
        };
        let err = RuntimeBuilder::new(&A1, &config)
            .runtime(bad)
            .run()
            .unwrap_err();
        assert!(err.to_string().contains("drain"), "{err}");
    }
}
