//! Multilevel splitting (RESTART) for rare-event estimation.
//!
//! Plain Monte-Carlo needs on the order of `1/p` replications to see a
//! single success of a probability-`p` event — hopeless at the
//! `p ≈ 1e-6` design points the high-diversity configurations produce.
//! Multilevel splitting factors the rare event into a chain of nested,
//! *monotone* intermediate milestones (levels) and estimates the product
//! of per-level conditional probabilities instead: a fixed-effort
//! population of replications runs toward each level, the survivors'
//! states are checkpointed, and the next level's population resumes from
//! clones of those checkpoints. Each conditional probability is
//! moderate, so every level is cheap to resolve; the product reaches
//! deep into the tail at a fraction of the brute-force cost.
//!
//! The engine here is generic: anything that can (a) partition its
//! trajectory into monotone levels and (b) checkpoint/resume a
//! replication implements [`StagedTask`] and gets the estimator, the
//! deterministic seed schedule, and serial ≡ parallel bit-identity for
//! free. The attack crate's campaign simulator and the exponential
//! stage-chain walk (the analytic differential oracle) are the two
//! implementations in this workspace.
//!
//! # Determinism contract
//!
//! Every replication of level `ℓ` draws its seed from the plan
//! derivation `derive_seed(master, StreamId(namespace ^ stride(ℓ) ^ i))`
//! where `stride(ℓ) = (ℓ+1) · 2⁴⁰` keeps level streams disjoint from
//! the `i < 2³²` clone indices. Survivor states are materialized in
//! replication order by the executor's fixed fold shape
//! ([`VecCollector`]), and clone `i` of the next level resumes from
//! `survivors[i mod survivors.len()]` — all pure functions of the
//! master seed and the level structure, never of scheduling. A parallel
//! run is therefore bit-identical to a serial one.

use crate::exec::{ExecMode, Executor, PlanError, ReplicationPlan, VecCollector};

/// The default stream namespace splitting plans derive their seeds
/// under (disjoint from the fixed/adaptive campaign namespaces, so a
/// splitting estimate never reuses a plain-MC replication's stream).
pub const SPLITTING_STREAM_NAMESPACE: u64 = 0x5B17_0000_0000_0000;

/// The outcome of advancing one replication across one level: the
/// checkpointed state where it stopped, whether it crossed the level
/// boundary, and the simulation cost it consumed.
#[derive(Debug, Clone)]
pub struct LevelRun<S> {
    /// Checkpoint at segment exit (a survivor's state seeds the next
    /// level's clones).
    pub state: S,
    /// Whether the level boundary was crossed.
    pub reached: bool,
    /// Cost of the segment in model ticks (the unit the speedup over
    /// brute-force MC is measured in).
    pub ticks: u64,
}

/// A rare event factored into nested monotone levels, with
/// checkpoint/resume per replication — the model-side contract of the
/// splitting engine.
///
/// Implementations must guarantee two properties:
///
/// * **Monotone nesting** — a trajectory that crossed level `ℓ` has
///   crossed every earlier level, and crossing is permanent. This is
///   what makes the product of conditional fractions estimate the
///   intersection probability.
/// * **Resume purity** — `run_level` must be a pure function of
///   `(level, from, seed)` plus the immutable task, never of workspace
///   history; the engine reuses one workspace per worker across many
///   segments.
pub trait StagedTask: Sync {
    /// A checkpointed replication state (cheap to clone — it is cloned
    /// once per surviving replication, not per tick).
    type State: Clone + Send + Sync;
    /// Reusable per-worker scratch state.
    type Workspace: Send;

    /// Number of levels; the final level must coincide with the rare
    /// event itself.
    fn levels(&self) -> usize;

    /// A fresh per-worker workspace.
    fn workspace(&self) -> Self::Workspace;

    /// Advances one replication toward the boundary of `level`:
    /// starting fresh when `from` is `None` (only ever the case at
    /// level 0) and resuming from a parent checkpoint otherwise, using
    /// exactly the RNG stream seeded by `seed`.
    fn run_level(
        &self,
        ws: &mut Self::Workspace,
        level: usize,
        from: Option<&Self::State>,
        seed: u64,
    ) -> LevelRun<Self::State>;
}

/// Per-level tally of a splitting run: the conditional-probability
/// numerator/denominator and the cost spent on the level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSummary {
    /// Replications launched toward the level (the fixed effort).
    pub attempts: u32,
    /// Replications that crossed the level boundary.
    pub survivors: u32,
    /// Total model ticks consumed by the level's population.
    pub ticks: u64,
}

/// The result of a multilevel-splitting run: the product estimator, the
/// per-level tallies it is composed of, and the total cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SplittingRun {
    /// The product-of-conditionals estimate of the rare-event
    /// probability (0 when any level dried up).
    pub estimate: f64,
    /// Per-level tallies, in level order. When a level dries up the
    /// vector ends there — later levels were never attempted, and the
    /// estimate is 0.
    pub levels: Vec<LevelSummary>,
    /// Total model ticks across every level — the cost to compare
    /// against a brute-force plan.
    pub total_ticks: u64,
    /// The fixed per-level population.
    pub population: u32,
}

impl SplittingRun {
    /// The `(successes, trials)` pairs of the executed levels — the
    /// input shape of `diversify_stats::product_proportion_ci`. When a
    /// level dried up the pairs cover only the executed prefix; an
    /// interval over them still bounds the full product, because the
    /// unattempted conditionals are at most 1.
    #[must_use]
    pub fn conditionals(&self) -> Vec<(u64, u64)> {
        self.levels
            .iter()
            .map(|l| (u64::from(l.survivors), u64::from(l.attempts)))
            .collect()
    }

    /// Whether some level produced no survivor (the estimate is then an
    /// exact 0 with only an upper confidence bound).
    #[must_use]
    pub fn dried_up(&self) -> bool {
        self.levels.last().is_some_and(|l| l.survivors == 0)
    }
}

/// XOR stride separating the seed streams of different levels. Level
/// bits live at `2⁴⁰` and above; clone indices below `2³²`; the two can
/// never collide.
fn level_namespace(namespace: u64, level: usize) -> u64 {
    namespace ^ ((level as u64 + 1) << 40)
}

/// A fixed-effort multilevel-splitting schedule: population size, master
/// seed, and stream namespace. Immutable once built; [`Splitting::run`]
/// executes it against any [`StagedTask`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Splitting {
    population: u32,
    master_seed: u64,
    namespace: u64,
}

impl Splitting {
    /// A schedule running `population` replications per level.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyPlan`] when `population` is zero.
    pub fn try_new(population: u32, master_seed: u64) -> Result<Self, PlanError> {
        if population == 0 {
            return Err(PlanError::EmptyPlan);
        }
        Ok(Splitting {
            population,
            master_seed,
            namespace: SPLITTING_STREAM_NAMESPACE,
        })
    }

    /// Replaces the stream namespace (for callers embedding several
    /// independent splitting estimates under one master seed).
    #[must_use]
    pub const fn with_namespace(mut self, namespace: u64) -> Self {
        self.namespace = namespace;
        self
    }

    /// The per-level population.
    #[must_use]
    pub fn population(&self) -> u32 {
        self.population
    }

    /// Runs the schedule: level by level, each level's population on
    /// the executor (one workspace per worker, survivors materialized
    /// in replication order), clones resuming from
    /// `survivors[i mod len]`. Stops early with a zero estimate when a
    /// level dries up.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::EmptyPlan`] when the task declares zero
    /// levels.
    pub fn run<T: StagedTask>(
        &self,
        task: &T,
        executor: &Executor,
    ) -> Result<SplittingRun, PlanError> {
        if task.levels() == 0 {
            return Err(PlanError::EmptyPlan);
        }
        let mut survivors: Vec<T::State> = Vec::new();
        let mut levels = Vec::with_capacity(task.levels());
        let mut estimate = 1.0f64;
        let mut total_ticks = 0u64;
        for level in 0..task.levels() {
            let plan = ReplicationPlan::try_flat(self.population, self.master_seed)?
                .with_namespace(level_namespace(self.namespace, level));
            let parents = std::mem::take(&mut survivors);
            let runs: Vec<LevelRun<T::State>> = executor.run_ws(
                &plan,
                || task.workspace(),
                |ws, rep| {
                    let from = if parents.is_empty() {
                        None
                    } else {
                        Some(&parents[rep.index as usize % parents.len()])
                    };
                    task.run_level(ws, level, from, rep.seed)
                },
                &VecCollector,
            );
            let ticks: u64 = runs.iter().map(|r| r.ticks).sum();
            total_ticks += ticks;
            survivors = runs
                .into_iter()
                .filter(|r| r.reached)
                .map(|r| r.state)
                .collect();
            let summary = LevelSummary {
                attempts: self.population,
                survivors: survivors.len() as u32,
                ticks,
            };
            estimate *= f64::from(summary.survivors) / f64::from(summary.attempts);
            levels.push(summary);
            if survivors.is_empty() {
                break;
            }
        }
        Ok(SplittingRun {
            estimate,
            levels,
            total_ticks,
            population: self.population,
        })
    }

    /// [`Splitting::run`] on an explicit execution mode — the entry
    /// point the bit-identity tests drive.
    ///
    /// # Errors
    ///
    /// As for [`Splitting::run`].
    pub fn run_mode<T: StagedTask>(
        &self,
        task: &T,
        mode: ExecMode,
    ) -> Result<SplittingRun, PlanError> {
        let executor = match mode {
            ExecMode::Serial => Executor::serial(),
            ExecMode::Parallel => Executor::parallel(),
        };
        self.run(task, &executor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{RngStream, StreamId};

    /// A synthetic chain: level ℓ is crossed with probability `p[ℓ]`,
    /// independently per replication. The state carries the number of
    /// crossed levels so resume plumbing is observable.
    struct CoinChain {
        p: Vec<f64>,
    }

    impl StagedTask for CoinChain {
        type State = u64;
        type Workspace = ();

        fn levels(&self) -> usize {
            self.p.len()
        }

        fn workspace(&self) {}

        fn run_level(
            &self,
            (): &mut (),
            level: usize,
            from: Option<&u64>,
            seed: u64,
        ) -> LevelRun<u64> {
            assert_eq!(from.copied().unwrap_or(0), level as u64, "resume depth");
            let mut rng = RngStream::new(seed, StreamId(0x5111));
            LevelRun {
                state: level as u64 + 1,
                reached: rng.bernoulli(self.p[level]),
                ticks: 1,
            }
        }
    }

    #[test]
    fn estimates_product_of_conditionals() {
        let task = CoinChain {
            p: vec![0.5, 0.5, 0.5],
        };
        let run = Splitting::try_new(4096, 42)
            .unwrap()
            .run(&task, &Executor::serial())
            .unwrap();
        assert_eq!(run.levels.len(), 3);
        assert_eq!(run.total_ticks, 3 * 4096);
        assert!(
            (run.estimate - 0.125).abs() < 0.03,
            "estimate {} too far from 0.125",
            run.estimate
        );
        assert!(!run.dried_up());
        let cond = run.conditionals();
        assert_eq!(cond.len(), 3);
        for &(k, n) in &cond {
            assert_eq!(n, 4096);
            assert!(k > 0 && k < n);
        }
    }

    #[test]
    fn serial_and_parallel_are_bit_identical() {
        let task = CoinChain {
            p: vec![0.4, 0.6, 0.3, 0.5],
        };
        let sched = Splitting::try_new(512, 0xFEED).unwrap();
        let serial = sched.run_mode(&task, ExecMode::Serial).unwrap();
        let parallel = sched.run_mode(&task, ExecMode::Parallel).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(
            serial.estimate.to_bits(),
            parallel.estimate.to_bits(),
            "estimator must be bit-identical across schedulers"
        );
    }

    #[test]
    fn dried_level_stops_early_with_zero_estimate() {
        let task = CoinChain {
            p: vec![0.5, 0.0, 0.9],
        };
        let run = Splitting::try_new(256, 7)
            .unwrap()
            .run(&task, &Executor::serial())
            .unwrap();
        assert_eq!(run.estimate, 0.0);
        assert_eq!(run.levels.len(), 2, "level 2 never attempted");
        assert!(run.dried_up());
        assert_eq!(run.conditionals()[1].0, 0);
    }

    #[test]
    fn reruns_are_reproducible_and_seeds_decorrelate() {
        let task = CoinChain { p: vec![0.5, 0.5] };
        let a = Splitting::try_new(128, 1).unwrap();
        let exec = Executor::serial();
        assert_eq!(a.run(&task, &exec).unwrap(), a.run(&task, &exec).unwrap());
        let b = Splitting::try_new(128, 2).unwrap();
        // Different master seeds must not replay the same trajectory
        // tallies (probability of collision on 128 coin flips is tiny).
        assert_ne!(
            a.run(&task, &exec).unwrap().conditionals(),
            b.run(&task, &exec).unwrap().conditionals()
        );
    }

    #[test]
    fn invalid_configurations_are_typed_errors() {
        assert!(matches!(
            Splitting::try_new(0, 1),
            Err(PlanError::EmptyPlan)
        ));
        let empty = CoinChain { p: vec![] };
        let run = Splitting::try_new(8, 1)
            .unwrap()
            .run(&empty, &Executor::serial());
        assert!(matches!(run, Err(PlanError::EmptyPlan)));
    }
}
