//! The three-step pipeline — the paper's Figure 1 as an executable API.

use crate::content::ContentKey;
use crate::error::PipelineError;
use crate::exec::{
    campaign_plan, BudgetOutcome, Executor, PartialRun, Precision, ReplicationFailure, RunPolicy,
};
use crate::factors::{factor_profile, FactorLevel};
use crate::report::{
    render_adaptive_table, render_health_table, render_measurement_table, render_rare_event_table,
};
use crate::runner::{
    measure_configuration_run, measure_configuration_splitting, Measurements, PrecisionTarget,
    SplittingMeasurements,
};
use diversify_attack::campaign::{CampaignConfig, ThreatModel};
use diversify_attack::to_san::{compile_stage_chain, success_place, StageParams};
use diversify_attack::tree::{stuxnet_tree, AttackTree};
use diversify_des::{SimTime, StreamId};
use diversify_doe::design::{fractional_factorial, DesignMatrix};
use diversify_san::{solve as san_solve, Method, RewardSpec, TransientSolver};
use diversify_scada::components::ComponentClass;
use diversify_scada::scope::{ScopeConfig, ScopeSystem};
use diversify_stats::anova::{factorial_two_level, EffectSpec, FactorialAnova};
use std::collections::HashMap;
use std::fmt;

/// Configuration of a full pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The modeled plant.
    pub scope: ScopeConfig,
    /// The threat model.
    pub threat: ThreatModel,
    /// Campaign parameters.
    pub campaign: CampaignConfig,
    /// Replicate batches per design run (ANOVA replicates).
    pub batches: u32,
    /// Campaigns per batch.
    pub batch_size: u32,
    /// Master seed.
    pub seed: u64,
    /// How measurement replications are scheduled. Serial and parallel
    /// executors produce bit-identical reports.
    pub executor: Executor,
    /// Opt-in: cross-check the staged attack model against the exact
    /// CTMC backend (the stage chain solved analytically vs by
    /// Monte-Carlo) and include the comparison in the report.
    pub analytic_check: bool,
    /// Opt-in: spend replications per design point according to its
    /// variance. When set, every design run executes batch-sized rounds
    /// until the target's confidence-interval half-width is reached
    /// (within its replication bounds) instead of the fixed
    /// `batches × batch_size` budget, and the report gains per-run
    /// replication counts and achieved half-widths. `min_replications`
    /// is raised to at least two batches so ANOVA keeps an error term;
    /// `max_replications` is honored as a hard cap and must therefore
    /// allow two batches ([`Pipeline::doe_measurements`] panics on a
    /// tighter cap rather than silently exceeding it).
    pub precision: Option<PrecisionTarget>,
    /// Opt-in rare-event estimation: when set, every design point is
    /// *additionally* measured by fixed-effort multilevel splitting over
    /// the campaign's goal-implied milestones
    /// ([`measure_configuration_splitting`]) — the estimation mode for
    /// design points whose P_SA is far below what the fixed or adaptive
    /// Monte-Carlo budget can resolve. The report then carries a
    /// per-run splitting estimate with its product-of-conditionals
    /// confidence interval. The plain measurements are unchanged (the
    /// splitting sweep draws from its own seed streams), so ANOVA
    /// results are bit-identical with and without this option.
    pub rare_event: Option<RareEventTarget>,
    /// Opt-in fault tolerance: when set, every design point is measured
    /// under this [`RunPolicy`] — panicking or invalid replications are
    /// isolated (and retried per the policy) instead of aborting the
    /// sweep, and the per-cell budget (replication cap, deadline, cancel
    /// token) truncates a cell at a round boundary rather than the whole
    /// run. The report then carries a per-cell [`CellHealth`] record and
    /// flags degraded cells. `None` keeps the historical strict behavior:
    /// any replication panic aborts the sweep.
    pub resilience: Option<RunPolicy>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            scope: ScopeConfig::default(),
            threat: ThreatModel::stuxnet_like(),
            campaign: CampaignConfig {
                max_ticks: 24 * 30, // one month of attacker persistence
                detection_stops_attack: false,
            },
            batches: 4,
            batch_size: 25,
            seed: 0xD1CE,
            executor: Executor::default(),
            analytic_check: false,
            precision: None,
            rare_event: None,
            resilience: None,
        }
    }
}

/// Settings of a rare-event splitting sweep
/// ([`PipelineConfig::rare_event`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RareEventTarget {
    /// Fixed per-level splitting population (replications launched
    /// toward every milestone).
    pub population: u32,
    /// Confidence level of the product-of-conditionals interval, e.g.
    /// `0.95`.
    pub level: f64,
}

impl Default for RareEventTarget {
    fn default() -> Self {
        RareEventTarget {
            population: 200,
            level: 0.95,
        }
    }
}

/// How one design point fared under a resilient
/// ([`PipelineConfig::resilience`]) sweep: what its budget allowed, what
/// actually completed, and which replications failed.
#[derive(Debug, Clone)]
pub struct CellHealth {
    /// Replications the cell attempted (completed rounds × batch size).
    pub attempted: u32,
    /// Replications that completed and folded into the cell's
    /// measurements.
    pub completed: u32,
    /// Replications that failed every attempt, with seeds and causes.
    pub failures: Vec<ReplicationFailure>,
    /// How the cell's run ended.
    pub budget_outcome: BudgetOutcome,
}

impl CellHealth {
    /// Whether this cell lost replications to failures or truncation —
    /// its measurements cover fewer replications than the plan asked
    /// for.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        !self.failures.is_empty() || self.budget_outcome.is_truncation()
    }

    fn of(run: &PartialRun<Measurements>) -> CellHealth {
        CellHealth {
            attempted: run.attempted,
            completed: run.completed,
            failures: run.failed.clone(),
            budget_outcome: run.budget_outcome,
        }
    }
}

/// Opt-in artifact of step 1: the staged threat compiled to an
/// all-exponential stage-chain SAN and solved twice — exactly (CTMC
/// uniformization) and by Monte-Carlo — over the campaign window. The
/// two backends share nothing but the model, so agreement here certifies
/// the simulation machinery against an independent oracle.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticCrossCheck {
    /// Campaign window used for both backends, hours.
    pub window_hours: f64,
    /// P(attack succeeds within the window), exact.
    pub p_window_analytic: f64,
    /// P(attack succeeds within the window), Monte-Carlo estimate.
    pub p_window_simulated: f64,
    /// Mean TTA conditional on success within the window, exact (hours).
    pub mean_tta_analytic: Option<f64>,
    /// Mean TTA conditional on success within the window, Monte-Carlo
    /// (hours).
    pub mean_tta_simulated: Option<f64>,
    /// Unconditional closed-form mean TTA (`Σ 1/(pᵢ·rate)`, hours) for
    /// reference.
    pub mean_tta_closed_form: f64,
}

/// Output of step 1 (Attack Modeling).
#[derive(Debug)]
pub struct AttackModel {
    /// The threat model to be simulated.
    pub threat: ThreatModel,
    /// The equivalent attack tree over the monoculture baseline (for the
    /// formalism cross-check).
    pub tree: AttackTree,
}

/// How one design run of an adaptive sweep spent its replications.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSweepPoint {
    /// Replications executed for this design run.
    pub replications: u32,
    /// Replicate batches executed (the ANOVA replicate units).
    pub batches: u32,
    /// Whether the precision target was met (vs hitting the cap).
    pub target_met: bool,
    /// Monitored response's final estimate and CI half-width, if the
    /// monitor could compute one.
    pub precision: Option<Precision>,
}

/// Output of step 2 (DoE & Measurements).
#[derive(Debug)]
pub struct DoeMeasurements {
    /// The 2^(6−2) fractional factorial design over the six component
    /// classes.
    pub design: DesignMatrix,
    /// Per-run measurements, in design order.
    pub measurements: Vec<Measurements>,
    /// Per-run adaptive-replication report, in design order — present
    /// exactly when [`PipelineConfig::precision`] was set.
    pub adaptive: Option<Vec<AdaptiveSweepPoint>>,
    /// Per-run rare-event splitting estimates, in design order — present
    /// exactly when [`PipelineConfig::rare_event`] was set.
    pub rare_event: Option<Vec<SplittingMeasurements>>,
    /// Per-run fault-tolerance record, in design order — present exactly
    /// when [`PipelineConfig::resilience`] was set.
    pub health: Option<Vec<CellHealth>>,
}

impl DoeMeasurements {
    /// Whether any design point lost replications to failures or budget
    /// truncation. Always `false` for strict (non-resilient) sweeps.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.health
            .as_ref()
            .is_some_and(|cells| cells.iter().any(CellHealth::is_degraded))
    }
}

/// Output of step 3 (Diversity Assessment).
#[derive(Debug)]
pub struct Assessment {
    /// ANOVA of the attack-success probability response.
    pub anova_p_success: FactorialAnova,
    /// ANOVA of the compromised-ratio response.
    pub anova_compromised: FactorialAnova,
    /// Component classes ranked by variance explained on P_SA,
    /// descending — "the components valuable to diversify".
    pub ranking: Vec<(ComponentClass, f64)>,
}

/// The complete pipeline result.
#[derive(Debug)]
pub struct PipelineReport {
    /// Step 1 artifact.
    pub model: AttackModel,
    /// Step 2 artifact.
    pub doe: DoeMeasurements,
    /// Step 3 artifact.
    pub assessment: Assessment,
    /// Analytic-vs-simulation cross-check, when
    /// [`PipelineConfig::analytic_check`] is set.
    pub analytic: Option<AnalyticCrossCheck>,
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== Step 1: Attack Modeling ==")?;
        writeln!(f, "threat: {}", self.model.threat.name)?;
        writeln!(
            f,
            "attack-tree P_SA (monoculture, per-attempt): {:.4}",
            self.model.tree.success_probability()
        )?;
        if let Some(x) = &self.analytic {
            writeln!(
                f,
                "analytic cross-check ({}h window): P_SA analytic {:.4} vs simulated {:.4}",
                x.window_hours, x.p_window_analytic, x.p_window_simulated
            )?;
            let fmt_opt = |v: Option<f64>| v.map_or("-".to_string(), |m: f64| format!("{m:.1}"));
            writeln!(
                f,
                "analytic cross-check: mean TTA analytic {}h vs simulated {}h \
                 (closed form, unbounded: {:.1}h)",
                fmt_opt(x.mean_tta_analytic),
                fmt_opt(x.mean_tta_simulated),
                x.mean_tta_closed_form
            )?;
        }
        writeln!(f)?;
        writeln!(f, "== Step 2: DoE & Measurements ==")?;
        write!(
            f,
            "{}",
            render_measurement_table(&self.doe.design, &self.doe.measurements)
        )?;
        if let Some(adaptive) = &self.doe.adaptive {
            writeln!(f)?;
            write!(f, "{}", render_adaptive_table(adaptive))?;
        }
        if let Some(rare) = &self.doe.rare_event {
            writeln!(f)?;
            write!(f, "{}", render_rare_event_table(rare))?;
        }
        if let Some(health) = &self.doe.health {
            writeln!(f)?;
            write!(f, "{}", render_health_table(health))?;
        }
        writeln!(f)?;
        writeln!(f, "== Step 3: Diversity Assessment (ANOVA on P_SA) ==")?;
        write!(f, "{}", self.assessment.anova_p_success)?;
        writeln!(f)?;
        writeln!(f, "components ranked by variance explained:")?;
        for (class, var) in &self.assessment.ranking {
            writeln!(f, "  {:<10} {:>6.2}%", class.label(), var * 100.0)?;
        }
        Ok(())
    }
}

/// The three-step pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    #[must_use]
    pub fn new(config: PipelineConfig) -> Self {
        Pipeline { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Step 1 — Attack Modeling: instantiate the staged threat model and
    /// derive the equivalent attack tree for the monoculture baseline.
    #[must_use]
    pub fn attack_modeling(&self) -> AttackModel {
        let cat = &self.config.threat.catalog;
        let base = diversify_scada::components::ComponentProfile::default();
        let tree = stuxnet_tree(
            cat.infection_probability(&base),
            cat.infection_probability(&base) * 0.5, // phishing half as reliable
            cat.escalation_probability(&base),
            cat.firewall_pass_probability(&base),
            cat.firewall_pass_probability(&base) * 0.8,
            cat.plc_payload_probability(&base).max(1e-9),
        );
        AttackModel {
            threat: self.config.threat.clone(),
            tree,
        }
    }

    /// Step 2 — DoE & Measurements: build the 2^(6−2) resolution-IV
    /// design over the six component classes and measure every run —
    /// with the fixed `batches × batch_size` budget, or adaptively per
    /// design point when [`PipelineConfig::precision`] is set.
    ///
    /// # Panics
    ///
    /// Panics if a configured precision target caps replications below
    /// two batches (`rule.max_replications < 2 × batch_size`), or if a
    /// configured resilience budget leaves a design point with zero
    /// completed replications (an empty factorial cell) — see
    /// [`Pipeline::try_doe_measurements`] for the non-panicking form.
    /// Never panics otherwise (the built-in design is statically valid).
    #[must_use]
    pub fn doe_measurements(&self) -> DoeMeasurements {
        match self.try_doe_measurements() {
            Ok(doe) => doe,
            Err(err) => panic!("{err}"),
        }
    }

    /// The fallible form of [`Pipeline::doe_measurements`]: rejects a
    /// precision target whose cap is below two batches
    /// ([`PipelineError::PrecisionCapTooTight`] — the sweep must never
    /// exceed the caller's hard cap, and ANOVA needs at least two
    /// replicate batches per run for an error term), and reports a
    /// resilience budget that starves a design point of every
    /// replication as [`PipelineError::EmptyDesignPoint`] instead of
    /// leaving a hole in the factorial design.
    ///
    /// # Errors
    ///
    /// [`PipelineError::PrecisionCapTooTight`] and
    /// [`PipelineError::EmptyDesignPoint`], as above.
    pub fn try_doe_measurements(&self) -> Result<DoeMeasurements, PipelineError> {
        let labels: Vec<&str> = ComponentClass::ALL.iter().map(|c| c.label()).collect();
        // The built-in 2^(6-2) design is statically valid; its generator
        // words are fixed at compile time, so this cannot fail for any
        // configuration.
        #[allow(clippy::disallowed_methods)]
        let (design, _words) = fractional_factorial(&labels, &[vec![0, 1, 2], vec![1, 2, 3]])
            .expect("built-in 2^(6-2) design is valid");
        self.try_doe_measurements_with(design)
    }

    /// [`Pipeline::try_doe_measurements`] over a caller-supplied design
    /// matrix (one coded ±1 level per component class per row) instead
    /// of the built-in 2^(6−2) fractional factorial. Every row is checked
    /// before anything is simulated.
    ///
    /// Design points that decode to **identical plant configurations**
    /// (same profile, threat and campaign — keyed by their
    /// [`ContentKey`]) are simulated once and the measurements reused
    /// for every duplicate, so a degenerate design — replicated rows, a
    /// factor grid that collapses under aliasing — costs one simulation
    /// per *distinct* cell. Duplicates share the first occurrence's
    /// seed stream by construction, which is what "the same cell"
    /// should mean: re-running it through a different stream would
    /// re-measure the identical distribution at full price.
    ///
    /// # Errors
    ///
    /// As [`Pipeline::try_doe_measurements`] (including
    /// [`PipelineError::EmptyDesignPoint`] for budgeted runs), plus
    /// [`PipelineError::InvalidDesignRow`] for a row that does not hold
    /// exactly one −1 or +1 level per component class.
    pub fn try_doe_measurements_with(
        &self,
        design: DesignMatrix,
    ) -> Result<DoeMeasurements, PipelineError> {
        for (run, row) in design.rows.iter().enumerate() {
            if row.len() != ComponentClass::ALL.len() || row.iter().any(|&l| l != -1 && l != 1) {
                return Err(PipelineError::InvalidDesignRow { run });
            }
        }
        // One base plan; every design point gets its own decorrelated
        // sub-plan derived from its run index. Replications inside a run
        // are scheduled by the configured executor.
        let base_plan = campaign_plan(
            self.config.batches,
            self.config.batch_size,
            self.config.seed,
        );
        // An adaptive sweep needs at least two replicate batches per run
        // so the ANOVA error term survives the worst case. The floor
        // raises `min` only — a cap below it is rejected, never
        // silently exceeded.
        let floor = 2 * self.config.batch_size;
        let target = match self.config.precision {
            Some(mut t) => {
                if t.rule.max_replications < floor {
                    return Err(PipelineError::PrecisionCapTooTight {
                        cap: t.rule.max_replications,
                        floor,
                    });
                }
                t.rule.min_replications = t.rule.min_replications.max(floor);
                Some(t)
            }
            None => None,
        };
        let resilience = self.config.resilience.as_ref();
        let mut measurements: Vec<Measurements> = Vec::with_capacity(design.runs());
        let mut adaptive = target.map(|_| Vec::with_capacity(design.runs()));
        let mut rare_event = self
            .config
            .rare_event
            .map(|_| Vec::<SplittingMeasurements>::with_capacity(design.runs()));
        let mut health = resilience.map(|_| Vec::<CellHealth>::with_capacity(design.runs()));
        let mut seen: HashMap<ContentKey, usize> = HashMap::with_capacity(design.runs());
        for (run_idx, row) in design.rows.iter().enumerate() {
            let levels: Vec<FactorLevel> =
                row.iter().map(|&l| FactorLevel::from_coded(l)).collect();
            let profile = factor_profile(&levels);
            let mut scope_cfg = self.config.scope.clone();
            scope_cfg.baseline_profile = profile;
            // Deduplicate identical cells by content: two rows whose
            // decoded configurations match measure the same population,
            // so the first result is reused verbatim (bit-identical,
            // zero extra replications). Indexing is safe: every earlier
            // iteration pushed exactly one entry per active vector.
            let key = ContentKey::of(&cell_content(
                &scope_cfg,
                &self.config.threat,
                &self.config.campaign,
            ));
            if let Some(&first) = seen.get(&key) {
                let repeat = measurements[first].clone();
                measurements.push(repeat);
                if let Some(points) = &mut adaptive {
                    let repeat = points[first];
                    points.push(repeat);
                }
                if let Some(cells) = &mut health {
                    let repeat = cells[first].clone();
                    cells.push(repeat);
                }
                if let Some(points) = &mut rare_event {
                    let repeat = points[first].clone();
                    points.push(repeat);
                }
                continue;
            }
            seen.insert(key, run_idx);
            let system = ScopeSystem::build(&scope_cfg);
            let run_plan = base_plan.derived(StreamId(run_idx as u64));
            let run = measure_configuration_run(
                system.network(),
                &self.config.threat,
                self.config.campaign,
                &run_plan,
                self.config.executor,
                target.as_ref(),
                resilience,
            );
            if let Some(points) = &mut adaptive {
                points.push(AdaptiveSweepPoint {
                    replications: run.attempted,
                    batches: run.rounds,
                    target_met: run.budget_outcome == BudgetOutcome::PrecisionMet,
                    precision: run.precision,
                });
            }
            if let Some(cells) = &mut health {
                cells.push(CellHealth::of(&run));
            }
            // Only a budget can leave a cell empty: a strict run
            // re-raises failures and completes every round it starts.
            measurements.push(run.output.ok_or(PipelineError::EmptyDesignPoint {
                run: run_idx,
                outcome: run.budget_outcome,
            })?);
            if let (Some(rare), Some(points)) = (self.config.rare_event, &mut rare_event) {
                // The splitting sweep seeds from the design run's derived
                // plan seed but draws through the splitting engine's own
                // stream namespace, so it never correlates with (or
                // perturbs) the plain measurements above.
                points.push(measure_configuration_splitting(
                    system.network(),
                    &self.config.threat,
                    self.config.campaign,
                    rare.population,
                    run_plan.master_seed(),
                    self.config.executor,
                    rare.level,
                )?);
            }
        }
        Ok(DoeMeasurements {
            design,
            measurements,
            adaptive,
            rare_event,
            health,
        })
    }

    /// Step 3 — Diversity Assessment: ANOVA the measurements, allocating
    /// indicator variance to component classes.
    ///
    /// # Panics
    ///
    /// Panics only if `doe` was not produced by
    /// [`Pipeline::doe_measurements`] (mismatched shapes) — see
    /// [`Pipeline::try_assess`] for the non-panicking form.
    #[must_use]
    pub fn assess(&self, doe: &DoeMeasurements) -> Assessment {
        match self.try_assess(doe) {
            Ok(assessment) => assessment,
            Err(err) => panic!("{err}"),
        }
    }

    /// The fallible form of [`Pipeline::assess`]: reports a degenerate
    /// measurement set (mismatched shapes, too few replicate batches for
    /// an ANOVA error term — possible when a resilient sweep truncated
    /// every design point to under two batches) as
    /// [`PipelineError::Stats`] instead of panicking.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Stats`] when the factorial ANOVA rejects the
    /// measurement shape.
    pub fn try_assess(&self, doe: &DoeMeasurements) -> Result<Assessment, PipelineError> {
        let effects: Vec<EffectSpec> = ComponentClass::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| EffectSpec::main(c.label(), i))
            .collect();
        // Adaptive sweeps may give design points different batch counts;
        // the factorial ANOVA needs balanced replicates, so truncate
        // every run to the common minimum (each batch mean is an iid
        // replicate unit, so dropping the tail keeps estimates unbiased).
        let min_batches = doe
            .measurements
            .iter()
            .map(|m| m.batch_p_success.len())
            .min()
            .unwrap_or(0);
        let truncated = |batch_means: &Vec<f64>| batch_means[..min_batches].to_vec();
        let responses_p: Vec<Vec<f64>> = doe
            .measurements
            .iter()
            .map(|m| truncated(&m.batch_p_success))
            .collect();
        let responses_c: Vec<Vec<f64>> = doe
            .measurements
            .iter()
            .map(|m| truncated(&m.batch_compromised))
            .collect();
        let anova_p_success = factorial_two_level(&doe.design.rows, &responses_p, &effects)?;
        let anova_compromised = factorial_two_level(&doe.design.rows, &responses_c, &effects)?;
        let mut ranking: Vec<(ComponentClass, f64)> = ComponentClass::ALL
            .iter()
            .map(|c| {
                let var = anova_p_success
                    .effect(c.label())
                    .map_or(0.0, |r| r.variance_explained);
                (*c, var)
            })
            .collect();
        ranking.sort_by(|a, b| b.1.total_cmp(&a.1));
        Ok(Assessment {
            anova_p_success,
            anova_compromised,
            ranking,
        })
    }

    /// Cross-checks the staged attack model against the exact CTMC
    /// backend: the monoculture stage chain is compiled to an
    /// all-exponential SAN and the attack-success probability and mean
    /// TTA over the campaign window are computed both analytically
    /// (uniformization, exact) and by Monte-Carlo replication.
    ///
    /// # Panics
    ///
    /// Never panics for catalog-derived parameters: the stage chain has
    /// five tangible states, far under every cap.
    // The `expect`s below all guard static invariants of the built-in
    // stage chain (valid catalog parameters, five tangible states under
    // every solver cap, the "tta" reward always registered) — no user
    // configuration reaches them.
    #[allow(clippy::disallowed_methods)]
    #[must_use]
    pub fn analytic_cross_check(&self) -> AnalyticCrossCheck {
        let cat = &self.config.threat.catalog;
        let base = diversify_scada::components::ComponentProfile::default();
        let rate = 1.0; // one attempt per hour, the campaign tick rate
        let probs = [
            cat.infection_probability(&base),
            cat.escalation_probability(&base),
            cat.firewall_pass_probability(&base),
            cat.plc_payload_probability(&base).max(1e-9),
        ];
        let params: Vec<StageParams> = probs
            .iter()
            .map(|&p| StageParams {
                success_probability: p,
                attempt_rate_per_hour: rate,
            })
            .collect();
        let model = compile_stage_chain(&params).expect("catalog stage chain is valid");
        let success = success_place(&model);
        let window_hours = f64::from(self.config.campaign.max_ticks);
        let reward = || {
            [RewardSpec::first_passage("tta", move |m| {
                m.tokens(success) == 1
            })]
        };
        let analytic = san_solve(
            &model,
            &reward(),
            Method::Analytic {
                horizon: SimTime::from_secs(window_hours),
                tol: 1e-10,
                max_states: 64,
            },
        )
        .expect("stage chain is analytic-solvable");
        let a = analytic.estimate("tta").expect("reward present");
        let replications = 400;
        let simulated = TransientSolver::new(
            SimTime::from_secs(window_hours),
            replications,
            self.config.seed ^ 0xA11C,
        )
        .solve(&model, &reward());
        let s = simulated.estimate("tta").expect("reward present");
        AnalyticCrossCheck {
            window_hours,
            p_window_analytic: a.probability(0),
            p_window_simulated: s.probability(replications),
            mean_tta_analytic: (a.stats.count() > 0).then(|| a.stats.mean()),
            mean_tta_simulated: (s.occurrences > 0).then(|| s.stats.mean()),
            mean_tta_closed_form: probs.iter().map(|p| 1.0 / (p * rate)).sum(),
        }
    }

    /// Runs all three steps (plus the analytic cross-check when
    /// configured).
    ///
    /// # Panics
    ///
    /// Panics where [`Pipeline::doe_measurements`] or
    /// [`Pipeline::assess`] would — see [`Pipeline::try_run`] for the
    /// non-panicking form.
    #[must_use]
    pub fn run(&self) -> PipelineReport {
        match self.try_run() {
            Ok(report) => report,
            Err(err) => panic!("{err}"),
        }
    }

    /// The fallible form of [`Pipeline::run`]: configuration problems
    /// (a precision cap below the ANOVA floor, a resilience budget that
    /// empties a design point, a measurement set the ANOVA rejects)
    /// come back as [`PipelineError`] values instead of panics.
    ///
    /// # Errors
    ///
    /// Any error of [`Pipeline::try_doe_measurements`] or
    /// [`Pipeline::try_assess`].
    pub fn try_run(&self) -> Result<PipelineReport, PipelineError> {
        let model = self.attack_modeling();
        let doe = self.try_doe_measurements()?;
        let assessment = self.try_assess(&doe)?;
        let analytic = self
            .config
            .analytic_check
            .then(|| self.analytic_cross_check());
        Ok(PipelineReport {
            model,
            doe,
            assessment,
            analytic,
        })
    }
}

/// The content a design cell is addressed by: everything that
/// determines its measured distribution — decoded plant configuration,
/// threat, and campaign parameters. Seeds deliberately stay out of the
/// key (two rows measuring the same population are duplicates no matter
/// which stream each would have drawn).
fn cell_content(
    scope: &ScopeConfig,
    threat: &ThreatModel,
    campaign: &CampaignConfig,
) -> serde::Value {
    use serde::Serialize as _;
    serde::Value::Array(vec![
        scope.to_json_value(),
        threat.to_json_value(),
        campaign.to_json_value(),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> PipelineConfig {
        PipelineConfig {
            batches: 2,
            batch_size: 4,
            campaign: CampaignConfig {
                max_ticks: 24 * 10,
                detection_stops_attack: false,
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn full_pipeline_runs_end_to_end() {
        let report = Pipeline::new(tiny_config()).run();
        assert_eq!(report.doe.design.runs(), 16);
        assert_eq!(report.doe.measurements.len(), 16);
        assert_eq!(report.assessment.ranking.len(), 6);
        // Variance fractions sum to ≤ 1 (rest is error + interactions).
        let total: f64 = report.assessment.ranking.iter().map(|(_, v)| v).sum();
        assert!((0.0..=1.0 + 1e-9).contains(&total));
        let text = report.to_string();
        assert!(text.contains("Step 1"));
        assert!(text.contains("Step 2"));
        assert!(text.contains("Step 3"));
    }

    #[test]
    fn duplicate_design_points_reuse_the_first_cell() {
        // A degenerate design: rows 0 and 2 decode to the same profile.
        let labels: Vec<&str> = ComponentClass::ALL.iter().map(|c| c.label()).collect();
        let dup_row = vec![1i8, -1, 1, -1, 1, -1];
        let design = DesignMatrix {
            factors: labels.iter().map(|l| l.to_string()).collect(),
            rows: vec![dup_row.clone(), vec![-1, 1, -1, 1, -1, 1], dup_row.clone()],
        };
        let pipeline = Pipeline::new(tiny_config());
        let doe = pipeline
            .try_doe_measurements_with(design)
            .expect("sweep succeeds");
        assert_eq!(doe.measurements.len(), 3);
        // The duplicate cell is the first occurrence, bit for bit —
        // without dedup it would draw its own derived stream (row index
        // 2) and differ. The distinct middle row must keep differing.
        let json =
            |m: &Measurements| serde_json::to_string(&m.summary).expect("summary serializes");
        assert_eq!(json(&doe.measurements[0]), json(&doe.measurements[2]));
        assert_eq!(
            doe.measurements[0].batch_p_success,
            doe.measurements[2].batch_p_success
        );
        assert_ne!(json(&doe.measurements[0]), json(&doe.measurements[1]));
        // The built-in fractional factorial has 16 distinct cells, so
        // dedup must leave the standard sweep untouched.
        let full = pipeline.try_doe_measurements().expect("standard sweep");
        assert_eq!(full.measurements.len(), 16);
    }

    #[test]
    fn malformed_design_rows_are_typed_errors_before_any_simulation() {
        let labels: Vec<String> = ComponentClass::ALL
            .iter()
            .map(|c| c.label().to_string())
            .collect();
        let good = vec![1i8, -1, 1, -1, 1, -1];
        let pipeline = Pipeline::new(tiny_config());
        for (bad, why) in [
            (vec![1i8, -1, 1, -1, 1], "a 5-wide row"),
            (vec![1i8, -1, 0, -1, 1, -1], "a level of 0"),
        ] {
            let design = DesignMatrix {
                factors: labels.clone(),
                rows: vec![good.clone(), bad],
            };
            match pipeline.try_doe_measurements_with(design) {
                Err(PipelineError::InvalidDesignRow { run }) => assert_eq!(run, 1, "{why}"),
                other => panic!("{why}: expected InvalidDesignRow, got {other:?}"),
            }
        }
    }

    #[test]
    fn attack_modeling_tree_probability_in_bounds() {
        let model = Pipeline::new(tiny_config()).attack_modeling();
        let p = model.tree.success_probability();
        assert!((0.0..=1.0).contains(&p));
        assert!(p > 0.0, "monoculture baseline must be attackable");
    }

    #[test]
    fn serial_and_parallel_sweeps_are_bit_identical() {
        let serial = Pipeline::new(PipelineConfig {
            executor: Executor::serial(),
            ..tiny_config()
        })
        .doe_measurements();
        let parallel = Pipeline::new(PipelineConfig {
            executor: Executor::parallel(),
            ..tiny_config()
        })
        .doe_measurements();
        for (a, b) in serial.measurements.iter().zip(&parallel.measurements) {
            assert_eq!(a.batch_p_success, b.batch_p_success);
            assert_eq!(a.batch_compromised, b.batch_compromised);
            assert_eq!(a.summary.p_success, b.summary.p_success);
        }
    }

    #[test]
    fn analytic_cross_check_is_opt_in_and_agrees() {
        let off = Pipeline::new(tiny_config()).run();
        assert!(off.analytic.is_none());
        let pipeline = Pipeline::new(PipelineConfig {
            analytic_check: true,
            ..tiny_config()
        });
        let report = pipeline.run();
        let x = report.analytic.expect("cross-check requested");
        assert!((0.0..=1.0).contains(&x.p_window_analytic));
        // 400 Monte-Carlo replications: a generous 99%+ band around the
        // exact value.
        let half_width =
            3.0 * (x.p_window_analytic * (1.0 - x.p_window_analytic) / 400.0).sqrt() + 0.01;
        assert!(
            (x.p_window_simulated - x.p_window_analytic).abs() < half_width,
            "simulated {} vs analytic {}",
            x.p_window_simulated,
            x.p_window_analytic
        );
        assert!(x.mean_tta_closed_form > 0.0);
        let text = report.to_string();
        assert!(text.contains("analytic cross-check"));
    }

    #[test]
    fn precision_targeted_sweep_reports_adaptive_points() {
        let fixed = Pipeline::new(tiny_config()).doe_measurements();
        assert!(fixed.adaptive.is_none());
        let pipeline = Pipeline::new(PipelineConfig {
            precision: Some(PrecisionTarget::p_success(0.25, 8, 40)),
            ..tiny_config()
        });
        let report = pipeline.run();
        let points = report.doe.adaptive.as_ref().expect("adaptive sweep");
        assert_eq!(points.len(), report.doe.measurements.len());
        for (p, m) in points.iter().zip(&report.doe.measurements) {
            assert_eq!(p.replications, m.summary.replications);
            assert_eq!(p.batches as usize, m.batch_p_success.len());
            // Bounds hold (min raised to 2 batches of 4): 8..=40.
            assert!((8..=40).contains(&p.replications));
        }
        // The assessment still runs on the (truncated) balanced batches.
        assert_eq!(report.assessment.ranking.len(), 6);
        let text = report.to_string();
        assert!(text.contains("adaptive replication"));
        assert!(text.contains("halfwidth"));
    }

    #[test]
    fn rare_event_sweep_reports_splitting_points_without_perturbing_measurements() {
        let plain = Pipeline::new(tiny_config()).doe_measurements();
        assert!(plain.rare_event.is_none());
        let report = Pipeline::new(PipelineConfig {
            rare_event: Some(RareEventTarget {
                population: 64,
                level: 0.95,
            }),
            ..tiny_config()
        })
        .run();
        let rare = report.doe.rare_event.as_ref().expect("rare-event sweep");
        assert_eq!(rare.len(), report.doe.measurements.len());
        for p in rare {
            assert!((0.0..=1.0).contains(&p.estimate));
            assert!(p.ci.lower <= p.estimate && p.estimate <= p.ci.upper);
            assert_eq!(p.population, 64);
            assert!(!p.levels.is_empty());
        }
        // The splitting sweep must not perturb the plain measurements.
        for (a, b) in plain.measurements.iter().zip(&report.doe.measurements) {
            assert_eq!(a.batch_p_success, b.batch_p_success);
            assert_eq!(a.summary.p_success.to_bits(), b.summary.p_success.to_bits());
        }
        let text = report.to_string();
        assert!(text.contains("rare-event splitting"));
    }

    #[test]
    fn rare_event_sweep_rejects_bad_target_with_typed_error() {
        let err = Pipeline::new(PipelineConfig {
            rare_event: Some(RareEventTarget {
                population: 0,
                level: 0.95,
            }),
            ..tiny_config()
        })
        .try_doe_measurements()
        .expect_err("zero population");
        assert!(matches!(err, PipelineError::Plan(_)));
    }

    #[test]
    #[should_panic(expected = "caps replications")]
    fn precision_cap_below_two_batches_is_rejected() {
        // batch_size 4 needs a cap of >= 8; a cap of 5 must be refused
        // rather than silently exceeded.
        let _ = Pipeline::new(PipelineConfig {
            precision: Some(PrecisionTarget::p_success(0.25, 1, 5)),
            ..tiny_config()
        })
        .doe_measurements();
    }

    #[test]
    fn resilient_sweep_is_bit_identical_to_strict_and_reports_health() {
        use crate::exec::RunPolicy;
        let strict = Pipeline::new(tiny_config()).doe_measurements();
        let pipeline = Pipeline::new(PipelineConfig {
            resilience: Some(RunPolicy::new()),
            ..tiny_config()
        });
        let report = pipeline.run();
        let resilient = &report.doe;
        assert!(!resilient.is_degraded());
        let health = resilient.health.as_ref().expect("resilient sweep");
        assert_eq!(health.len(), resilient.measurements.len());
        for cell in health {
            assert!(!cell.is_degraded());
            assert_eq!(cell.budget_outcome, BudgetOutcome::Completed);
            assert_eq!(cell.attempted, 8);
            assert_eq!(cell.completed, 8);
        }
        // An unconstrained fault-free resilient sweep folds the same
        // replications in the same order as the strict sweep.
        for (a, b) in strict.measurements.iter().zip(&resilient.measurements) {
            assert_eq!(a.batch_p_success, b.batch_p_success);
            assert_eq!(a.summary.p_success, b.summary.p_success);
        }
        let text = report.to_string();
        assert!(text.contains("cell health"));
        assert!(text.contains("0 of 16 degraded"));
    }

    #[test]
    fn per_cell_budget_truncates_to_a_shorter_plan_bit_identically() {
        use crate::exec::{Budget, RunPolicy};
        // Cap each cell at one batch (4 of the planned 8 replications).
        let capped = Pipeline::new(PipelineConfig {
            resilience: Some(
                RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(4)),
            ),
            ..tiny_config()
        })
        .try_doe_measurements()
        .expect("one batch per cell survives");
        let one_batch = Pipeline::new(PipelineConfig {
            batches: 1,
            ..tiny_config()
        })
        .doe_measurements();
        let health = capped.health.as_ref().expect("resilient sweep");
        assert!(capped.is_degraded());
        for cell in health {
            assert_eq!(cell.budget_outcome, BudgetOutcome::ReplicationBudget);
            assert_eq!(cell.completed, 4);
            assert!(cell.failures.is_empty());
        }
        // Graceful degradation is deterministic: the truncated cell IS
        // the one-batch plan's measurement, bit for bit.
        for (a, b) in capped.measurements.iter().zip(&one_batch.measurements) {
            assert_eq!(a.batch_p_success, b.batch_p_success);
            assert_eq!(a.batch_compromised, b.batch_compromised);
            assert_eq!(a.summary.p_success, b.summary.p_success);
        }
    }

    #[test]
    fn budget_that_empties_a_cell_is_a_typed_error() {
        use crate::exec::{Budget, RunPolicy};
        // A 2-replication cap cannot finish one 4-replication batch.
        let err = Pipeline::new(PipelineConfig {
            resilience: Some(
                RunPolicy::new().with_budget(Budget::unlimited().with_max_replications(2)),
            ),
            ..tiny_config()
        })
        .try_doe_measurements()
        .expect_err("empty cells must be rejected");
        match err {
            PipelineError::EmptyDesignPoint { run, outcome } => {
                assert_eq!(run, 0);
                assert_eq!(outcome, BudgetOutcome::ReplicationBudget);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn resilient_adaptive_sweep_reports_points_and_health() {
        use crate::exec::RunPolicy;
        let plain = Pipeline::new(PipelineConfig {
            precision: Some(PrecisionTarget::p_success(0.25, 8, 40)),
            ..tiny_config()
        })
        .doe_measurements();
        let resilient = Pipeline::new(PipelineConfig {
            precision: Some(PrecisionTarget::p_success(0.25, 8, 40)),
            resilience: Some(RunPolicy::new()),
            ..tiny_config()
        })
        .doe_measurements();
        let points = resilient.adaptive.as_ref().expect("adaptive sweep");
        let health = resilient.health.as_ref().expect("resilient sweep");
        assert_eq!(points.len(), 16);
        assert_eq!(health.len(), 16);
        assert!(!resilient.is_degraded());
        // The hardened adaptive path spends replications identically.
        let plain_points = plain.adaptive.as_ref().expect("adaptive sweep");
        for (a, b) in plain_points.iter().zip(points) {
            assert_eq!(a.replications, b.replications);
            assert_eq!(a.batches, b.batches);
            assert_eq!(a.target_met, b.target_met);
        }
        for (a, b) in plain.measurements.iter().zip(&resilient.measurements) {
            assert_eq!(a.batch_p_success, b.batch_p_success);
            assert_eq!(a.summary.p_success, b.summary.p_success);
        }
    }

    #[test]
    fn try_run_reports_tight_precision_cap_as_typed_error() {
        let err = Pipeline::new(PipelineConfig {
            precision: Some(PrecisionTarget::p_success(0.25, 1, 5)),
            ..tiny_config()
        })
        .try_run()
        .expect_err("cap below two batches");
        assert!(matches!(
            err,
            PipelineError::PrecisionCapTooTight { cap: 5, floor: 8 }
        ));
        assert!(err.to_string().contains("caps replications"));
    }

    #[test]
    fn assessment_is_deterministic() {
        let p = Pipeline::new(tiny_config());
        let a = p.doe_measurements();
        let b = p.doe_measurements();
        let ra = p.assess(&a);
        let rb = p.assess(&b);
        assert_eq!(ra.anova_p_success.rows.len(), rb.anova_p_success.rows.len());
        for (x, y) in ra.ranking.iter().zip(&rb.ranking) {
            assert_eq!(x.0, y.0);
            assert!((x.1 - y.1).abs() < 1e-12);
        }
    }
}
