//! The paper's security indicators, aggregated over campaign replications.
//!
//! Aggregation is *streaming*: outcomes fold one at a time into an
//! [`IndicatorAccum`] — Bernoulli counters for the binary responses,
//! Welford moments for the real-valued ones — so memory stays O(1) per
//! metric no matter how many replications run, partial accumulators from
//! parallel workers merge exactly, and confidence intervals come from
//! the moments alone. No per-replication sample vector survives the hot
//! path; batch means for ANOVA live in
//! [`Measurements`](crate::runner::Measurements).

use diversify_attack::campaign::{CampaignOutcome, CampaignStats};
use diversify_des::Precision;
use diversify_stats::{
    proportion_ci, BernoulliCounter, ConfidenceInterval, RawMoments, StatsError, StreamingSummary,
};
use serde::{Deserialize, Serialize, Value};
use std::fmt;

/// The indicator an adaptive run monitors for its precision target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PrecisionResponse {
    /// The attack-success probability (the paper's P_SA), judged by its
    /// Wilson interval.
    PSuccess,
    /// The mean final compromised ratio, judged by its Student-t
    /// interval.
    CompromisedRatio,
}

/// Streaming accumulator for the security indicators: every campaign
/// outcome folds in as it completes, and two partial accumulators merge
/// into the accumulator of their concatenated outcome streams.
///
/// The accumulator is its own wire form (see its `Deserialize` impl),
/// so a shard worker ships it and a coordinator merges it as if it had
/// been folded locally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IndicatorAccum {
    /// Success per replication (trials = replications).
    success: BernoulliCounter,
    /// Detection per replication (trials = replications).
    detection: BernoulliCounter,
    /// Time-To-Attack moments, successful campaigns only.
    tta: StreamingSummary,
    /// Time-To-Security-Failure moments, detected campaigns only.
    ttsf: StreamingSummary,
    /// Final compromised-ratio moments, every campaign.
    compromised: StreamingSummary,
}

impl IndicatorAccum {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        IndicatorAccum::default()
    }

    /// Folds one campaign outcome in.
    pub fn push(&mut self, outcome: &CampaignOutcome) {
        self.push_stats(&outcome.stats());
    }

    /// Folds one replication's scalar [`CampaignStats`] in — the
    /// allocation-free fold behind the workspace hot path, where no full
    /// [`CampaignOutcome`] is ever materialized.
    pub fn push_stats(&mut self, stats: &CampaignStats) {
        self.success.push(stats.succeeded());
        self.detection.push(stats.time_to_detection.is_some());
        if let Some(t) = stats.time_to_attack {
            self.tta.push(f64::from(t));
        }
        if let Some(t) = stats.time_to_detection {
            self.ttsf.push(f64::from(t));
        }
        self.compromised.push(stats.final_compromised_ratio);
    }

    /// Merges another accumulator (covering later replications) in.
    pub fn merge(&mut self, other: &IndicatorAccum) {
        self.success.merge(&other.success);
        self.detection.merge(&other.detection);
        self.tta.merge(&other.tta);
        self.ttsf.merge(&other.ttsf);
        self.compromised.merge(&other.compromised);
    }

    /// Replications folded in so far.
    #[must_use]
    pub fn replications(&self) -> u64 {
        self.success.trials()
    }

    /// The fraction of folded replications that succeeded (0 before the
    /// first one).
    #[must_use]
    pub fn p_success(&self) -> f64 {
        self.success.proportion()
    }

    /// The current precision of `response` at confidence `level`, or
    /// `None` while the interval cannot be computed yet (e.g. fewer than
    /// two observations for a t interval) — or while the estimate is
    /// still an all-zero degenerate.
    ///
    /// The all-zero guard is deliberate: with zero successes the point
    /// estimate is 0, so a *relative* half-width target is unjudgeable —
    /// a degenerate interval must never let an adaptive run stop
    /// "confident" at exactly the rare design points it cannot resolve.
    /// Such runs keep going to their replication cap (and rare-event
    /// splitting is the right tool past that).
    #[must_use]
    pub fn precision(&self, response: PrecisionResponse, level: f64) -> Option<Precision> {
        let ci = match response {
            PrecisionResponse::PSuccess => {
                if self.success.successes() == 0 {
                    return None;
                }
                self.success.ci(level).ok()?
            }
            PrecisionResponse::CompromisedRatio => {
                if self.compromised.is_empty() || self.compromised.mean() == 0.0 {
                    return None;
                }
                self.compromised.mean_ci(level).ok()?
            }
        };
        Some(Precision {
            estimate: ci.estimate,
            half_width: ci.half_width(),
        })
    }

    /// Closes the accumulator into an [`IndicatorSummary`].
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] when no outcome was
    /// folded in.
    pub fn finish(self) -> Result<IndicatorSummary, StatsError> {
        let replications =
            u32::try_from(self.success.trials()).map_err(|_| StatsError::InvalidParameter {
                what: "replication count exceeds u32",
            })?;
        if replications == 0 {
            return Err(StatsError::InsufficientData {
                needed: "at least one campaign outcome",
            });
        }
        Ok(IndicatorSummary {
            replications,
            successes: self.success.successes() as u32,
            detections: self.detection.successes() as u32,
            p_success: self.success.proportion(),
            mean_tta: self.tta.mean_opt(),
            mean_ttsf: self.ttsf.mean_opt(),
            mean_compromised_ratio: self.compromised.mean(),
            tta: self.tta,
            ttsf: self.ttsf,
            compromised: self.compromised,
        })
    }
}

/// The wire form: `success` and `detection` as `{successes, trials}`,
/// `tta`, `ttsf` and `compromised` as the raw Welford state
/// `{count, mean, m2, min, max}`. The serve crate's codec carries each
/// `f64` as its bits, so a round trip is bit-exact, the `±∞` min/max of
/// an empty moment included.
impl Serialize for IndicatorAccum {
    fn to_json_value(&self) -> Value {
        let counter = |c: &BernoulliCounter| {
            Value::Object(vec![
                ("successes".to_owned(), c.successes().to_json_value()),
                ("trials".to_owned(), c.trials().to_json_value()),
            ])
        };
        let moments = |s: &StreamingSummary| {
            let raw = s.to_raw();
            Value::Object(vec![
                ("count".to_owned(), raw.count.to_json_value()),
                ("mean".to_owned(), raw.mean.to_json_value()),
                ("m2".to_owned(), raw.m2.to_json_value()),
                ("min".to_owned(), raw.min.to_json_value()),
                ("max".to_owned(), raw.max.to_json_value()),
            ])
        };
        Value::Object(vec![
            ("success".to_owned(), counter(&self.success)),
            ("detection".to_owned(), counter(&self.detection)),
            ("tta".to_owned(), moments(&self.tta)),
            ("ttsf".to_owned(), moments(&self.ttsf)),
            ("compromised".to_owned(), moments(&self.compromised)),
        ])
    }
}

/// Parses the wire form and rejects every state that folding finite
/// campaign statistics cannot produce, so a forged or corrupted batch
/// is a decode error instead of a NaN in a merged result:
///
/// * more successes than trials, or two counters with different trial
///   counts;
/// * a moment whose count differs from its counter: TTA from the
///   successes, TTSF from the detections, the compromised ratio from
///   the trials;
/// * a non-empty moment with a non-finite mean, m2, min or max, a
///   negative m2, or min above max;
/// * an empty moment other than the empty state (mean and m2 zero, the
///   `±∞` min/max sentinels).
impl Deserialize for IndicatorAccum {
    fn from_json_value(v: &Value) -> Result<Self, serde::Error> {
        let success = counter(v, "success")?;
        let detection = counter(v, "detection")?;
        if detection.trials() != success.trials() {
            return Err(invalid(
                "detection",
                "trials differ from the success counter's",
            ));
        }
        Ok(IndicatorAccum {
            success,
            detection,
            tta: moments(v, "tta", success.successes())?,
            ttsf: moments(v, "ttsf", detection.successes())?,
            compromised: moments(v, "compromised", success.trials())?,
        })
    }
}

fn invalid(key: &str, what: &str) -> serde::Error {
    serde::Error::custom(format!("invalid `{key}` of `IndicatorAccum`: {what}"))
}

fn field<'v>(v: &'v Value, key: &str) -> Result<&'v Value, serde::Error> {
    v.get(key)
        .ok_or_else(|| serde::Error::custom(format!("missing field `{key}` of `IndicatorAccum`")))
}

fn counter(v: &Value, key: &str) -> Result<BernoulliCounter, serde::Error> {
    let c = field(v, key)?;
    let successes = u64::from_json_value(field(c, "successes")?)?;
    let trials = u64::from_json_value(field(c, "trials")?)?;
    BernoulliCounter::from_counts(successes, trials)
        .map_err(|_| invalid(key, "successes exceed trials"))
}

fn moments(v: &Value, key: &str, count: u64) -> Result<StreamingSummary, serde::Error> {
    let m = field(v, key)?;
    let float = |name| f64::from_json_value(field(m, name)?);
    let raw = RawMoments {
        count: u64::from_json_value(field(m, "count")?)?,
        mean: float("mean")?,
        m2: float("m2")?,
        min: float("min")?,
        max: float("max")?,
    };
    if raw.count != count {
        return Err(invalid(key, "count differs from its counter"));
    }
    let reachable = if raw.count == 0 {
        raw == StreamingSummary::new().to_raw()
    } else {
        [raw.mean, raw.m2, raw.min, raw.max]
            .into_iter()
            .all(f64::is_finite)
            && raw.m2 >= 0.0
            && raw.min <= raw.max
    };
    if !reachable {
        return Err(invalid(key, "moments no fold can produce"));
    }
    Ok(StreamingSummary::from_raw(raw))
}

/// Aggregated security indicators for one system configuration.
///
/// * `p_success` — probability of a successful attack (the paper's P_SA);
/// * `time_to_attack` — hours until the goal, over successful campaigns;
/// * `time_to_detection` — hours until the defenders perceive the attack
///   (the paper's Time-To-Security-Failure), over detected campaigns;
/// * `mean_compromised_ratio` — average of each campaign's final
///   compromised ratio (compromised components / total components).
///
/// Distributional information is carried as streaming moments
/// ([`StreamingSummary`]: count/mean/M2/min/max) rather than raw
/// per-replication vectors, so a summary costs O(1) memory regardless of
/// the replication count and confidence intervals derive from the
/// moments alone.
#[derive(Debug, Clone, Serialize)]
pub struct IndicatorSummary {
    /// Number of campaign replications aggregated.
    pub replications: u32,
    /// Count of successful campaigns.
    pub successes: u32,
    /// Count of detected campaigns.
    pub detections: u32,
    /// P(successful attack).
    pub p_success: f64,
    /// Mean Time-To-Attack in ticks (hours), successful campaigns only.
    pub mean_tta: Option<f64>,
    /// Mean Time-To-Security-Failure in ticks, detected campaigns only.
    pub mean_ttsf: Option<f64>,
    /// Mean final compromised ratio.
    pub mean_compromised_ratio: f64,
    /// Streaming TTA moments (successes only).
    #[serde(skip)]
    pub tta: StreamingSummary,
    /// Streaming TTSF moments (detections only).
    #[serde(skip)]
    pub ttsf: StreamingSummary,
    /// Streaming final-compromised-ratio moments (every replication).
    #[serde(skip)]
    pub compromised: StreamingSummary,
}

impl IndicatorSummary {
    /// Aggregates a batch of campaign outcomes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] when `outcomes` is
    /// empty.
    pub fn from_outcomes(outcomes: &[CampaignOutcome]) -> Result<Self, StatsError> {
        let mut acc = IndicatorAccum::new();
        for outcome in outcomes {
            acc.push(outcome);
        }
        acc.finish()
    }

    /// Wilson confidence interval for the attack-success probability.
    ///
    /// # Errors
    ///
    /// Propagates [`StatsError`] for degenerate inputs.
    pub fn p_success_ci(&self, level: f64) -> Result<ConfidenceInterval, StatsError> {
        proportion_ci(
            u64::from(self.successes),
            u64::from(self.replications),
            level,
        )
    }

    /// Student-t confidence interval for the mean Time-To-Attack, from
    /// the streaming moments.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] when fewer than two
    /// campaigns succeeded.
    pub fn tta_ci(&self, level: f64) -> Result<ConfidenceInterval, StatsError> {
        self.tta.mean_ci(level)
    }
}

impl fmt::Display for IndicatorSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P_SA={:.3} ({} of {}) | TTA={} h | TTSF={} h | compromised={:.3}",
            self.p_success,
            self.successes,
            self.replications,
            self.mean_tta.map_or("-".to_string(), |v| format!("{v:.1}")),
            self.mean_ttsf
                .map_or("-".to_string(), |v| format!("{v:.1}")),
            self.mean_compromised_ratio
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diversify_attack::campaign::{CampaignConfig, CampaignSimulator, ThreatModel};
    use diversify_scada::scope::{ScopeConfig, ScopeSystem};

    fn outcomes(n: u32) -> Vec<CampaignOutcome> {
        let net = ScopeSystem::build(&ScopeConfig::default())
            .network()
            .clone();
        let sim =
            CampaignSimulator::new(&net, ThreatModel::stuxnet_like(), CampaignConfig::default());
        sim.run_many(n, 5)
    }

    #[test]
    fn aggregation_counts_match() {
        let os = outcomes(30);
        let s = IndicatorSummary::from_outcomes(&os).unwrap();
        assert_eq!(s.replications, 30);
        assert_eq!(
            s.successes as usize,
            os.iter().filter(|o| o.succeeded()).count()
        );
        assert_eq!(s.tta.count(), u64::from(s.successes));
        assert_eq!(s.ttsf.count(), u64::from(s.detections));
        assert_eq!(s.compromised.count(), 30);
        assert!((0.0..=1.0).contains(&s.p_success));
        assert!((0.0..=1.0).contains(&s.mean_compromised_ratio));
    }

    #[test]
    fn streaming_means_match_slice_means() {
        let os = outcomes(25);
        let s = IndicatorSummary::from_outcomes(&os).unwrap();
        let ttas: Vec<f64> = os
            .iter()
            .filter_map(|o| o.time_to_attack.map(f64::from))
            .collect();
        if !ttas.is_empty() {
            let mean = ttas.iter().sum::<f64>() / ttas.len() as f64;
            assert!((s.mean_tta.unwrap() - mean).abs() < 1e-9);
        }
        let ratios: Vec<f64> = os
            .iter()
            .map(CampaignOutcome::final_compromised_ratio)
            .collect();
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!((s.mean_compromised_ratio - mean).abs() < 1e-12);
    }

    #[test]
    fn accum_merge_equals_single_pass() {
        let os = outcomes(20);
        let whole = IndicatorSummary::from_outcomes(&os).unwrap();
        let mut a = IndicatorAccum::new();
        for o in &os[..8] {
            a.push(o);
        }
        let mut b = IndicatorAccum::new();
        for o in &os[8..] {
            b.push(o);
        }
        a.merge(&b);
        let merged = a.finish().unwrap();
        assert_eq!(merged.replications, whole.replications);
        assert_eq!(merged.successes, whole.successes);
        assert_eq!(merged.detections, whole.detections);
        assert!((merged.mean_compromised_ratio - whole.mean_compromised_ratio).abs() < 1e-12);
        assert_eq!(merged.tta.count(), whole.tta.count());
    }

    #[test]
    fn precision_reports_match_cis() {
        let mut acc = IndicatorAccum::new();
        for o in outcomes(40) {
            acc.push(&o);
        }
        let p = acc
            .precision(PrecisionResponse::PSuccess, 0.95)
            .expect("40 trials suffice");
        assert!(p.half_width > 0.0);
        assert!((0.0..=1.0).contains(&p.estimate));
        let c = acc
            .precision(PrecisionResponse::CompromisedRatio, 0.95)
            .expect("40 observations suffice");
        assert!(c.half_width >= 0.0);
        // An empty accumulator has no precision to report.
        assert!(IndicatorAccum::new()
            .precision(PrecisionResponse::PSuccess, 0.95)
            .is_none());
    }

    #[test]
    fn zero_success_accumulator_reports_no_precision() {
        // Regression: many all-failure replications used to surface a
        // degenerate interval a relative stop rule could accept; the
        // accumulator must instead report "not judgeable yet" so
        // adaptive runs continue to their cap.
        let mut acc = IndicatorAccum::new();
        for _ in 0..500 {
            acc.push_stats(&CampaignStats {
                time_to_attack: None,
                time_to_detection: None,
                final_compromised_ratio: 0.0,
                deepest_stage: diversify_attack::stage::AttackStage::Initial,
                firewall_blocks: 0,
                payload_failures: 0,
            });
        }
        assert!(acc.precision(PrecisionResponse::PSuccess, 0.95).is_none());
        assert!(acc
            .precision(PrecisionResponse::CompromisedRatio, 0.95)
            .is_none());
        // One success unlocks a judgeable interval again.
        acc.push_stats(&CampaignStats {
            time_to_attack: Some(7),
            time_to_detection: None,
            final_compromised_ratio: 0.25,
            deepest_stage: diversify_attack::stage::AttackStage::DeviceImpairment,
            firewall_blocks: 0,
            payload_failures: 0,
        });
        let p = acc
            .precision(PrecisionResponse::PSuccess, 0.95)
            .expect("one success makes the interval judgeable");
        assert!(p.estimate > 0.0 && p.half_width > 0.0);
        assert!(acc
            .precision(PrecisionResponse::CompromisedRatio, 0.95)
            .is_some());
    }

    fn stats(tta: Option<u32>, ttd: Option<u32>, ratio: f64) -> CampaignStats {
        CampaignStats {
            time_to_attack: tta,
            time_to_detection: ttd,
            final_compromised_ratio: ratio,
            deepest_stage: diversify_attack::stage::AttackStage::Initial,
            firewall_blocks: 0,
            payload_failures: 0,
        }
    }

    /// Overwrites the wire-form field at `path`.
    fn set(v: &mut Value, path: &[&str], new: Value) {
        let mut at = v;
        for key in path {
            let Value::Object(pairs) = at else {
                panic!("no object above `{key}`")
            };
            at = &mut pairs
                .iter_mut()
                .find(|(k, _)| k == key)
                .expect("field exists")
                .1;
        }
        *at = new;
    }

    #[test]
    fn wire_form_round_trips_bit_exactly() {
        let mut acc = IndicatorAccum::new();
        for o in outcomes(20) {
            acc.push(&o);
        }
        let empty = IndicatorAccum::new();
        for a in [acc, empty] {
            let wire = a.to_json_value();
            let back = IndicatorAccum::from_json_value(&wire).unwrap();
            assert_eq!(back.to_json_value(), wire);
            assert_eq!(back, a);
        }
        // An empty moment travels with its ±∞ sentinels.
        let wire = empty.to_json_value();
        let tta = wire.get("tta").unwrap();
        assert_eq!(tta.get("min"), Some(&f64::INFINITY.to_json_value()));
        assert_eq!(tta.get("max"), Some(&f64::NEG_INFINITY.to_json_value()));
    }

    #[test]
    fn wire_form_rejects_states_no_fold_produces() {
        // Three replications: one succeeds, two are detected, so every
        // moment but a forged one is non-empty and consistent.
        let mut acc = IndicatorAccum::new();
        acc.push_stats(&stats(Some(5), Some(7), 0.5));
        acc.push_stats(&stats(None, Some(9), 0.25));
        acc.push_stats(&stats(None, None, 0.0));
        let nan = f64::NAN.to_json_value();
        let inf = f64::INFINITY.to_json_value();
        let cases: Vec<(&str, &[&str], Value)> = vec![
            (
                "successes > trials",
                &["success", "successes"],
                4u64.to_json_value(),
            ),
            (
                "trial counts differ",
                &["detection", "trials"],
                4u64.to_json_value(),
            ),
            (
                "TTA count != successes",
                &["tta", "count"],
                8u64.to_json_value(),
            ),
            (
                "TTSF count != detections",
                &["ttsf", "count"],
                1u64.to_json_value(),
            ),
            (
                "ratio count != trials",
                &["compromised", "count"],
                2u64.to_json_value(),
            ),
            ("NaN mean", &["tta", "mean"], nan.clone()),
            ("infinite mean", &["ttsf", "mean"], inf.clone()),
            ("NaN m2", &["compromised", "m2"], nan),
            (
                "negative m2",
                &["compromised", "m2"],
                (-1.0f64).to_json_value(),
            ),
            ("infinite max", &["compromised", "max"], inf),
            ("min > max", &["ttsf", "min"], 10.0f64.to_json_value()),
        ];
        for (what, path, value) in cases {
            let mut wire = acc.to_json_value();
            set(&mut wire, path, value);
            assert!(IndicatorAccum::from_json_value(&wire).is_err(), "{what}");
        }

        // No success: the TTA moment is empty and must be the empty state.
        let mut failures = IndicatorAccum::new();
        failures.push_stats(&stats(None, Some(3), 0.1));
        for (field, value) in [("mean", 1.0f64), ("min", 0.0), ("max", 0.0)] {
            let mut wire = failures.to_json_value();
            set(&mut wire, &["tta", field], value.to_json_value());
            assert!(
                IndicatorAccum::from_json_value(&wire).is_err(),
                "empty TTA moment with {field} {value}"
            );
        }
        assert!(IndicatorAccum::from_json_value(&failures.to_json_value()).is_ok());
    }

    #[test]
    fn confidence_intervals_contain_estimates() {
        let s = IndicatorSummary::from_outcomes(&outcomes(40)).unwrap();
        let ci = s.p_success_ci(0.95).unwrap();
        assert!(ci.contains(s.p_success));
        if s.successes >= 2 {
            let tci = s.tta_ci(0.95).unwrap();
            assert!(tci.contains(s.mean_tta.unwrap()));
        }
    }

    #[test]
    fn display_renders() {
        let s = IndicatorSummary::from_outcomes(&outcomes(5)).unwrap();
        let text = s.to_string();
        assert!(text.contains("P_SA="));
    }

    #[test]
    fn empty_outcomes_error() {
        assert!(matches!(
            IndicatorSummary::from_outcomes(&[]),
            Err(StatsError::InsufficientData { .. })
        ));
    }
}
