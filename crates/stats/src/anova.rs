//! ANalysis Of VAriance — the paper's *Diversity Assessment* instrument.
//!
//! [`factorial_two_level`] estimates effects and allocates variance for
//! replicated two-level (fractional) factorial designs, the form
//! produced by the `diversify-doe` crate. This is what Sec. II of the
//! paper describes: *"allocate the variability of the security indicators
//! ... to the component(s) responsible for such variability."*

use crate::dist::FisherF;
use crate::error::StatsError;
use std::fmt;

/// One source-of-variation row in an ANOVA table.
#[derive(Debug, Clone, PartialEq)]
pub struct AnovaRow {
    /// Name of the variation source (factor, interaction, error, ...).
    pub source: String,
    /// Sum of squares attributed to the source.
    pub sum_sq: f64,
    /// Degrees of freedom.
    pub df: f64,
    /// Mean square (`sum_sq / df`).
    pub mean_sq: f64,
    /// F statistic against the error term (`None` for the error/total rows).
    pub f_stat: Option<f64>,
    /// Upper-tail p-value of the F statistic.
    pub p_value: Option<f64>,
    /// Fraction of total variability explained (`sum_sq / ss_total`).
    pub variance_explained: f64,
}

/// ANOVA decomposition for a replicated two-level factorial (or regular
/// fractional factorial) design.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorialAnova {
    /// One row per estimated effect, plus the final `error` row.
    pub rows: Vec<AnovaRow>,
    /// Total sum of squares.
    pub ss_total: f64,
    /// Error degrees of freedom.
    pub df_error: f64,
    /// Grand mean of all observations.
    pub grand_mean: f64,
}

impl FactorialAnova {
    /// The row for a named effect, if present.
    #[must_use]
    pub fn effect(&self, name: &str) -> Option<&AnovaRow> {
        self.rows.iter().find(|r| r.source == name)
    }

    /// Effects sorted by variance explained, descending — the paper's
    /// "components valuable to diversify" ranking.
    #[must_use]
    pub fn ranking(&self) -> Vec<&AnovaRow> {
        let mut effects: Vec<&AnovaRow> =
            self.rows.iter().filter(|r| r.source != "error").collect();
        effects.sort_by(|a, b| {
            b.variance_explained
                .partial_cmp(&a.variance_explained)
                .expect("variance fractions are finite")
        });
        effects
    }
}

impl fmt::Display for FactorialAnova {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<24} {:>12} {:>6} {:>12} {:>10} {:>10} {:>8}",
            "source", "SS", "df", "MS", "F", "p", "var%"
        )?;
        for r in &self.rows {
            let fs = r.f_stat.map_or("-".to_string(), |v| format!("{v:.4}"));
            let pv = r.p_value.map_or("-".to_string(), |v| format!("{v:.4}"));
            writeln!(
                f,
                "{:<24} {:>12.4} {:>6} {:>12.4} {:>10} {:>10} {:>7.2}%",
                r.source,
                r.sum_sq,
                r.df,
                r.mean_sq,
                fs,
                pv,
                100.0 * r.variance_explained
            )?;
        }
        writeln!(f, "{:<24} {:>12.4}", "total", self.ss_total)
    }
}

/// An effect to estimate in [`factorial_two_level`]: either a main effect
/// (one factor index) or an interaction (several indices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSpec {
    /// Display name of the effect (e.g. `"OS"` or `"OS×Protocol"`).
    pub name: String,
    /// Indices of the factors whose signed levels are multiplied to form
    /// the contrast column.
    pub factors: Vec<usize>,
}

impl EffectSpec {
    /// A main effect of factor `index` named `name`.
    #[must_use]
    pub fn main(name: impl Into<String>, index: usize) -> Self {
        EffectSpec {
            name: name.into(),
            factors: vec![index],
        }
    }

    /// A two-factor interaction.
    #[must_use]
    pub fn interaction(name: impl Into<String>, a: usize, b: usize) -> Self {
        EffectSpec {
            name: name.into(),
            factors: vec![a, b],
        }
    }
}

/// ANOVA for a replicated two-level factorial design.
///
/// * `design` — one row per run, each entry `-1` or `+1`; all rows must
///   have the same number of factors.
/// * `responses` — one vector of replicate observations per run (all runs
///   must have the same replicate count ≥ 1; ≥ 2 for an error term).
/// * `effects` — which effects (main or interaction) to estimate.
///
/// Effect sum of squares uses the standard contrast formula
/// `SS = (Σ cᵢ ȳᵢ)² · r / N` where `cᵢ ∈ {−1, +1}` and the error term pools
/// within-run replicate variance.
///
/// # Errors
///
/// Returns an error for inconsistent dimensions, levels other than ±1,
/// unbalanced contrast columns, or aliased effect pairs (identical or
/// opposite contrast columns — which regular fractional designs produce for
/// confounded effects).
pub fn factorial_two_level(
    design: &[Vec<i8>],
    responses: &[Vec<f64>],
    effects: &[EffectSpec],
) -> Result<FactorialAnova, StatsError> {
    let runs = design.len();
    if runs < 2 {
        return Err(StatsError::InvalidGroups {
            what: "factorial ANOVA needs at least two runs",
        });
    }
    if responses.len() != runs {
        return Err(StatsError::InvalidGroups {
            what: "responses must have one entry per design run",
        });
    }
    let k = design[0].len();
    if design.iter().any(|row| row.len() != k) {
        return Err(StatsError::InvalidGroups {
            what: "design rows must have equal length",
        });
    }
    if design
        .iter()
        .any(|row| row.iter().any(|&l| l != -1 && l != 1))
    {
        return Err(StatsError::InvalidParameter {
            what: "design levels must be -1 or +1",
        });
    }
    let reps = responses[0].len();
    if reps == 0 || responses.iter().any(|r| r.len() != reps) {
        return Err(StatsError::InvalidGroups {
            what: "every run needs the same positive replicate count",
        });
    }
    for spec in effects {
        if spec.factors.is_empty() || spec.factors.iter().any(|&i| i >= k) {
            return Err(StatsError::InvalidParameter {
                what: "effect refers to a factor index outside the design",
            });
        }
    }

    // Contrast columns.
    let columns: Vec<Vec<i8>> = effects
        .iter()
        .map(|spec| {
            design
                .iter()
                .map(|row| spec.factors.iter().map(|&i| row[i]).product::<i8>())
                .collect()
        })
        .collect();

    // Balance check: each contrast must have as many +1 as −1 runs.
    for (spec, col) in effects.iter().zip(&columns) {
        let plus = col.iter().filter(|&&c| c == 1).count();
        if plus * 2 != runs {
            let _ = spec;
            return Err(StatsError::InvalidGroups {
                what: "contrast column is unbalanced; design is not a regular two-level design for this effect",
            });
        }
    }

    // Alias check: no two requested effects may share a contrast column.
    for i in 0..columns.len() {
        for j in (i + 1)..columns.len() {
            let same = columns[i] == columns[j];
            let opposite = columns[i].iter().zip(&columns[j]).all(|(a, b)| *a == -*b);
            if same || opposite {
                return Err(StatsError::InvalidGroups {
                    what: "two requested effects are aliased in this design",
                });
            }
        }
    }

    let n_total = (runs * reps) as f64;
    let grand_mean: f64 = responses.iter().flat_map(|r| r.iter()).sum::<f64>() / n_total;
    let ss_total: f64 = responses
        .iter()
        .flat_map(|r| r.iter())
        .map(|y| (y - grand_mean).powi(2))
        .sum();

    let run_means: Vec<f64> = responses
        .iter()
        .map(|r| r.iter().sum::<f64>() / reps as f64)
        .collect();

    // Pooled within-run (pure error) sum of squares.
    let ss_error: f64 = responses
        .iter()
        .zip(&run_means)
        .map(|(r, &m)| r.iter().map(|y| (y - m).powi(2)).sum::<f64>())
        .sum();
    let df_error = (runs * (reps - 1)) as f64;

    let fdist = if df_error > 0.0 {
        Some(FisherF::new(1.0, df_error).expect("df positive"))
    } else {
        None
    };
    let ms_error = if df_error > 0.0 {
        ss_error / df_error
    } else {
        0.0
    };

    let mut rows = Vec::with_capacity(effects.len() + 1);
    for (spec, col) in effects.iter().zip(&columns) {
        let contrast: f64 = col
            .iter()
            .zip(&run_means)
            .map(|(&c, &m)| f64::from(c) * m)
            .sum();
        // SS_effect = r * (Σ c_i ybar_i)^2 / runs.
        let ss = reps as f64 * contrast * contrast / runs as f64;
        let (f_stat, p_value) = match (&fdist, ms_error > 0.0) {
            (Some(fd), true) => {
                let f = ss / ms_error;
                (Some(f), Some(fd.sf(f)))
            }
            _ => (None, None),
        };
        rows.push(AnovaRow {
            source: spec.name.clone(),
            sum_sq: ss,
            df: 1.0,
            mean_sq: ss,
            f_stat,
            p_value,
            variance_explained: if ss_total > 0.0 { ss / ss_total } else { 0.0 },
        });
    }
    rows.push(AnovaRow {
        source: "error".to_string(),
        sum_sq: ss_error,
        df: df_error,
        mean_sq: ms_error,
        f_stat: None,
        p_value: None,
        variance_explained: if ss_total > 0.0 {
            ss_error / ss_total
        } else {
            0.0
        },
    });

    Ok(FactorialAnova {
        rows,
        ss_total,
        df_error,
        grand_mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_factorial_2x2() -> Vec<Vec<i8>> {
        vec![vec![-1, -1], vec![1, -1], vec![-1, 1], vec![1, 1]]
    }

    #[test]
    fn factorial_recovers_planted_effects() {
        // y = 10 + 3*A - 2*B + 1*AB (+ noise-free replicates).
        let design = full_factorial_2x2();
        let responses: Vec<Vec<f64>> = design
            .iter()
            .map(|row| {
                let (a, b) = (f64::from(row[0]), f64::from(row[1]));
                let y = 10.0 + 3.0 * a - 2.0 * b + 1.0 * a * b;
                vec![y + 0.01, y - 0.01] // tiny symmetric jitter
            })
            .collect();
        let effects = vec![
            EffectSpec::main("A", 0),
            EffectSpec::main("B", 1),
            EffectSpec::interaction("A×B", 0, 1),
        ];
        let a = factorial_two_level(&design, &responses, &effects).unwrap();
        // SS_A = r*(Σc ybar)²/runs = 2*(4*3)²/4? contrast = Σ ±ybar = 2*(2*3) = 12; wait:
        // run means: levels a=±1 contribute ±3 each; contrast over 4 runs = 4*3 = 12? Let's
        // just assert ordering and decomposition instead of closed form:
        let ss_a = a.effect("A").unwrap().sum_sq;
        let ss_b = a.effect("B").unwrap().sum_sq;
        let ss_ab = a.effect("A×B").unwrap().sum_sq;
        assert!(ss_a > ss_b && ss_b > ss_ab, "planted magnitudes ordered");
        // Planted effect sizes: SS = N * coeff² with N = 8 observations.
        assert!((ss_a - 8.0 * 9.0).abs() < 0.1, "ss_a={ss_a}");
        assert!((ss_b - 8.0 * 4.0).abs() < 0.1);
        assert!((ss_ab - 8.0 * 1.0).abs() < 0.1);
        // Full decomposition: SS_total = ΣSS_effect + SS_error.
        let sum: f64 = a.rows.iter().map(|r| r.sum_sq).sum();
        assert!((sum - a.ss_total).abs() < 1e-8);
        // Significance.
        assert!(a.effect("A").unwrap().p_value.unwrap() < 0.01);
    }

    #[test]
    fn factorial_ranking_orders_by_variance() {
        let design = full_factorial_2x2();
        let responses: Vec<Vec<f64>> = design
            .iter()
            .map(|row| {
                let (a, b) = (f64::from(row[0]), f64::from(row[1]));
                let y = 5.0 * b + 0.5 * a;
                vec![y + 0.05, y - 0.05]
            })
            .collect();
        let effects = vec![EffectSpec::main("A", 0), EffectSpec::main("B", 1)];
        let table = factorial_two_level(&design, &responses, &effects).unwrap();
        let ranking = table.ranking();
        assert_eq!(ranking[0].source, "B");
        assert_eq!(ranking[1].source, "A");
    }

    #[test]
    fn factorial_detects_aliasing() {
        // A 2^(2-1) half fraction with I = AB: columns A and B are aliased
        // with each other's interaction; requesting A and AB must error.
        let design = vec![vec![-1, -1], vec![1, 1]]; // B = A
        let responses = vec![vec![1.0, 1.1], vec![2.0, 2.1]];
        let effects = vec![EffectSpec::main("A", 0), EffectSpec::main("B", 1)];
        let err = factorial_two_level(&design, &responses, &effects).unwrap_err();
        assert!(matches!(err, StatsError::InvalidGroups { .. }));
    }

    #[test]
    fn factorial_rejects_bad_inputs() {
        let design = full_factorial_2x2();
        let effects = vec![EffectSpec::main("A", 0)];
        // Wrong response count.
        assert!(factorial_two_level(&design, &[vec![1.0]], &effects).is_err());
        // Bad level.
        let bad = vec![vec![0, 1], vec![1, -1]];
        assert!(factorial_two_level(&bad, &[vec![1.0], vec![1.0]], &effects).is_err());
        // Factor index out of range.
        let responses: Vec<Vec<f64>> = vec![vec![1.0]; 4];
        assert!(factorial_two_level(&design, &responses, &[EffectSpec::main("Z", 9)]).is_err());
        // Ragged replicates.
        let ragged = vec![vec![1.0, 2.0], vec![1.0], vec![1.0, 2.0], vec![1.0, 2.0]];
        assert!(factorial_two_level(&design, &ragged, &effects).is_err());
    }

    #[test]
    fn factorial_without_replicates_has_no_f() {
        let design = full_factorial_2x2();
        let responses: Vec<Vec<f64>> = design
            .iter()
            .map(|row| vec![f64::from(row[0]) * 2.0])
            .collect();
        let effects = vec![EffectSpec::main("A", 0)];
        let t = factorial_two_level(&design, &responses, &effects).unwrap();
        assert_eq!(t.df_error, 0.0);
        assert!(t.effect("A").unwrap().f_stat.is_none());
        assert!(t.effect("A").unwrap().p_value.is_none());
    }

    #[test]
    fn factorial_display_renders() {
        let design = full_factorial_2x2();
        let responses: Vec<Vec<f64>> = design.iter().map(|_| vec![1.0, 2.0]).collect();
        let t = factorial_two_level(&design, &responses, &[EffectSpec::main("A", 0)]).unwrap();
        let s = t.to_string();
        assert!(s.contains("source"));
        assert!(s.contains("error"));
        assert!(s.contains("total"));
    }
}
