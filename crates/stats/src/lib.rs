//! # diversify-stats
//!
//! The statistics substrate of the *Diversify!* (DSN 2013) reproduction.
//!
//! The paper's third step — *Diversity Assessment* — applies **ANOVA** to
//! allocate the variability of security indicators (measured across the
//! system configurations chosen by DoE) to the HW/SW components responsible
//! for it. This crate implements everything that step needs, from scratch:
//!
//! * [`special`] — log-gamma, regularized incomplete beta/gamma, erf;
//! * [`dist`] — normal, Student-t and F distributions with CDFs and
//!   quantile functions;
//! * [`describe`] — descriptive statistics and quantile estimation;
//! * [`ci`] — confidence intervals (t-based, Wilson proportion, and the
//!   product-of-proportions interval behind multilevel splitting);
//! * [`anova`] — n-way ANOVA for two-level factorial designs, with
//!   variance-explained allocation per factor;
//! * [`stream`] — mergeable streaming accumulators ([`StreamingSummary`],
//!   [`BernoulliCounter`]) with moment-based confidence intervals, the
//!   substrate of the adaptive-precision replication path.
//!
//! ## Example: factorial ANOVA
//!
//! ```
//! use diversify_stats::anova::EffectSpec;
//! use diversify_stats::factorial_two_level;
//!
//! // A replicated 2² design: factor A shifts the response by ±3, B does
//! // nothing, and each run has two replicates around its mean.
//! let design = vec![vec![-1, -1], vec![1, -1], vec![-1, 1], vec![1, 1]];
//! let responses: Vec<Vec<f64>> = design
//!     .iter()
//!     .map(|row| {
//!         let y = 10.0 + 3.0 * f64::from(row[0]);
//!         vec![y - 0.1, y + 0.1]
//!     })
//!     .collect();
//! let effects = [EffectSpec::main("A", 0), EffectSpec::main("B", 1)];
//! let table = factorial_two_level(&design, &responses, &effects).unwrap();
//! assert_eq!(table.ranking()[0].source, "A");
//! let a = table.effect("A").unwrap();
//! assert!(a.variance_explained > 0.99);
//! assert!(a.p_value.unwrap() < 0.001);
//! ```

#![warn(missing_docs)]
// The unwrap/expect ban (clippy.toml `disallowed-methods`) is the
// fault-tolerance discipline of `diversify-des`/`diversify-core`; this
// crate predates it and is exercised through those hardened seams.
#![allow(clippy::disallowed_methods)]

pub mod anova;
pub mod ci;
pub mod describe;
pub mod dist;
pub mod error;
pub mod special;
pub mod stream;

pub use anova::{factorial_two_level, AnovaRow, FactorialAnova};
pub use ci::{mean_ci, product_proportion_ci, proportion_ci, ConfidenceInterval};
pub use describe::Summary;
pub use dist::{Distribution, FisherF, Normal, StudentT};
pub use error::StatsError;
pub use stream::{BernoulliCounter, RawMoments, StreamingSummary};
