//! # diversify-doe
//!
//! Design of Experiments — the paper's instrument for *"narrowing the
//! number of configurations to assess"*.
//!
//! [`design`] builds two-level designs: full factorial 2^k and regular
//! fractional factorial 2^(k−p) with generator/alias analysis. The
//! paper's study is the 2^(6−2) fractional factorial over the six
//! component classes.

#![warn(missing_docs)]
// The unwrap/expect ban (clippy.toml `disallowed-methods`) is the
// fault-tolerance discipline of `diversify-des`/`diversify-core`; this
// crate predates it and is exercised through those hardened seams.
#![allow(clippy::disallowed_methods)]

pub mod design;

pub use design::{fractional_factorial, full_factorial, DesignMatrix, DoeError};
