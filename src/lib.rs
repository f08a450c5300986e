//! # diversify
//!
//! Facade crate for the reproduction of *"Towards Secure Monitoring and
//! Control Systems: Diversify!"* (Cotroneo, Pecchia, Russo — DSN 2013).
//!
//! Re-exports every workspace crate under a stable path. See the README for
//! the architecture overview and `examples/` for runnable entry points.

pub use diversify_attack as attack;
pub use diversify_core as core;
pub use diversify_des as des;
pub use diversify_diversity as diversity;
pub use diversify_doe as doe;
pub use diversify_san as san;
pub use diversify_scada as scada;
pub use diversify_serve as serve;
pub use diversify_stats as stats;

#[cfg(test)]
mod observe;
#[cfg(test)]
mod replication;
