//! Deterministic fault injection for the replication executor.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, so this module makes faults *first-class, seeded inputs*:
//! a [`FaultPlan`] decides — purely from a seed or an explicit list —
//! which replication indices misbehave and how ([`FaultKind`]: panic,
//! corrupted output, or an injected slowdown), and [`FaultPlan::wrap`]
//! turns any replication task into one that misbehaves exactly there.
//! Because the plan is index-keyed and the executor's seeds are pure
//! functions of the index, a faulted run is reproducible bit for bit:
//! the same seed produces the same faults at the same indices, and
//! every *surviving* replication is bit-identical to the fault-free
//! run.
//!
//! Faults can be **persistent** (every attempt at a faulted index
//! fails — what a seed-deterministic bug looks like) or **transient**
//! ([`FaultPlan::transient`]: the first *k* attempts fail, then the
//! index recovers — what an environmental hiccup looks like, and the
//! case [`RetryPolicy`](crate::exec::RetryPolicy), which reruns the
//! replication's own seed, is designed to erase completely).
//!
//! Injected panics carry an [`InjectedPanic`] payload rather than a
//! string, so [`silence_injected_panics`] can install a panic hook that
//! keeps *expected* unwinds out of test output while real panics still
//! print.

use crate::exec::Replication;
use crate::rng::{derive_seed, RngStream, StreamId};
use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Once;
use std::time::Duration;

/// The stream namespace fault decisions are drawn under — disjoint from
/// every replication-seed namespace in the workspace, so injecting
/// faults never perturbs the draws of the replications themselves.
pub const FAULT_STREAM_NAMESPACE: u64 = 0xFA_0170_0000;

/// What an injected fault does to its replication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The task panics (with an [`InjectedPanic`] payload) before doing
    /// any work — the crash-isolation case.
    Panic,
    /// The task runs, but its output is passed through the `corrupt`
    /// closure given to [`FaultPlan::wrap`] (typically poisoning it
    /// with NaN) — the invalid-output case a validator must catch.
    CorruptOutput,
    /// The task sleeps this long before running — the straggler case a
    /// wall-clock budget must bound.
    Slow {
        /// Injected delay before the task executes.
        micros: u32,
    },
}

/// The panic payload of [`FaultKind::Panic`]. A typed payload (not a
/// string) so the [`silence_injected_panics`] hook and tests can tell
/// injected unwinds from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedPanic {
    /// The replication index the fault was injected at.
    pub index: u32,
}

/// Where and how faults strike: an index-keyed table of [`FaultKind`]s
/// plus a transience threshold, with per-index hit counters so repeated
/// attempts at one index can observe "fails, fails, recovers".
///
/// Plans are deterministic by construction — [`FaultPlan::seeded`]
/// draws the table from a seed through the same SplitMix64 derivation
/// the executor uses, and [`FaultPlan::with_fault`] places faults
/// explicitly. Hit counters are interior-mutable so a `&FaultPlan`
/// can be shared with a parallel executor; call [`FaultPlan::reset`]
/// between runs that must observe identical transience.
#[derive(Debug)]
pub struct FaultPlan {
    kinds: Vec<Option<FaultKind>>,
    fail_attempts: u32,
    hits: Vec<AtomicU32>,
}

impl FaultPlan {
    /// A plan over `total` replication indices with no faults.
    #[must_use]
    pub fn none(total: u32) -> Self {
        let n = total as usize;
        FaultPlan {
            kinds: vec![None; n],
            fail_attempts: u32::MAX,
            hits: (0..n).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// Places `kind` at replication `index` (indices past `total` are
    /// ignored, matching how the executor never visits them).
    #[must_use]
    pub fn with_fault(mut self, index: u32, kind: FaultKind) -> Self {
        if let Some(slot) = self.kinds.get_mut(index as usize) {
            *slot = Some(kind);
        }
        self
    }

    /// Draws a plan from `seed`: each index independently faults with
    /// probability `rate`, picking uniformly among `kinds`. The
    /// decision for index *i* depends only on `(seed, i)`, so growing
    /// `total` never re-rolls earlier indices.
    #[must_use]
    pub fn seeded(seed: u64, total: u32, rate: f64, kinds: &[FaultKind]) -> Self {
        let mut plan = FaultPlan::none(total);
        if kinds.is_empty() || rate <= 0.0 {
            return plan;
        }
        for i in 0..total {
            let mut rng = RngStream::new(
                derive_seed(seed, StreamId(FAULT_STREAM_NAMESPACE ^ u64::from(i))),
                StreamId(0),
            );
            if rng.uniform() < rate {
                // uniform() < 1.0 strictly, so the index never overflows.
                let pick = (rng.uniform() * kinds.len() as f64) as usize;
                plan.kinds[i as usize] = Some(kinds[pick]);
            }
        }
        plan
    }

    /// Makes every fault transient: an index's fault fires on its first
    /// `attempts` invocations, then the index behaves normally — the
    /// shape a seed-preserving retry erases completely.
    #[must_use]
    pub fn transient(mut self, attempts: u32) -> Self {
        self.fail_attempts = attempts;
        self
    }

    /// The indices this plan faults, in order, with their kinds.
    pub fn faulted(&self) -> impl Iterator<Item = (u32, FaultKind)> + '_ {
        self.kinds
            .iter()
            .enumerate()
            .filter_map(|(i, kind)| kind.map(|k| (i as u32, k)))
    }

    /// Whether `index` is faulted at all (regardless of transience).
    #[must_use]
    pub fn is_faulted(&self, index: u32) -> bool {
        self.kinds
            .get(index as usize)
            .is_some_and(|kind| kind.is_some())
    }

    /// Clears every hit counter, so a reused plan replays its
    /// transience schedule from scratch.
    pub fn reset(&self) {
        for hit in &self.hits {
            hit.store(0, Ordering::Relaxed);
        }
    }

    /// Consumes one invocation at `index`: returns the fault to inject
    /// now, or `None` if the index is clean or has recovered.
    pub fn arm(&self, index: u32) -> Option<FaultKind> {
        let kind = (*self.kinds.get(index as usize)?)?;
        let prior = self.hits[index as usize].fetch_add(1, Ordering::Relaxed);
        (prior < self.fail_attempts).then_some(kind)
    }

    /// Wraps a replication task so it misbehaves exactly where this
    /// plan says: [`FaultKind::Panic`] raises an [`InjectedPanic`],
    /// [`FaultKind::CorruptOutput`] maps the task's output through
    /// `corrupt`, [`FaultKind::Slow`] sleeps first. Clean indices call
    /// straight through, so the wrapped task is bit-identical to the
    /// raw one everywhere the plan is clean.
    pub fn wrap<'p, W, T, F, G>(
        &'p self,
        task: F,
        corrupt: G,
    ) -> impl Fn(&mut W, Replication) -> T + 'p
    where
        F: Fn(&mut W, Replication) -> T + 'p,
        G: Fn(T) -> T + 'p,
    {
        move |ws, rep| match self.arm(rep.index) {
            Some(FaultKind::Panic) => std::panic::panic_any(InjectedPanic { index: rep.index }),
            Some(FaultKind::CorruptOutput) => corrupt(task(ws, rep)),
            Some(FaultKind::Slow { micros }) => {
                std::thread::sleep(Duration::from_micros(u64::from(micros)));
                task(ws, rep)
            }
            None => task(ws, rep),
        }
    }
}

/// Renders a caught panic payload for a
/// [`ReplicationFailure`](crate::exec::ReplicationFailure) record:
/// `&str` and `String` payloads verbatim, [`InjectedPanic`] by its
/// index, anything else opaquely.
#[must_use]
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else if let Some(injected) = payload.downcast_ref::<InjectedPanic>() {
        format!("injected panic at replication {}", injected.index)
    } else {
        "opaque panic payload".to_string()
    }
}

/// Installs (once, process-wide) a panic hook that suppresses the
/// default "thread panicked" report for [`InjectedPanic`] payloads and
/// chains to the previous hook for everything else. Fault-injection
/// tests call this so hundreds of *expected* unwinds don't bury a real
/// failure in noise; real panics keep their backtraces.
pub fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_deterministic_and_prefix_stable() {
        let kinds = [FaultKind::Panic, FaultKind::CorruptOutput];
        let a = FaultPlan::seeded(42, 200, 0.1, &kinds);
        let b = FaultPlan::seeded(42, 200, 0.1, &kinds);
        assert_eq!(
            a.faulted().collect::<Vec<_>>(),
            b.faulted().collect::<Vec<_>>()
        );
        // Growing the plan keeps every earlier decision.
        let longer = FaultPlan::seeded(42, 400, 0.1, &kinds);
        let prefix: Vec<_> = longer.faulted().filter(|(i, _)| *i < 200).collect();
        assert_eq!(a.faulted().collect::<Vec<_>>(), prefix);
        // Other seeds draw other faults.
        let other = FaultPlan::seeded(43, 200, 0.1, &kinds);
        assert_ne!(
            a.faulted().collect::<Vec<_>>(),
            other.faulted().collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeded_rate_is_roughly_honored() {
        let plan = FaultPlan::seeded(7, 10_000, 0.05, &[FaultKind::Panic]);
        let count = plan.faulted().count();
        assert!(
            (300..=700).contains(&count),
            "got {count} faults at rate 0.05"
        );
    }

    #[test]
    fn transient_faults_recover_after_threshold() {
        let plan = FaultPlan::none(4)
            .with_fault(2, FaultKind::Panic)
            .transient(2);
        assert_eq!(plan.arm(2), Some(FaultKind::Panic));
        assert_eq!(plan.arm(2), Some(FaultKind::Panic));
        assert_eq!(plan.arm(2), None, "index recovers on the third attempt");
        assert_eq!(plan.arm(1), None, "clean index never faults");
        plan.reset();
        assert_eq!(
            plan.arm(2),
            Some(FaultKind::Panic),
            "reset replays transience"
        );
    }

    #[test]
    fn wrap_injects_only_at_faulted_indices() {
        silence_injected_panics();
        let plan = FaultPlan::none(3)
            .with_fault(0, FaultKind::Panic)
            .with_fault(1, FaultKind::CorruptOutput);
        let task = |_: &mut (), rep: Replication| rep.seed as f64;
        let wrapped = plan.wrap(task, |_| f64::NAN);
        let rep = |index| Replication {
            index,
            seed: 100 + u64::from(index),
        };
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| wrapped(&mut (), rep(0))));
        let payload = caught.expect_err("index 0 panics");
        assert_eq!(
            payload.downcast_ref::<InjectedPanic>(),
            Some(&InjectedPanic { index: 0 })
        );
        assert!(wrapped(&mut (), rep(1)).is_nan(), "index 1 is corrupted");
        assert_eq!(wrapped(&mut (), rep(2)), 102.0, "index 2 passes through");
    }

    #[test]
    fn panic_messages_render_all_payload_shapes() {
        assert_eq!(panic_message(&"boom"), "boom");
        assert_eq!(panic_message(&String::from("heap boom")), "heap boom");
        assert_eq!(
            panic_message(&InjectedPanic { index: 9 }),
            "injected panic at replication 9"
        );
        assert_eq!(panic_message(&17u32), "opaque panic payload");
    }
}
