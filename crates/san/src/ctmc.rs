//! Exact numerical solution of sparse CTMCs: transient analysis by
//! **uniformization** with adaptive (Fox–Glynn-style) Poisson truncation.
//!
//! A [`Ctmc`] is a CSR infinitesimal generator detached from any SAN
//! structure; [`crate::analytic`] builds one from a
//! [`StateSpace`] and maps reward
//! variables onto the solved distributions.
//!
//! ## Uniformization
//!
//! With `Λ ≥ max_i |q_ii|`, the uniformized DTMC `P = I + Q/Λ` turns the
//! transient distribution into a Poisson mixture,
//!
//! ```text
//! π(t) = Σ_n  pois(Λt; n) · π(0) Pⁿ
//! ∫₀ᵗ π(u) du = (1/Λ) Σ_n (1 − Pois(Λt; n)) · π(0) Pⁿ
//! ```
//!
//! where `Pois` is the Poisson CDF. Both series are evaluated together;
//! the truncation point adapts to the requested tolerance. The integral
//! form is what rate rewards (time averages) and first-passage means
//! consume.

use crate::statespace::StateSpace;

/// Poisson probabilities `pois(λt; n)` for `n = 0..=right()`, computed
/// mode-centered so large `λt` neither under- nor overflows.
#[derive(Debug, Clone)]
pub struct PoissonWeights {
    weights: Vec<f64>,
}

impl PoissonWeights {
    /// Weight of `n` (zero beyond the truncation point).
    #[must_use]
    pub fn weight(&self, n: usize) -> f64 {
        self.weights.get(n).copied().unwrap_or(0.0)
    }

    /// The largest `n` with a retained weight.
    #[must_use]
    pub fn right(&self) -> usize {
        self.weights.len().saturating_sub(1)
    }

    /// All retained weights, from `n = 0`.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }
}

/// Computes Poisson weights for mean `lambda_t`, truncated on the right
/// once the missing tail is below `tol / (1 + lambda_t)` (so the *time
/// integral* of the truncated series is also within `tol`).
///
/// # Panics
///
/// Panics if `lambda_t` is negative or NaN, `tol` is not in `(0, 1)`, or
/// `lambda_t` is at or above 2⁵³ (where `n + 1.0` stops advancing and
/// the extension loops could not terminate — such a series would need
/// ~`lambda_t` terms anyway, far past any feasible computation).
#[must_use]
pub fn poisson_weights(lambda_t: f64, tol: f64) -> PoissonWeights {
    assert!(
        lambda_t.is_finite() && lambda_t >= 0.0,
        "lambda_t must be finite and non-negative"
    );
    assert!(
        lambda_t < 9.0e15,
        "lambda_t {lambda_t} too large for a convergent Poisson series"
    );
    assert!(tol > 0.0 && tol < 1.0, "tol must be in (0, 1)");
    if lambda_t == 0.0 {
        return PoissonWeights { weights: vec![1.0] };
    }
    // Unnormalized weights relative to the mode: u_m = 1, extended in both
    // directions until the terms are negligible. Normalizing by the total
    // sum stands in for the e^{-λt} factor that would underflow for large
    // λt.
    let mode = lambda_t.floor();
    let mut right_terms: Vec<f64> = vec![1.0];
    let mut u = 1.0;
    let mut n = mode;
    loop {
        n += 1.0;
        u *= lambda_t / n;
        if u < 1e-30 {
            break;
        }
        right_terms.push(u);
    }
    let mut left_terms: Vec<f64> = Vec::new(); // mode-1 downto 0
    u = 1.0;
    n = mode;
    while n >= 1.0 {
        u *= n / lambda_t;
        if u < 1e-30 {
            break;
        }
        left_terms.push(u);
        n -= 1.0;
    }
    let total: f64 = right_terms.iter().sum::<f64>() + left_terms.iter().sum::<f64>();
    let first = mode as usize - left_terms.len();
    let mut weights = vec![0.0; first];
    weights.extend(left_terms.iter().rev().map(|w| w / total));
    weights.extend(right_terms.iter().map(|w| w / total));
    // Trim the right tail down to the integral-safe tolerance.
    let tail_tol = tol / (1.0 + lambda_t);
    let mut cum = 0.0;
    let mut keep = weights.len();
    for (i, w) in weights.iter().enumerate() {
        cum += w;
        if 1.0 - cum < tail_tol {
            keep = i + 1;
            break;
        }
    }
    weights.truncate(keep);
    PoissonWeights { weights }
}

/// A sparse CTMC: off-diagonal generator rows in CSR form plus exit
/// rates (`exit[i] = -q_ii`).
#[derive(Debug, Clone)]
pub struct Ctmc {
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
    rates: Vec<f64>,
    exit: Vec<f64>,
}

/// A solved transient: the distribution at the horizon and its time
/// integral over `[0, horizon]`.
#[derive(Debug, Clone)]
pub struct TransientDistribution {
    /// `pi[s]` = P(state `s` at the horizon).
    pub pi: Vec<f64>,
    /// `integral[s]` = expected time spent in state `s` over the window.
    pub integral: Vec<f64>,
    /// Number of uniformization steps taken (diagnostic).
    pub steps: usize,
}

impl Ctmc {
    /// Builds a CTMC from explicit CSR parts.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    #[must_use]
    pub fn from_parts(
        row_ptr: Vec<usize>,
        cols: Vec<usize>,
        rates: Vec<f64>,
        exit: Vec<f64>,
    ) -> Self {
        assert_eq!(row_ptr.len(), exit.len() + 1, "row_ptr/exit mismatch");
        assert_eq!(cols.len(), rates.len(), "cols/rates mismatch");
        assert_eq!(*row_ptr.last().expect("non-empty row_ptr"), cols.len());
        Ctmc {
            row_ptr,
            cols,
            rates,
            exit,
        }
    }

    /// Builds a CTMC from an explored state space.
    #[must_use]
    pub fn from_state_space(space: &StateSpace) -> Self {
        let (row_ptr, cols, rates, exit) = space.generator();
        Ctmc::from_parts(
            row_ptr.to_vec(),
            cols.to_vec(),
            rates.to_vec(),
            exit.to_vec(),
        )
    }

    /// Builds a CTMC from a state space with the states flagged in
    /// `absorbing` made absorbing (their outgoing transitions removed) —
    /// the standard first-passage transformation.
    ///
    /// # Panics
    ///
    /// Panics if `absorbing.len()` differs from the state count.
    #[must_use]
    pub fn from_state_space_absorbing(space: &StateSpace, absorbing: &[bool]) -> Self {
        assert_eq!(absorbing.len(), space.state_count(), "mask length mismatch");
        let n = space.state_count();
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut cols = Vec::new();
        let mut rates = Vec::new();
        let mut exit = Vec::with_capacity(n);
        row_ptr.push(0);
        for (i, &is_absorbing) in absorbing.iter().enumerate() {
            if !is_absorbing {
                for (j, r) in space.transitions(i) {
                    cols.push(j);
                    rates.push(r);
                }
            }
            row_ptr.push(cols.len());
            exit.push(if is_absorbing {
                0.0
            } else {
                space.exit_rate(i)
            });
        }
        Ctmc::from_parts(row_ptr, cols, rates, exit)
    }

    /// Number of states.
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.exit.len()
    }

    /// One step of the uniformized DTMC: `out = v · P` with
    /// `P = I + Q/Λ`.
    fn step(&self, v: &[f64], lambda: f64, out: &mut [f64]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o = v[j] * (1.0 - self.exit[j] / lambda);
        }
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for k in self.row_ptr[i]..self.row_ptr[i + 1] {
                out[self.cols[k]] += vi * self.rates[k] / lambda;
            }
        }
    }

    /// Transient solution by uniformization: the distribution at time
    /// `horizon` and its integral over `[0, horizon]`, starting from the
    /// (sub-)distribution `initial` (a list of `(state, probability)`).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is negative/NaN or `tol` is not in `(0, 1)`.
    #[must_use]
    pub fn transient(
        &self,
        initial: &[(usize, f64)],
        horizon: f64,
        tol: f64,
    ) -> TransientDistribution {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be finite and non-negative"
        );
        let n = self.state_count();
        let mut v = vec![0.0; n];
        for &(s, p) in initial {
            v[s] += p;
        }
        let max_exit = self.exit.iter().cloned().fold(0.0f64, f64::max);
        if max_exit == 0.0 || horizon == 0.0 {
            // Frozen chain (or empty window): nothing moves.
            let integral = v.iter().map(|&p| p * horizon).collect();
            return TransientDistribution {
                pi: v.clone(),
                integral,
                steps: 0,
            };
        }
        // A uniformization constant strictly above the fastest exit keeps
        // a self-loop in every row of P (aperiodicity insurance, shared
        // with the steady-state power iteration).
        let lambda = max_exit * 1.02;
        let weights = poisson_weights(lambda * horizon, tol);
        let mut pi = vec![0.0; n];
        let mut integral = vec![0.0; n];
        let mut next = vec![0.0; n];
        let mut cdf = 0.0;
        let right = weights.right();
        for step in 0..=right {
            let w = weights.weight(step);
            cdf += w;
            // Survival factor for the integral: P(N(Λt) > step) / Λ.
            let tail = (1.0 - cdf).max(0.0) / lambda;
            for s in 0..n {
                pi[s] += w * v[s];
                integral[s] += tail * v[s];
            }
            if step < right {
                self.step(&v, lambda, &mut next);
                std::mem::swap(&mut v, &mut next);
            }
        }
        TransientDistribution {
            pi,
            integral,
            steps: right + 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state failure/repair chain: q01 = 2, q10 = 3.
    fn two_state() -> Ctmc {
        Ctmc::from_parts(vec![0, 1, 2], vec![1, 0], vec![2.0, 3.0], vec![2.0, 3.0])
    }

    #[test]
    fn poisson_weights_small_mean() {
        let w = poisson_weights(0.5, 1e-12);
        assert!((w.weight(0) - (-0.5f64).exp()).abs() < 1e-12);
        assert!((w.weight(1) - 0.5 * (-0.5f64).exp()).abs() < 1e-12);
        let total: f64 = w.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
    }

    #[test]
    fn poisson_weights_large_mean_no_underflow() {
        let w = poisson_weights(5_000.0, 1e-10);
        let total: f64 = w.weights().iter().sum();
        assert!((total - 1.0).abs() < 1e-8, "total {total}");
        // Mass concentrates near the mode.
        assert!(w.weight(5_000) > w.weight(4_500));
        assert!(w.weight(5_000) > 1e-3);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn poisson_weights_reject_untractable_mean() {
        let _ = poisson_weights(1e16, 1e-9);
    }

    #[test]
    fn poisson_weights_zero_mean() {
        let w = poisson_weights(0.0, 1e-9);
        assert_eq!(w.weights(), &[1.0]);
    }

    #[test]
    fn transient_matches_closed_form() {
        // P(down at t) for failure rate λ=2, repair μ=3, starting up:
        // p1(t) = λ/(λ+μ) (1 − e^{-(λ+μ)t}).
        let c = two_state();
        for t in [0.1, 0.5, 2.0] {
            let sol = c.transient(&[(0, 1.0)], t, 1e-12);
            let expect = 0.4 * (1.0 - (-5.0 * t).exp());
            assert!(
                (sol.pi[1] - expect).abs() < 1e-9,
                "t={t}: {} vs {expect}",
                sol.pi[1]
            );
            assert!((sol.pi[0] + sol.pi[1] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn transient_integral_matches_closed_form() {
        // ∫ p1 = 0.4 t − 0.08 (1 − e^{-5t}).
        let c = two_state();
        let t = 1.5;
        let sol = c.transient(&[(0, 1.0)], t, 1e-12);
        let expect = 0.4 * t - 0.08 * (1.0 - (-5.0 * t).exp());
        assert!(
            (sol.integral[1] - expect).abs() < 1e-8,
            "{} vs {expect}",
            sol.integral[1]
        );
        // Integrals over both states partition the window.
        assert!((sol.integral[0] + sol.integral[1] - t).abs() < 1e-8);
    }

    #[test]
    fn absorbing_chain_transient_absorbs() {
        // 0 -> 1 at rate 1, state 1 absorbing.
        let c = Ctmc::from_parts(vec![0, 1, 1], vec![1], vec![1.0], vec![1.0, 0.0]);
        let sol = c.transient(&[(0, 1.0)], 3.0, 1e-12);
        assert!((sol.pi[1] - (1.0 - (-3.0f64).exp())).abs() < 1e-9);
    }

    #[test]
    fn frozen_chain_is_identity() {
        let c = Ctmc::from_parts(vec![0, 0, 0], vec![], vec![], vec![0.0, 0.0]);
        let sol = c.transient(&[(1, 1.0)], 10.0, 1e-9);
        assert_eq!(sol.pi, vec![0.0, 1.0]);
        assert_eq!(sol.integral, vec![0.0, 10.0]);
        assert_eq!(sol.steps, 0);
    }
}
