//! Online accumulators used to observe simulations.

use crate::time::SimTime;

/// A time-weighted average of a piecewise-constant signal, e.g. the
/// *compromised ratio* indicator over a simulation run.
///
/// Call [`TimeWeighted::record`] each time the signal changes; the
/// accumulator integrates the previous value over the elapsed interval.
#[derive(Debug, Clone, Copy)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    integral: f64,
    started: bool,
    start_time: SimTime,
}

impl TimeWeighted {
    /// Creates an accumulator starting at `t0` with initial signal `value`.
    #[must_use]
    pub fn new(t0: SimTime, value: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: value,
            integral: 0.0,
            started: true,
            start_time: t0,
        }
    }

    /// Records that the signal changed to `value` at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous record.
    pub fn record(&mut self, t: SimTime, value: f64) {
        assert!(t >= self.last_time, "time-weighted records must be ordered");
        self.integral += self.last_value * (t - self.last_time).as_secs();
        self.last_time = t;
        self.last_value = value;
    }

    /// Closes the window at `t` and returns the time-weighted mean over
    /// `[t0, t]`. Returns the last value when the window has zero width.
    #[must_use]
    pub fn mean_until(&self, t: SimTime) -> f64 {
        assert!(t >= self.last_time, "window end precedes last record");
        let total = (t - self.start_time).as_secs();
        if total == 0.0 {
            return self.last_value;
        }
        let full = self.integral + self.last_value * (t - self.last_time).as_secs();
        full / total
    }

    /// The most recently recorded value.
    #[must_use]
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Whether the accumulator has been initialized.
    #[must_use]
    pub fn is_started(&self) -> bool {
        self.started
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_weighted_constant_signal() {
        let tw = TimeWeighted::new(SimTime::ZERO, 3.0);
        assert_eq!(tw.mean_until(SimTime::from_secs(10.0)), 3.0);
    }

    #[test]
    fn time_weighted_step_signal() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.record(SimTime::from_secs(5.0), 1.0);
        // 0 for 5s, 1 for 5s => mean 0.5 over 10s.
        assert!((tw.mean_until(SimTime::from_secs(10.0)) - 0.5).abs() < 1e-12);
        assert_eq!(tw.current(), 1.0);
    }

    #[test]
    fn time_weighted_zero_window() {
        let tw = TimeWeighted::new(SimTime::from_secs(2.0), 7.0);
        assert_eq!(tw.mean_until(SimTime::from_secs(2.0)), 7.0);
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn time_weighted_rejects_out_of_order() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5.0), 0.0);
        tw.record(SimTime::from_secs(1.0), 1.0);
    }
}
