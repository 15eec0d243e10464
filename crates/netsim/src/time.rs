//! Simulated time.
//!
//! The simulator counts integer **milliseconds** — the natural unit for RTT
//! work (King RTTs range from ~1 ms to a few seconds) — in a `u64`, giving
//! ~585 million simulated years of range; overflow is not a practical
//! concern.

/// A simulated instant, in milliseconds since simulation start.
pub type Time = u64;

/// A simulated span, in milliseconds.
pub type Duration = u64;

/// One second.
const SECS: Duration = 1_000;

/// One *simulation tick*, the paper's reporting unit for Vivaldi: "1 tick is
/// roughly 17 seconds" (§5.2). Metrics are sampled on tick boundaries.
pub const TICK_MS: Duration = 17 * SECS;

/// Convert a floating-point millisecond value (e.g. an RTT plus adversarial
/// delay) to a simulated duration, rounding to the nearest millisecond and
/// clamping negatives to zero.
#[inline]
pub fn from_ms_f64(ms: f64) -> Duration {
    if ms <= 0.0 || !ms.is_finite() {
        0
    } else {
        ms.round() as Duration
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(from_ms_f64(1.4), 1);
        assert_eq!(from_ms_f64(1.6), 2);
        assert_eq!(from_ms_f64(-3.0), 0);
        assert_eq!(from_ms_f64(f64::NAN), 0);
        assert_eq!(2 * TICK_MS, 34_000);
    }
}
