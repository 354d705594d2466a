//! Client-side latency accounting: a log-bucketed wall-clock histogram
//! and an exact decide-round histogram per command class.
//!
//! Rounds are the deterministic face of Theorem 5.2 — `A1` under `RS`
//! acks in round 1 failure-free while any `RWS` algorithm needs at
//! least `t + 1` — so the round histogram is reproducible per seed
//! even though the wall-clock one never is.

use std::collections::BTreeMap;
use std::time::Duration;

/// Sample counts per `u32` key, with a rank walk: the core both
/// histograms share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counts {
    by_key: BTreeMap<u32, u64>,
    total: u64,
}

impl Counts {
    fn record(&mut self, key: u32) {
        *self.by_key.entry(key).or_insert(0) += 1;
        self.total += 1;
    }

    fn merge(&mut self, other: &Counts) {
        for (&key, &n) in &other.by_key {
            *self.by_key.entry(key).or_insert(0) += n;
        }
        self.total += other.total;
    }

    /// The key holding the sample of rank `⌈total · q⌉` (at least 1),
    /// `q` clamped to `[0, 1]`; `None` when empty.
    fn quantile_key(&self, q: f64) -> Option<u32> {
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let rank = ((self.total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        self.by_key
            .iter()
            .find(|&(_, &n)| {
                seen += n;
                seen >= rank
            })
            .map(|(&key, _)| key)
    }
}

/// Log2-bucketed microsecond histogram (bucket `i` holds samples in
/// `[2^i, 2^(i+1))` µs), quantiles answered as the upper bound of the
/// rank's bucket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Counts,
    max_micros: u64,
}

impl LatencyHistogram {
    /// Records one sample.
    pub fn record(&mut self, sample: Duration) {
        let micros = u64::try_from(sample.as_micros()).unwrap_or(u64::MAX);
        self.buckets.record(64 - micros.max(1).leading_zeros());
        self.max_micros = self.max_micros.max(micros);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.total
    }

    /// The `q`-quantile in milliseconds (upper bucket bound; exact max
    /// for `q = 1`). Zero when empty.
    #[must_use]
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if q >= 1.0 {
            return self.max_ms();
        }
        self.buckets.quantile_key(q).map_or(0.0, |bucket| {
            let upper = 1u64.checked_shl(bucket).unwrap_or(u64::MAX);
            micros_to_ms(upper.min(self.max_micros))
        })
    }

    /// Maximum sample in milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        micros_to_ms(self.max_micros)
    }

    /// Folds another histogram in (bucket-exact).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.buckets.merge(&other.buckets);
        self.max_micros = self.max_micros.max(other.max_micros);
    }
}

#[allow(clippy::cast_precision_loss)]
fn micros_to_ms(micros: u64) -> f64 {
    micros as f64 / 1000.0
}

/// Exact histogram over decide rounds (small integers), quantiles by
/// rank walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundHistogram {
    rounds: Counts,
}

impl RoundHistogram {
    /// Records one decided round.
    pub fn record(&mut self, round: u32) {
        self.rounds.record(round);
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.rounds.total
    }

    /// The `q`-quantile round (exact). Zero when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u32 {
        self.rounds.quantile_key(q).unwrap_or(0)
    }

    /// Maximum recorded round.
    #[must_use]
    pub fn max(&self) -> u32 {
        self.rounds.by_key.keys().next_back().copied().unwrap_or(0)
    }

    /// Folds another histogram in (exact).
    pub fn merge(&mut self, other: &RoundHistogram) {
        self.rounds.merge(&other.rounds);
    }
}

/// Per-command-class latency summary: wall clock plus decide rounds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClassStats {
    /// Submit-to-ack wall clock.
    pub latency: LatencyHistogram,
    /// Decide rounds carried on the acks.
    pub rounds: RoundHistogram,
}

impl ClassStats {
    /// Records one acked command.
    pub fn record(&mut self, elapsed: Duration, round: u32) {
        self.latency.record(elapsed);
        self.rounds.record(round);
    }

    /// Folds another class in (exact merge of both histograms).
    pub fn merge(&mut self, other: &ClassStats) {
        self.latency.merge(&other.latency);
        self.rounds.merge(&other.rounds);
    }

    /// Renders the class as a JSON object fragment.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"p50_ms\":{:.3},\"p99_ms\":{:.3},\"max_ms\":{:.3},\
             \"p50_rounds\":{},\"p99_rounds\":{},\"max_rounds\":{}}}",
            self.latency.count(),
            self.latency.quantile_ms(0.50),
            self.latency.quantile_ms(0.99),
            self.latency.max_ms(),
            self.rounds.quantile(0.50),
            self.rounds.quantile(0.99),
            self.rounds.max(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_walk_buckets() {
        let mut h = LatencyHistogram::default();
        for ms in [1u64, 1, 1, 1, 1, 1, 1, 1, 1, 64] {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.count(), 10);
        // p50 lands in the 1 ms cluster, p99+max in the 64 ms outlier.
        assert!(h.quantile_ms(0.50) < 3.0, "p50 {}", h.quantile_ms(0.50));
        assert!((h.max_ms() - 64.0).abs() < 0.001);
        assert!(h.quantile_ms(0.99) >= 64.0);
        assert!(h.quantile_ms(1.0) >= 64.0);
    }

    #[test]
    fn round_quantiles_are_exact() {
        let mut h = RoundHistogram::default();
        for r in [1, 1, 1, 2, 2, 3] {
            h.record(r);
        }
        assert_eq!(h.quantile(0.50), 1);
        assert_eq!(h.quantile(0.99), 3);
        assert_eq!(h.max(), 3);
    }

    #[test]
    fn empty_histograms_answer_zero() {
        assert_eq!(LatencyHistogram::default().quantile_ms(0.5), 0.0);
        assert_eq!(RoundHistogram::default().quantile(0.5), 0);
    }
}
