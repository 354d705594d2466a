//! The §3 detection bound for the synchronous model.
//!
//! In `SS` the bounds `Φ` (process synchrony) and `Δ` (message
//! synchrony) make perfect detection easy: *“if `p_i` is supposed to
//! send a message `m` to `p_j` while `p_j` is taking its `k`-th step,
//! if `p_j` is aware of that, and if `p_i` crashes and fails in sending
//! `m`, then `p_j` can detect `p_i`'s crash when taking its
//! `(k+Φ+1+Δ)`-th step”*. [`detection_bound`] is that `Φ+1+Δ`. The
//! timeout construction that runs in the `SS` executor and is certified
//! as `P` is `ssp_lab::fd_bridge::HeartbeatProcess`.

/// The detection bound of §3: a crash missed at own-step `k` is
/// detected by own-step `k + Φ + 1 + Δ`.
#[must_use]
pub fn detection_bound(phi: u64, delta: u64) -> u64 {
    phi + 1 + delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_matches_paper_formula() {
        assert_eq!(detection_bound(1, 1), 3);
        assert_eq!(detection_bound(2, 5), 8);
    }
}
