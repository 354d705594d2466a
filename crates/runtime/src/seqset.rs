//! A lossless set of sequence numbers that stays small when the
//! numbers arrive (nearly) in order.
//!
//! Receiver dedup and exactly-once ledgers record ids that are handed
//! out by a counter: a link's wire seqnos, a client's request numbers.
//! A plain `HashSet<u64>` of them grows by one entry per id forever.
//! [`SeqSet`] stores the same set as a contiguous watermark — every id
//! below it is a member — plus a hash set of the members above it, so a
//! stream with no permanent gaps keeps only its out-of-order window.

use std::collections::HashSet;

/// A set of `u64` ids: everything below a watermark, plus a sparse set
/// of members above it. Membership, insertion and length agree exactly
/// with a `HashSet<u64>` fed the same ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeqSet {
    /// Every id `< floor` is a member; `floor` itself is not.
    floor: u64,
    /// Members `> floor`.
    above: HashSet<u64>,
}

impl SeqSet {
    /// The empty set.
    #[must_use]
    pub fn new() -> Self {
        SeqSet::default()
    }

    /// Adds `id`; returns whether it was new (as `HashSet::insert`).
    pub fn insert(&mut self, id: u64) -> bool {
        if id < self.floor {
            return false;
        }
        if id > self.floor {
            return self.above.insert(id);
        }
        self.floor += 1;
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }

    /// Whether `id` is a member.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        id < self.floor || self.above.contains(&id)
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.floor + self.above.len() as u64
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Members held individually (above the watermark) — the memory
    /// the set actually retains.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.above.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_ids_keep_nothing_above_the_watermark() {
        let mut s = SeqSet::new();
        for id in 0..10_000 {
            assert!(s.insert(id));
        }
        assert_eq!(s.len(), 10_000);
        assert_eq!(s.retained(), 0);
        assert!(s.contains(9_999));
        assert!(!s.contains(10_000));
    }

    #[test]
    fn a_gap_holds_members_until_it_fills() {
        let mut s = SeqSet::new();
        assert!(s.insert(0));
        assert!(s.insert(2));
        assert!(s.insert(3));
        assert_eq!((s.retained(), s.len()), (2, 3));
        assert!(!s.contains(1));
        assert!(s.insert(1));
        assert_eq!((s.retained(), s.len()), (0, 4));
    }

    #[test]
    fn duplicates_are_refused_on_both_sides_of_the_watermark() {
        let mut s = SeqSet::new();
        assert!(s.insert(0));
        assert!(s.insert(5));
        assert!(!s.insert(0), "below the watermark");
        assert!(!s.insert(5), "above the watermark");
        assert_eq!(s.len(), 2);
        assert!(!s.is_empty());
        assert!(SeqSet::new().is_empty());
    }

    #[test]
    fn agrees_with_a_hash_set_on_a_shuffled_window() {
        // A reordering window of 8 over 0..4096 with every 7th id sent
        // twice: the set stays bounded by the window.
        let mut s = SeqSet::new();
        let mut reference = HashSet::new();
        let mut peak = 0;
        for block in (0u64..4096).step_by(8) {
            for off in [3, 0, 7, 1, 6, 2, 5, 4] {
                let id = block + off;
                for _ in 0..(1 + u64::from(id % 7 == 0)) {
                    assert_eq!(s.insert(id), reference.insert(id));
                }
                peak = peak.max(s.retained());
            }
        }
        assert_eq!(s.len(), reference.len() as u64);
        assert!(peak < 8, "retained {peak} ids for a window of 8");
    }
}
