//! Failure detectors for the SS/SP comparison (§2.5–2.6, §3).
//!
//! The Chandra–Toueg failure detector abstraction, as the paper uses
//! it:
//!
//! * [`FdHistory`] — concrete histories `H : Π × T → 2^Π`;
//! * [`classify`] and the per-property checkers — the completeness and
//!   accuracy axioms defining the classes `P`, `◇P`, `S`, `◇S`;
//! * [`PerfectOracle`] / [`perfect_history`] — generators of
//!   `P`-compatible histories with adversary-chosen (finite but
//!   unbounded) detection delays, the heart of the `SP` model;
//! * [`detection_bound`] — the §3 bound `Φ+1+Δ` within which a
//!   timeout detects a crash inside the synchronous model.
//!
//! # Examples
//!
//! Generate a perfect history for a crash pattern and verify it
//! satisfies `P`'s axioms:
//!
//! ```
//! use ssp_fd::{classify, perfect_history};
//! use ssp_model::{FailurePattern, ProcessId, Time};
//!
//! let mut pattern = FailurePattern::no_failures(3);
//! pattern.crash(ProcessId::new(1), Time::new(5));
//! let history = perfect_history(&pattern, 4);
//! assert!(classify(&pattern, &history, Time::new(50)).is_perfect());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod classes;
pub mod history;
pub mod oracle;
pub mod timeout;

pub use classes::{
    check_eventual_strong_accuracy, check_eventual_weak_accuracy, check_strong_accuracy,
    check_strong_completeness, check_weak_accuracy, classify, FdProperties,
};
pub use history::FdHistory;
pub use oracle::{eventually_perfect_history, perfect_history, strong_history, PerfectOracle};
pub use timeout::detection_bound;
