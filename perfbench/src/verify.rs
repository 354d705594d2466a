//! The `lab` layer: single-threaded exhaustive `Verifier::run` over two
//! fixed spaces, timed in `engine`'s traced run. All of its work is
//! enumeration and symmetry canonicalisation in `lab`, `rounds` and
//! `algos`; none is in the runtime, engine or gateway.
//!
//! It is not a workload of its own: on a 2-vCPU host whose speed flips
//! between states that last minutes, its pass time moved 1.65x between
//! neighbouring runs, more than any bound allows, so its numbers are
//! per-layer only. A pass sweeps both spaces in about 0.4 s.

use std::time::{Duration, Instant};

use ssp_algos::{FloodSet, FloodSetWs};
use ssp_lab::{RoundModel, Symmetry, ValidityMode, Verification, Verifier};

use crate::trace::Tracer;
use crate::Outcome;

const BINARY: &[u64] = &[0, 1];

/// One sweep's time and run counts, and whether its checks held.
struct Sweep {
    took: Duration,
    runs: u64,
    represented: u64,
    ok: bool,
}

/// Times one `Verifier::run` and checks an OK verdict with exactly the
/// expected canonical and represented run counts.
fn sweep(
    tracer: &mut Tracer,
    parent: usize,
    expected: (u64, u64),
    verify: impl FnOnce() -> Verification<u64>,
) -> Sweep {
    let started = Instant::now();
    let v = tracer.span("lab.Verifier::run", Some(parent), None, verify);
    Sweep {
        took: started.elapsed(),
        runs: v.runs,
        represented: v.represented,
        ok: v.is_ok() && (v.runs, v.represented) == expected,
    }
}

/// FloodSetWS in RWS, n = 3, t = 2, full symmetry: 132,756 canonical
/// runs representing 907,928.
fn floodset_ws_rws(tracer: &mut Tracer, parent: usize) -> Sweep {
    sweep(tracer, parent, (132_756, 907_928), || {
        Verifier::new(&FloodSetWs)
            .n(3)
            .t(2)
            .domain(BINARY)
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rws)
            .threads(1)
            .symmetry(Symmetry::Full)
            .run()
    })
}

/// FloodSet in RS, n = 4, t = 2, full symmetry: 17,604 canonical runs
/// representing 397,328.
fn floodset_rs(tracer: &mut Tracer, parent: usize) -> Sweep {
    sweep(tracer, parent, (17_604, 397_328), || {
        Verifier::new(&FloodSet)
            .n(4)
            .t(2)
            .domain(BINARY)
            .mode(ValidityMode::Strong)
            .model(RoundModel::Rs)
            .threads(1)
            .symmetry(Symmetry::Full)
            .run()
    })
}

/// Passes per probe.
const PASSES: u64 = 5;

/// One pass: a sweep of each space, checked.
fn pass(tracer: &mut Tracer, index: u64, out: &mut Outcome, totals: &mut Totals) {
    let span = tracer.open("bench.verify_pass", None, Some(index));
    for sweep in [floodset_ws_rws(tracer, span), floodset_rs(tracer, span)] {
        out.attempted += 1;
        totals.in_verifier += sweep.took;
        totals.runs += sweep.runs;
        totals.represented += sweep.represented;
        if !sweep.ok {
            out.problem(
                1,
                format!(
                    "verdict not OK or run counts off: {} runs representing {}",
                    sweep.runs, sweep.represented
                ),
            );
        }
    }
    tracer.close(span);
}

#[derive(Default)]
struct Totals {
    in_verifier: Duration,
    runs: u64,
    represented: u64,
}

/// Times `PASSES` passes and reports the `lab` layer metrics.
pub fn probe(tracer: &mut Tracer, out: &mut Outcome) {
    let mut totals = Totals::default();
    for index in 0..PASSES {
        pass(tracer, index, out, &mut totals);
    }
    let Totals {
        in_verifier,
        runs,
        represented,
    } = totals;
    out.layer("lab.verify_s", in_verifier.as_secs_f64());
    out.layer(
        "lab.ns_per_run",
        in_verifier.as_nanos() as f64 / runs as f64,
    );
    out.layer("lab.runs", (runs / PASSES) as f64);
    out.layer("lab.symmetry_factor", represented as f64 / runs as f64);
}
