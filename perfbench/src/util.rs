//! Sample statistics, process accounting read from `/proc`, and the
//! seeded generator every workload derives its inputs from.

use std::time::Duration;

/// Quantile `q` in `[0, 1]` of `samples` by linear interpolation between
/// the closest ranks. Every sample counts; nothing is bucketed.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "mean of an empty sample");
    samples.iter().sum::<f64>() / samples.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when nothing was counted in the denominator.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The splitmix64 finaliser: a seeded, stateless input generator.
pub fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// User and system CPU time of a process, from `/proc/<pid>/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cpu {
    pub user: Duration,
    pub sys: Duration,
}

impl Cpu {
    pub fn total(self) -> Duration {
        self.user + self.sys
    }

    pub fn since(self, earlier: Cpu) -> Cpu {
        Cpu {
            user: self.user.saturating_sub(earlier.user),
            sys: self.sys.saturating_sub(earlier.sys),
        }
    }
}

/// Linux reports `/proc` CPU times in clock ticks of 1/100 s on every
/// architecture this benchmark runs on.
const TICKS_PER_SECOND: u64 = 100;

/// CPU time of `pid` ("self" for this process). `None` once the process
/// is gone.
pub fn cpu_of(pid: &str) -> Option<Cpu> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the state field that follows the name.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    let tick = Duration::from_secs(1) / TICKS_PER_SECOND as u32;
    Some(Cpu {
        user: tick * u32::try_from(ticks(11)?).ok()?,
        sys: tick * u32::try_from(ticks(12)?).ok()?,
    })
}

/// Restarts this process's peak-RSS count (`VmHWM`) from its current RSS,
/// so that a phase's peak can be read on its own. Best effort: without
/// it the peak covers the process's whole life, which only reads higher.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of `pid` in MiB (`VmHWM`).
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
