//! What the harness reads from the host: process CPU time, peak resident
//! memory, core count, and a calibration score that lets trajectories
//! measured on different machines be normalised.

use std::time::Instant;

/// Linux reports `/proc/self/stat` CPU times in clock ticks of 1/100 s on
/// every supported architecture (`sysconf(_SC_CLK_TCK)`, unreachable here
/// without a libc binding).
const TICKS_PER_SEC: f64 = 100.0;

/// User and system CPU seconds this process (all threads, no children) has
/// consumed so far.
#[derive(Debug, Clone, Copy)]
pub struct CpuTime {
    pub user: f64,
    pub sys: f64,
}

impl CpuTime {
    pub fn now() -> CpuTime {
        let stat = std::fs::read_to_string("/proc/self/stat").expect("reading /proc/self/stat");
        // The command name (field 2) may contain spaces; fields are
        // counted from the closing parenthesis.
        let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
        let mut fields = rest.split_ascii_whitespace().skip(11);
        let mut tick = || -> f64 {
            let field = fields.next().expect("stat has utime and stime");
            field.parse::<f64>().expect("numeric tick count") / TICKS_PER_SEC
        };
        let user = tick();
        let sys = tick();
        CpuTime { user, sys }
    }

    pub fn total(self) -> f64 {
        self.user + self.sys
    }

    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user: self.user - earlier.user,
            sys: self.sys - earlier.sys,
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is a number of kB");
    kib / 1024.0
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Millions of xorshift64 steps per second on one core: a fixed
/// dependent-chain integer loop that no simulator change can move.
pub fn calib_mops() -> f64 {
    const STEPS: u64 = 20_000_000;
    let mut samples: Vec<f64> = (0..5)
        .map(|round| {
            let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64 + round);
            let t0 = Instant::now();
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            STEPS as f64 / 1e6 / t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The second-fastest of `samples`: the estimate every timing metric of
/// the untraced run reports.
///
/// The machines this runs on switch between speeds a tenth to a quarter
/// apart and hold one for seconds to tens of minutes, so the samples of a
/// run come from several populations in a ratio that differs from run to
/// run. A median follows that ratio; between two sets of ten runs taken
/// half an hour apart the median of medians moved by up to 25 %. The fast
/// end of the sample moved by 1-11 %, because almost every run sees the
/// fast state for a few samples. A slowdown of the code under test shifts
/// every sample, the fastest included. The second and not the first, so
/// that one freak sample cannot set the metric.
pub fn second_fastest(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    samples.sort_by(f64::total_cmp);
    samples[1.min(samples.len() - 1)]
}
