//! `tmk-bench`: the harness that regenerates every table and figure of the
//! ISCA'94 case study. See `DESIGN.md` §3 for the experiment index and
//! `EXPERIMENTS.md` for recorded paper-vs-measured results.
//!
//! All experiments live in the declarative registry of [`driver`] and run
//! through the unified CLI:
//!
//! ```text
//! cargo run -p tmk-bench --release --bin suite -- \
//!     [--experiment ID]... [--filter SUBSTR]... [--jobs N] [--quick] [--json]
//! ```
//!
//! which fans independent (platform, workload) runs across host cores,
//! memoizes repeated baselines, and can emit `results/*.json` plus
//! `BENCH_results.json`.

pub mod driver;

use tmk_machines::{run_workload, Outcome, Platform};
use tmk_parmacs::Workload;

/// One point of a speedup curve.
#[derive(Debug, Clone)]
pub struct SpeedupPoint {
    /// Processors.
    pub procs: usize,
    /// Execution time in seconds.
    pub seconds: f64,
    /// Speedup relative to the provided baseline.
    pub speedup: f64,
}

/// Runs `w` on `make(procs)` for every processor count and reports speedups
/// relative to `base_seconds` (e.g. the plain DEC uniprocessor time for
/// TreadMarks curves, per the paper).
pub fn speedup_curve<W: Workload>(
    w: &W,
    base_seconds: f64,
    procs: &[usize],
    make: impl Fn(usize) -> Platform,
) -> Vec<SpeedupPoint> {
    procs
        .iter()
        .map(|&n| {
            let out = run_workload(&make(n), w);
            let seconds = out.report.seconds();
            SpeedupPoint {
                procs: n,
                seconds,
                speedup: base_seconds / seconds,
            }
        })
        .collect()
}

/// Execution seconds of `w` on `platform`.
pub fn seconds_on<W: Workload>(platform: &Platform, w: &W) -> f64 {
    run_workload(platform, w).report.seconds()
}

/// Full outcome of `w` on `platform` (checksums + report).
pub fn outcome_on<W: Workload>(platform: &Platform, w: &W) -> Outcome<f64> {
    run_workload(platform, w)
}

/// Prints a speedup table with one column per curve.
pub fn print_speedup_table(title: &str, procs: &[usize], curves: &[(&str, &[SpeedupPoint])]) {
    println!("\n{title}");
    print!("{:>6}", "procs");
    for (name, _) in curves {
        print!("{name:>14}");
    }
    println!();
    for (i, &n) in procs.iter().enumerate() {
        print!("{n:>6}");
        for (_, pts) in curves {
            print!("{:>14.2}", pts[i].speedup);
        }
        println!();
    }
}

/// Formats seconds for tables (3 significant-ish digits).
pub fn fmt_secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 10.0 {
        format!("{s:.1}")
    } else {
        format!("{s:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tmk_apps::sor::Sor;

    #[test]
    fn speedup_curve_shapes() {
        let w = Sor::tiny();
        let base = seconds_on(&Platform::Dec, &w);
        let pts = speedup_curve(&w, base, &[1, 2], Platform::treadmarks);
        assert_eq!(pts.len(), 2);
        assert!(pts[0].speedup > 0.5);
    }

    #[test]
    fn fmt_secs_ranges() {
        assert_eq!(fmt_secs(123.4), "123");
        assert_eq!(fmt_secs(12.34), "12.3");
        assert_eq!(fmt_secs(1.234), "1.23");
    }
}
