//! The IVY (sequential-consistency, single-writer) protocol as the AS
//! cluster's DSM: correctness on the application suite plus the
//! qualitative LRC-vs-SC comparison the TreadMarks line of work is built
//! on.

use tmk::apps::{sor, tsp, water};
use tmk::machines::{run_workload, DsmProtocol, DsmTuning, Platform};

fn ivy(procs: usize) -> Platform {
    Platform::AsCluster {
        procs,
        part1: true,
        so: None,
        tuning: DsmTuning {
            protocol: DsmProtocol::Ivy,
            ..Default::default()
        },
    }
}

#[test]
fn sor_correct_under_ivy() {
    let w = sor::Sor::tiny();
    let seq = sor::reference(&w);
    let out = run_workload(&ivy(4), &w);
    let total: f64 = out.results.into_iter().sum();
    assert!((total - seq).abs() < 1e-9 * seq.abs().max(1.0));
    assert!(out.report.traffic.miss_msgs > 0);
}

#[test]
fn tsp_finds_optimum_under_ivy() {
    let w = tsp::Tsp::new(9);
    let optimal = f64::from(w.optimal());
    let out = run_workload(&ivy(4), &w);
    assert!(out.results.into_iter().all(|v| v == optimal));
}

#[test]
fn water_correct_under_ivy() {
    let w = water::Water::tiny(water::WaterMode::Modified);
    let seq = water::reference(&w);
    let out = run_workload(&ivy(4), &w);
    let total: f64 = out.results.into_iter().sum();
    assert!((total - seq).abs() < 1e-6 * seq.abs().max(1.0));
}

#[test]
fn ivy_single_processor_needs_no_messages() {
    let w = sor::Sor::tiny();
    let out = run_workload(&ivy(1), &w);
    assert_eq!(out.report.traffic.total_msgs(), 0);
}

#[test]
fn ivy_is_deterministic() {
    let w = water::Water::tiny(water::WaterMode::Original);
    let a = run_workload(&ivy(4), &w).report.cycles;
    let b = run_workload(&ivy(4), &w).report.cycles;
    assert_eq!(a, b);
}

#[test]
fn lrc_moves_less_data_than_ivy_on_sor() {
    // The point of multiple-writer lazy release consistency: SOR's
    // boundary rows cost word diffs under LRC but whole-page ownership
    // ping-pong under IVY.
    let w = sor::Sor::tiny();
    let lrc = run_workload(&Platform::treadmarks(4), &w).report;
    let sc = run_workload(&ivy(4), &w).report;
    assert!(
        lrc.traffic.miss_bytes < sc.traffic.miss_bytes,
        "LRC {} bytes vs IVY {} bytes",
        lrc.traffic.miss_bytes,
        sc.traffic.miss_bytes
    );
}

#[test]
fn lrc_outperforms_ivy_on_false_sharing_heavy_water() {
    // Water's molecule records share pages: IVY pays ownership transfers
    // on nearly every force update; TreadMarks' diffs let writers overlap.
    let w = water::Water::tiny(water::WaterMode::Modified);
    let lrc = run_workload(&Platform::treadmarks(4), &w)
        .report
        .window_seconds();
    let sc = run_workload(&ivy(4), &w).report.window_seconds();
    assert!(
        lrc < sc,
        "LRC {lrc}s should beat sequential-consistency DSM {sc}s"
    );
}
