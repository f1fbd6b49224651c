//! Watchdog verdicts on full DSM runs: a livelocked run and a deadlocked
//! run each abort with a panic message naming every processor's state and
//! the machine's diagnostics. The expected texts were recorded from the
//! original thread-per-processor engine, an independent implementation of
//! the same scheduler, and matched this engine byte for byte when both
//! existed.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tmk::apps::{sor, tsp};
use tmk::machines::{run_workload, DsmTuning, Platform};
use tmk::net::FaultPlan;
use tmk::parmacs::Workload;

/// The panic message the run dies with.
fn verdict<W: Workload>(p: &Platform, w: &W) -> String {
    let r = catch_unwind(AssertUnwindSafe(|| run_workload(p, w)));
    let payload = r.expect_err("the run must abort");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("watchdog panics carry a message")
}

#[test]
fn budget_watchdog_verdict_is_pinned() {
    // A budget far below any real finishing time: the watchdog fires
    // mid-run and dumps every processor's state plus machine diagnostics.
    let p = Platform::AsCluster {
        procs: 3,
        part1: false,
        so: None,
        tuning: DsmTuning {
            watchdog_budget: Some(10_000),
            ..Default::default()
        },
    };
    assert_eq!(
        verdict(&p, &sor::Sor::tiny()),
        "simulation watchdog: processor 0 passed the cycle budget (29622 > 10000) \
         — livelock or runaway run\n  \
         p0: ready @ cycle 29622\n  \
         p1: ready @ cycle 32496\n  \
         p2: ready @ cycle 34649\n\
         machine diagnostics:\n  \
         node 0: idle\n  \
         node 1: idle\n  \
         node 2: idle\n"
    );
}

#[test]
fn deadlock_verdict_is_pinned() {
    // Every lock-class message dropped, no retransmission: the first
    // remote acquire hangs its cascade and the all-blocked detector aborts
    // the run with a dump naming each blocked processor and what it waits
    // on.
    let p = Platform::AsCluster {
        procs: 2,
        part1: false,
        so: None,
        tuning: DsmTuning {
            faults: Some(
                FaultPlan::drop_rate(7, 1.0).with_class_mask(tmk::dsm::MsgClass::SyncLock.bit()),
            ),
            ..Default::default()
        },
    };
    assert_eq!(
        verdict(&p, &tsp::Tsp::new(8)),
        "simulation deadlock: all live processors are blocked and no wakeup is \
         pending (lost wakeup or lost message)\n  \
         p0: blocked @ cycle 56851, waiting on barrier 0 release\n  \
         p1: blocked @ cycle 34556, waiting on lock 0 grant\n\
         machine diagnostics:\n  \
         node 0: lock 0: token here, held=false; barrier 0: arrivals [0]\n  \
         node 1: idle\n  \
         injected faults: 1 drops, 0 dups, 0 delays of 1 decisions\n"
    );
}
