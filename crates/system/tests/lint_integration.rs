//! The static verifier wired into the run loop: hang diagnoses must
//! cross-reference lint findings for the wedged harts (a hang whose
//! program the linter already flagged is almost certainly that bug),
//! and `lint_strict` builders must refuse error-diagnosed programs
//! before a single cycle is simulated. Each cluster runs as the
//! 1-cluster system; the watchdog firing points are pinned as literals
//! in both scheduling modes.

mod common;

use common::{cluster, dma_cluster};
use sc_cluster::ClusterConfig;
use sc_core::{CoreConfig, SchedMode};
use sc_lint::{fixtures, Rule};
use sc_mem::{Dram, DramConfig, TcdmConfig};
use sc_system::SystemError;
use sc_trace::HangReport;

fn cfg() -> CoreConfig {
    CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8))
}

fn expect_hang(outcome: Result<(), SystemError>) -> HangReport {
    match outcome.expect_err("the fixture must wedge") {
        SystemError::Hang(report) => report,
        err => panic!("expected the watchdog to fire, got: {err}"),
    }
}

#[test]
fn hang_report_cross_references_the_fifo_balance_finding() {
    // The chained-burst wedge: five pushes rely on the issue-stage
    // drain; with the drain disabled the hart wedges. The linter flags
    // exactly that reliance (warning tier), and the fired watchdog's
    // report must carry the finding, rule id included.
    for mode in [SchedMode::Dense, SchedMode::Event] {
        let mut system = cluster(
            ClusterConfig::new(1).with_core(cfg().with_chained_fifo_shift(false)),
            vec![fixtures::fifo_wedge(16)],
        )
        .watchdog(5_000)
        .sched_mode(mode)
        .build();
        assert!(
            !system.cluster(0).lint_report().is_clean(),
            "the wedge fixture must be flagged at load time"
        );
        let tcdm = system.cluster_mut(0).tcdm_mut();
        tcdm.write_f64(0x400, 2.0).unwrap();
        tcdm.write_f64(0x408, 3.0).unwrap();
        let report = expect_hang(system.run(200_000).map(|_| ()));
        assert_eq!((report.cycle, report.stuck_for), (5_012, 5_000), "{mode:?}");
        assert!(
            report.mentions("fifo-balance"),
            "hang report must cross-reference the lint finding:\n{report}"
        );
        assert!(report.mentions("hart0.lint"), "{report}");
    }
}

#[test]
fn hang_report_cross_references_the_dma_protocol_finding() {
    // A hart parked on DMA_WAIT for a completion that never comes (no
    // doorbell was ever rung): the linter flags the orphan wait, and
    // the hang diagnosis names the rule.
    for mode in [SchedMode::Dense, SchedMode::Event] {
        let mut system = dma_cluster(
            ClusterConfig::new(1).with_core(cfg()),
            vec![fixtures::parked_forever()],
            Dram::new(DramConfig::new()),
        )
        .watchdog(1_000)
        .sched_mode(mode)
        .build();
        let report = expect_hang(system.run(200_000).map(|_| ()));
        assert_eq!((report.cycle, report.stuck_for), (1_001, 1_000), "{mode:?}");
        assert!(
            report.mentions("dma-protocol"),
            "hang report must cross-reference the lint finding:\n{report}"
        );
    }
}

#[test]
fn lint_strict_refuses_error_diagnosed_programs() {
    // Six back-to-back chained pushes overflow the FIFO even with the
    // drain — an error, so the strict builder must refuse it.
    let err = cluster(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_overflow()],
    )
    .lint_strict()
    .try_build()
    .expect_err("strict verification must refuse the overflow");
    let SystemError::Lint { cluster: 0, report } = err else {
        panic!("expected a cluster-0 lint refusal, got: {err}");
    };
    assert!(report.has_errors());
    assert!(report.has_rule(Rule::FifoBalance), "{report}");
}

#[test]
fn lint_strict_admits_warning_tier_programs() {
    // The drain-dependent burst is warning tier: legal on the shipped
    // hardware, so strict mode builds it (the finding stays visible).
    let system = cluster(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_wedge(16)],
    )
    .lint_strict()
    .try_build()
    .expect("warnings do not refuse the build");
    assert!(!system.cluster(0).lint_report().is_clean());
    assert!(!system.cluster(0).lint_report().has_errors());
}

#[test]
fn lint_report_tracks_reloaded_programs() {
    // `load_programs` replaces the verdict along with the programs.
    let mut system = cluster(
        ClusterConfig::new(1).with_core(cfg()),
        vec![fixtures::fifo_wedge(16)],
    )
    .build();
    assert!(!system.cluster(0).lint_report().is_clean());
    let mut b = sc_isa::ProgramBuilder::new();
    b.ecall();
    system.run(200_000).ok();
    system
        .cluster_mut(0)
        .load_programs(vec![b.build().unwrap()]);
    assert!(system.cluster(0).lint_report().is_clean());
}
