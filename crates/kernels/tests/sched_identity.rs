//! The event-driven scheduler's correctness pin: `SchedMode::Event` is
//! an **observable no-op** relative to `SchedMode::Dense`. Over random
//! kernels (shapes × hart counts × capacity pressure × DMA latency ×
//! wait styles), every cycle-visible quantity — cluster cycles, every
//! core's `PerfCounters` and measured region, `DmaStats`, overlap
//! metrics, barrier counts, TCDM conflicts and shared-L2 statistics —
//! must be bit-identical between the two modes. The event path may only
//! skip clock ranges where stepping would provably change nothing; any
//! divergence here means it skipped a cycle that mattered.

mod common;

use proptest::prelude::*;
use sc_cluster::{ClusterBuilder, ClusterConfig, ClusterError};
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, IntReg, ProgramBuilder};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, WaitStyle};
use sc_mem::{Dram, DramConfig, L2Config};
use sc_trace::{TraceConfig, TraceSession};

const MAX_CYCLES: u64 = 50_000_000;

/// Compares two cluster summaries as a whole: every cycle-visible
/// field (per-core counters and regions, `core_done_at`, per-bank
/// conflicts, barriers, DMA and overlap metrics, attribution).
fn assert_cluster_identical(
    a: &sc_cluster::ClusterSummary,
    b: &sc_cluster::ClusterSummary,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.cycles, b.cycles, "cluster cycles diverge");
    prop_assert_eq!(a, b, "cluster summaries diverge");
    Ok(())
}

/// Compares every cycle-visible field of two system summaries.
fn assert_system_identical(
    dense: &sc_system::SystemSummary,
    event: &sc_system::SystemSummary,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dense.cycles, event.cycles, "system cycles diverge");
    prop_assert_eq!(dense.per_cluster.len(), event.per_cluster.len());
    for (a, b) in dense.per_cluster.iter().zip(&event.per_cluster) {
        assert_cluster_identical(a, b)?;
    }
    prop_assert_eq!(&dense.aggregate, &event.aggregate);
    prop_assert_eq!(&dense.cluster_done_at, &event.cluster_done_at);
    prop_assert_eq!(dense.system_barriers, event.system_barriers);
    prop_assert_eq!(&dense.l2, &event.l2, "shared-L2 stats diverge");
    prop_assert_eq!(dense.l2_refill_beats, event.l2_refill_beats);
    prop_assert_eq!(dense.l2_writeback_beats, event.l2_writeback_beats);
    prop_assert_eq!(dense.l2_prefetch_beats, event.l2_prefetch_beats);
    Ok(())
}

fn wait_style(parked: bool) -> WaitStyle {
    if parked {
        WaitStyle::Park
    } else {
        WaitStyle::Poll
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tiled cluster pipelines — DMA countdown bubbles, completion
    /// waits (both styles) and cluster barriers — run cycle- and
    /// stats-identically under the event scheduler, both on a
    /// stand-alone DMA cluster and as the 1-cluster system behind a
    /// pass-through L2 that tiled cluster runs go through; the two
    /// match each other in either mode.
    #[test]
    fn tiled_cluster_event_equals_dense(
        ny in 2u32..5,
        nz in 2u32..6,
        harts in 1u32..4,
        cap_kib in 6u32..10,
        latency_idx in 0usize..4,
        parked in any::<bool>(),
    ) {
        let grid = Grid3::new(8, ny, nz);
        let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
            .expect("valid combination");
        let Ok(tiled) =
            gen.build_system_tiled_with(1, harts, cap_kib << 10, wait_style(parked))
        else {
            return Ok(()); // cap too small — nothing to compare
        };
        let cfg = CoreConfig::new();
        let dram_cfg = DramConfig::new().with_latency([0u32, 16, 64, 256][latency_idx]);
        let mut references = Vec::new();
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let reference = common::tiled_cluster_reference(
                &gen, &grid, &tiled, cfg, dram_cfg, mode, MAX_CYCLES,
            )
            .map_err(|e| TestCaseError::fail(format!("cluster {mode:?}: {e}")))?;
            let system = tiled
                .run_with(cfg, L2Config::passthrough(dram_cfg), dram_cfg, MAX_CYCLES, |b| {
                    b.sched_mode(mode)
                })
                .map_err(|e| TestCaseError::fail(format!("system {mode:?}: {e}")))?;
            assert_cluster_identical(&reference, &system.summary.per_cluster[0])?;
            references.push(reference);
        }
        assert_cluster_identical(&references[0], &references[1])?;
    }

    /// Multi-cluster tiled runs through a refilling, capacity-pressured
    /// shared L2 — engine stalls on cold misses, inter-cluster bank
    /// contention, dirty write-backs — are identical across modes,
    /// L2 statistics included.
    #[test]
    fn tiled_system_event_equals_dense(
        ny in 2u32..4,
        nz in 2u32..5,
        clusters in 1u32..4,
        harts in 1u32..3,
        underfit in any::<bool>(),
        parked in any::<bool>(),
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let Ok(tiled) =
            gen.build_system_tiled_with(clusters, harts, 8 << 10, wait_style(parked))
        else {
            return Ok(());
        };
        // Under-fitting the footprint turns tile revisits into capacity
        // misses and dirty evictions — maximum cache pressure on the
        // skip logic; over-fitting exercises the warm-hit path.
        let granule = 256 * 4;
        let capacity = if underfit {
            tiled.working_set().underfit_capacity(granule)
        } else {
            tiled.working_set().overfit_capacity(granule)
        };
        let l2_cfg = L2Config::new()
            .with_capacity_bytes(capacity.max(granule))
            .with_ways(4)
            .with_write_back(true);
        let cfg = CoreConfig::new();
        let run = |mode: SchedMode| {
            tiled
                .run_with(cfg, l2_cfg, DramConfig::new(), MAX_CYCLES, |b| b.sched_mode(mode))
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))
        };
        let (dense, event) = (run(SchedMode::Dense)?, run(SchedMode::Event)?);
        assert_system_identical(&dense.summary, &event.summary)?;
    }

    /// Parked completion waits whose entry and release land on sampling
    /// cadence boundaries: the DMA latency is a power of two and the
    /// cadence divides it (down to cadence 1, where *every* park
    /// boundary is a cadence point), so locally and globally skipped
    /// windows begin and end exactly where a sample row is owed. The
    /// summaries and the sampled-counter CSV must both be
    /// bit-identical across modes.
    #[test]
    fn cadence_aligned_parked_windows_event_equals_dense(
        ny in 2u32..4,
        clusters in 1u32..3,
        harts in 1u32..3,
        latency_pow in 4u32..9,
        cadence_shift in 0u32..5,
    ) {
        let latency = 1u32 << latency_pow;
        let cadence = u64::from(latency >> cadence_shift.min(latency_pow)).max(1);
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, 4),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let Ok(tiled) =
            gen.build_system_tiled_with(clusters, harts, 8 << 10, WaitStyle::Park)
        else {
            return Ok(());
        };
        let cfg = CoreConfig::new();
        let l2_cfg = L2Config::new().with_refill_latency(latency).with_refill_cycles_per_beat(1);
        let dram_cfg = DramConfig::new().with_latency(latency);
        let mut exports = Vec::new();
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let session = TraceSession::new(TraceConfig::new().with_sample_every(cadence));
            let run = tiled
                .run_with(cfg, l2_cfg, dram_cfg, MAX_CYCLES, |b| {
                    b.tracer(session.tracer()).sched_mode(mode)
                })
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))?;
            exports.push((run.summary, session.samples_csv()));
        }
        assert_system_identical(&exports[0].0, &exports[1].0)?;
        prop_assert_eq!(&exports[0].1, &exports[1].1, "sample rows diverge");
    }

    /// Watchdog-armed parked waits whose skip windows end within a
    /// couple of cycles of the firing point — including exactly one
    /// cycle before it. A hart enqueues one store-out transfer and
    /// parks; the watchdog limit is the transfer's engine latency plus
    /// a small signed offset, so depending on the draw the run either
    /// completes just under the limit or hangs just past it. Both modes
    /// must agree on the outcome — and, on a hang, on the firing cycle
    /// and the stuck-for span.
    #[test]
    fn watchdog_brink_parked_windows_event_equals_dense(
        latency in 16u32..300,
        delta in -2i64..3,
        never_completes in any::<bool>(),
        harts in 1u32..3,
    ) {
        let program = |lead: bool| {
            let mut b = ProgramBuilder::new();
            if !lead {
                b.ecall();
                return b.build().expect("trivial program assembles");
            }
            let t = |i: u8| IntReg::new(i);
            for (addr, value) in [
                (csr::DMA_SRC, 0x0),
                (csr::DMA_DST, 0x400),
                (csr::DMA_LEN, 64),
                (csr::DMA_SRC_STRIDE, 0),
                (csr::DMA_DST_STRIDE, 0),
                (csr::DMA_REPS, 1),
            ] {
                b.li(t(5), value);
                b.csrrw(IntReg::ZERO, addr, t(5));
            }
            b.csrrwi(IntReg::ZERO, csr::DMA_START, 0); // TCDM -> DRAM
            // Parking for a second completion that never arrives turns
            // the brink case into a guaranteed hang.
            b.li(t(6), if never_completes { 2 } else { 1 });
            b.csrrw(t(7), csr::DMA_WAIT, t(6));
            b.ecall();
            b.build().expect("DMA park program assembles")
        };
        let limit = u64::try_from(i64::from(latency) + delta).expect("positive limit");
        let run = |mode: SchedMode| {
            let programs = (0..harts).map(|h| program(h == 0)).collect();
            let mut cluster = ClusterBuilder::new(
                ClusterConfig::new(harts),
                programs,
            )
            .dma(Dram::new(DramConfig::new().with_latency(latency)))
            .watchdog(limit)
            .sched_mode(mode)
            .build();
            for i in 0..8 {
                cluster
                    .tcdm_mut()
                    .write_f64(0x400 + i * 8, f64::from(i))
                    .expect("seed the staged tile");
            }
            let outcome = cluster.run(1_000_000).map(|_| ());
            (cluster.summary(), outcome)
        };
        let (dense_summary, dense_outcome) = run(SchedMode::Dense);
        let (event_summary, event_outcome) = run(SchedMode::Event);
        match (dense_outcome, event_outcome) {
            (Ok(()), Ok(())) => {}
            (Err(ClusterError::Hang(d)), Err(ClusterError::Hang(e))) => {
                prop_assert_eq!(d.cycle, e.cycle, "watchdog firing cycle diverges");
                prop_assert_eq!(d.stuck_for, e.stuck_for, "stuck-for span diverges");
            }
            (d, e) => {
                return Err(TestCaseError::fail(format!(
                    "outcomes diverge: dense {d:?}, event {e:?}"
                )));
            }
        }
        assert_cluster_identical(&dense_summary, &event_summary)?;
    }

    /// Unbounded system kernels: uneven z-partitions leave harts parked
    /// on cluster and system barriers for long stretches (the idle
    /// bubbles the event path fast-forwards) — counts and cycles must
    /// still match exactly. A 1-cluster point must also match a
    /// stand-alone cluster running the same programs in each mode.
    #[test]
    fn unbounded_system_event_equals_dense(
        xblk in 1u32..3,
        ny in 1u32..4,
        nz in 1u32..5,
        variant_idx in 0usize..Variant::ALL.len(),
        clusters in 1u32..4,
        harts in 1u32..5,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(xblk * 8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let kernel = gen.build_system(clusters, harts);
        let run = |mode: SchedMode| {
            kernel
                .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))
        };
        let (dense, event) = (run(SchedMode::Dense)?, run(SchedMode::Event)?);
        assert_system_identical(&dense.summary, &event.summary)?;
        if clusters == 1 {
            for (mode, system) in [(SchedMode::Dense, &dense), (SchedMode::Event, &event)] {
                let reference = common::cluster_reference(&gen, &kernel, cfg, mode, MAX_CYCLES)
                    .map_err(|e| TestCaseError::fail(format!("cluster {mode:?}: {e}")))?;
                assert_cluster_identical(&reference, &system.summary.per_cluster[0])?;
            }
        }
    }
}
