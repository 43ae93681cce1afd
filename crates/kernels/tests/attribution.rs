//! The top-down attribution's contract, pinned end-to-end:
//!
//! * **Differential invariant** — over random kernels × cache pressure
//!   × both scheduling modes, every hart's leaves sum to exactly its
//!   cycle count, every padded roll-up covers `harts × wall-clock`, and
//!   dense ≡ event attribution cell-for-cell.
//! * **Golden snapshot** — one pinned `l2_ablation` configuration's
//!   full leaf vector, so an attribution *reclassification* (cycles
//!   silently moving between leaves while the sums still balance) fails
//!   a test, not just a report diff.
//! * **Phase markers** — the `_profiled` builders emit one `PHASE_MARK`
//!   per tile per hart; `segment_phases` labels the segments
//!   prologue/tile&lt;v&gt;/drain and their attribution deltas re-sum to the
//!   hart's total. The default builders emit none.

use proptest::prelude::*;
use sc_cluster::ClusterSummary;
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, WaitStyle, TCDM_CAP_BYTES};
use sc_mem::{DramConfig, L2Config};
use sc_perf::{segment_phases, Attribution, Leaf};
use sc_system::SystemSummary;

const MAX_CYCLES: u64 = 50_000_000;

/// Whole-set capacity granule (matches the `l2_ablation` sweep).
const CAP_GRANULE: u32 = 256 * 8;

/// Per-hart and padded-roll-up partition checks for a cluster.
fn check_cluster(id: &str, s: &ClusterSummary) -> Result<(), TestCaseError> {
    for (i, c) in s.per_core.iter().enumerate() {
        if let Err(e) = c.counters.attr.verify(c.counters.cycles) {
            return Err(TestCaseError::fail(format!("{id}: hart{i}: {e}")));
        }
    }
    s.attribution
        .verify(s.cycles * s.per_core.len() as u64)
        .map_err(|e| TestCaseError::fail(format!("{id}: cluster roll-up: {e}")))
}

/// Per-hart, per-cluster and system-level partition checks.
fn check_system(id: &str, s: &SystemSummary) -> Result<(), TestCaseError> {
    let mut harts = 0u64;
    for (m, c) in s.per_cluster.iter().enumerate() {
        check_cluster(&format!("{id} cluster{m}"), c)?;
        harts += c.per_core.len() as u64;
    }
    s.attribution
        .verify(s.cycles * harts)
        .map_err(|e| TestCaseError::fail(format!("{id}: system roll-up: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random kernels × random cache pressure × both scheduling modes:
    /// the partition invariant holds at every level, and the event
    /// scheduler attributes every cycle to the same leaf as dense
    /// stepping.
    #[test]
    fn partition_invariant_holds_under_pressure_and_both_modes(
        ny in 2u32..5,
        nz in 2u32..6,
        clusters in 1u32..3,
        harts in 1u32..4,
        variant_idx in 0usize..Variant::ALL.len(),
        cap_sets in 1u32..5,
        refill_latency in 1u32..128,
        channels in 1u32..3,
        park in any::<bool>(),
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let wait = if park { WaitStyle::Park } else { WaitStyle::Poll };
        let Ok(tk) = gen.build_system_tiled_with(clusters, harts, 8 << 10, wait) else {
            return Ok(());
        };
        // A deliberately small, slow L2: capacity pressure (evictions,
        // write-backs) and long exposed refills stress the park/dma-wait
        // and memory-bound leaves.
        let l2 = L2Config::new()
            .with_capacity_bytes(cap_sets * CAP_GRANULE)
            .with_ways(8)
            .with_refill_channels(channels)
            .with_mshrs(8)
            .with_write_back(true)
            .with_refill_latency(refill_latency)
            .with_refill_cycles_per_beat(1)
            .with_bank_width(8);
        let dense = tk
            .run_with(cfg, l2, DramConfig::new(), MAX_CYCLES, |b| b.sched_mode(SchedMode::Dense))
            .map_err(|e| TestCaseError::fail(format!("dense: {e}")))?;
        let event = tk
            .run_with(cfg, l2, DramConfig::new(), MAX_CYCLES, |b| b.sched_mode(SchedMode::Event))
            .map_err(|e| TestCaseError::fail(format!("event: {e}")))?;

        check_system("dense", &dense.summary)?;
        check_system("event", &event.summary)?;
        prop_assert_eq!(
            &dense.summary.attribution,
            &event.summary.attribution,
            "event scheduling must not move a single cycle between leaves"
        );
        for (a, b) in dense.summary.per_cluster.iter().zip(&event.summary.per_cluster) {
            prop_assert_eq!(&a.attribution, &b.attribution);
        }
    }

    /// The same contract on the plain (unbounded, DMA-less) paths,
    /// where `NoInst`/`Frontend`/hazard leaves dominate instead of the
    /// memory ones.
    #[test]
    fn partition_invariant_holds_on_unbounded_kernels(
        ny in 1u32..4,
        nz in 1u32..4,
        harts in 1u32..5,
        variant_idx in 0usize..Variant::ALL.len(),
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let run = gen
                .build_system(1, harts)
                .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                .map_err(|e| TestCaseError::fail(format!("{mode:?}: {e}")))?;
            check_system("cluster", &run.summary)?;
        }
    }
}

/// The pinned `l2_ablation/under/w8/ch1/chaining` point's exact leaf
/// vector (box3d1r 16×16×16, 2 clusters × 2 cores, under-fit write-back
/// L2, 64-cycle refills). A cycle moving between leaves — even
/// sum-preservingly — changes one of these counts and fails here with
/// the leaf's name; drift in the counts themselves is the perf gate's
/// job, reclassification is this test's.
#[test]
fn golden_attribution_of_pinned_l2_ablation_point() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(16, 16, 16),
        Variant::ChainingPlus,
    )
    .expect("valid combination");
    let tk = gen
        .build_system_tiled(2, 2, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB");
    let l2 = L2Config::new()
        .with_capacity_bytes(tk.working_set().underfit_capacity(CAP_GRANULE))
        .with_ways(8)
        .with_refill_channels(1)
        .with_mshrs(8)
        .with_write_back(true)
        .with_refill_latency(64)
        .with_refill_cycles_per_beat(1)
        .with_bank_width(8);
    let run = tk
        .run(
            CoreConfig::new().with_chaining(true),
            l2,
            DramConfig::new(),
            MAX_CYCLES,
        )
        .expect("pinned point runs");
    let s = &run.summary;
    assert_eq!(s.cycles, 50613, "pinned wall-clock moved");
    // Re-pinned for the Park-by-default baseline roll: the spin loops'
    // retires and branch bubbles (`Retired`, `Frontend`) became parked
    // `DmaWait` cycles, and the wall clock shortened by the nine cycles
    // the last poll iterations used to overshoot their completions.
    let golden: &[(Leaf, u64)] = &[
        (Leaf::Retired, 113_057),
        (Leaf::NoInst, 0),
        (Leaf::Frontend, 0),
        (Leaf::RawHazard, 0),
        (Leaf::WawHazard, 0),
        (Leaf::ChainEmpty, 0),
        (Leaf::ChainFull, 0),
        (Leaf::UnitBusy, 0),
        (Leaf::LsuBusy, 2),
        (Leaf::SsrStarve, 0),
        (Leaf::SsrFull, 0),
        (Leaf::LoadStore, 0),
        (Leaf::DmaWait, 44_530),
        (Leaf::Drain, 16),
        (Leaf::Barrier, 44_641),
        (Leaf::SystemBarrier, 0),
        (Leaf::Park, 206),
    ];
    for &(leaf, want) in golden {
        assert_eq!(
            s.attribution.get(leaf),
            want,
            "leaf `{}` reclassified",
            leaf.metric_name()
        );
    }
    s.attribution
        .verify(s.cycles * 4)
        .expect("golden vector partitions 4 harts x wall-clock");
}

/// The profiled builders segment cleanly: one mark per tile per hart,
/// prologue/tile<v>/drain labels, and the segment deltas re-sum to the
/// hart's full attribution. The default builders stay mark-free (they
/// back the CI baselines, which must not move).
#[test]
fn profiled_builds_mark_phases_and_segments_resum() {
    let gen = StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(8, 4, 6),
        Variant::ChainingPlus,
    )
    .expect("valid combination");
    let cap = 8 << 10;
    let harts = 2;
    let cfg = CoreConfig::new().with_chaining(true);
    let dram = DramConfig::new().with_latency(32);

    let plain = gen
        .build_system_tiled_with(1, harts, cap, WaitStyle::Poll)
        .expect("grid tiles");
    let profiled = gen
        .build_system_tiled_profiled(1, harts, cap, WaitStyle::Poll)
        .expect("grid tiles");
    let l2 = L2Config::passthrough(dram);
    let plain_run = plain.run(cfg, l2, dram, MAX_CYCLES).expect("plain runs");
    let run = profiled
        .run(cfg, l2, dram, MAX_CYCLES)
        .expect("profiled runs");

    let num_tiles = run.num_tiles;
    assert!(num_tiles >= 2, "the point must actually tile");
    for (h, core) in run.summary.per_cluster[0].per_core.iter().enumerate() {
        let marks = core.phase_marks.clone();
        assert_eq!(
            marks.len(),
            num_tiles,
            "hart{h}: one mark per tile-loop iteration"
        );
        assert!(
            marks.windows(2).all(|w| w[0].value + 1 == w[1].value),
            "hart{h}: marks carry consecutive tile indices"
        );
        let segments = segment_phases(&marks, core.counters.cycles, &core.counters.attr);
        assert_eq!(segments.len(), num_tiles + 1);
        assert_eq!(segments[0].label, "prologue");
        assert_eq!(segments[1].label, "tile0");
        assert_eq!(segments[segments.len() - 1].label, "drain");
        // The segments tile the hart's run: contiguous in cycles, and
        // their attribution deltas re-sum to the hart's totals.
        let mut resum = Attribution::new();
        let mut cursor = 0u64;
        for seg in &segments {
            assert_eq!(seg.start_cycle, cursor, "hart{h}: segment gap");
            assert!(seg.end_cycle >= seg.start_cycle);
            cursor = seg.end_cycle;
            resum.accumulate(&seg.attr);
        }
        assert_eq!(cursor, core.counters.cycles);
        assert_eq!(resum, core.counters.attr, "hart{h}: segment deltas resum");
    }

    // Default builders emit no marks, and the profiled overhead stays a
    // perturbation, not a different pipeline (same tile count, same
    // DMA traffic).
    assert!(plain_run.summary.per_cluster[0]
        .per_core
        .iter()
        .all(|c| c.phase_marks.is_empty()));
    assert_eq!(plain_run.num_tiles, num_tiles);
    assert_eq!(
        plain_run.summary.total_dma_beats(),
        run.summary.total_dma_beats()
    );

    // The system-level profiled builder threads marks into every
    // cluster the same way.
    let sys = gen
        .build_system_tiled_profiled(2, harts, cap, WaitStyle::Poll)
        .expect("slabs tile");
    let sys_run = sys
        .run(cfg, L2Config::new(), DramConfig::new(), MAX_CYCLES)
        .expect("profiled system runs");
    for cluster in &sys_run.summary.per_cluster {
        for core in &cluster.per_core {
            assert!(
                !core.phase_marks.is_empty(),
                "every hart of every cluster marks its tiles"
            );
            let segs = segment_phases(&core.phase_marks, core.counters.cycles, &core.counters.attr);
            let mut resum = Attribution::new();
            for seg in &segs {
                resum.accumulate(&seg.attr);
            }
            assert_eq!(resum, core.counters.attr);
        }
    }
}
