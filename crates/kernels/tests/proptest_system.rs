//! Property tests over the multi-cluster system layer:
//!
//! * any `System{clusters: 1}` configuration — unbounded or tiled
//!   behind a pass-through L2 — is **cycle- and result-identical** to
//!   the equivalent stand-alone `Cluster`,
//! * multi-cluster runs are **bit-identical** in results to
//!   single-cluster runs of the same problem (determinism under L2
//!   arbitration), and deterministic across repeated runs.

mod common;

use proptest::prelude::*;
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant};
use sc_mem::{DramConfig, L2Config};

const MAX_CYCLES: u64 = 50_000_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A 1-cluster unbounded system kernel must match a stand-alone
    /// cluster running the same programs, in both scheduling modes:
    /// cycles and the whole cluster summary callers read from
    /// `per_cluster[0]` (per-core counters and regions, `core_done_at`,
    /// barriers, per-bank conflicts, attribution).
    #[test]
    fn one_cluster_system_is_cycle_identical_to_cluster(
        xblk in 1u32..3,
        ny in 1u32..4,
        nz in 1u32..4,
        variant_idx in 0usize..Variant::ALL.len(),
        harts in 1u32..5,
    ) {
        let variant = Variant::ALL[variant_idx];
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(xblk * 8, ny, nz), variant)
            .expect("valid combination");
        let cfg = CoreConfig::new().with_chaining(variant.uses_chaining());
        let kernel = gen.build_system(1, harts);
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let reference = common::cluster_reference(&gen, &kernel, cfg, mode, MAX_CYCLES)
                .map_err(|e| TestCaseError::fail(format!("cluster {mode:?}: {e}")))?;
            let system = kernel
                .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                .map_err(|e| TestCaseError::fail(format!("system {mode:?}: {e}")))?;
            prop_assert_eq!(system.summary.cycles, reference.cycles);
            prop_assert_eq!(&system.summary.per_cluster[0], &reference);
        }
    }

    /// A 1-cluster *tiled* system behind a pass-through L2 must match a
    /// stand-alone DMA cluster running the same stage sequence over a
    /// private background memory, in both scheduling modes: the whole
    /// cluster summary, DMA and overlap metrics included.
    #[test]
    fn one_cluster_tiled_system_matches_tiled_cluster(
        ny in 2u32..5,
        nz in 2u32..5,
        harts in 1u32..4,
        cap_kib in 6u32..10,
    ) {
        let grid = Grid3::new(8, ny, nz);
        let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
            .expect("valid combination");
        let Ok(tiled) = gen.build_system_tiled(1, harts, cap_kib << 10) else {
            return Ok(()); // cap too small — a clean rejection
        };
        let cfg = CoreConfig::new();
        let dram_cfg = DramConfig::new().with_latency(32);
        for mode in [SchedMode::Dense, SchedMode::Event] {
            let reference = common::tiled_cluster_reference(
                &gen, &grid, &tiled, cfg, dram_cfg, mode, MAX_CYCLES,
            )
            .map_err(|e| TestCaseError::fail(format!("tiled cluster {mode:?}: {e}")))?;
            let system = tiled
                .run_with(cfg, L2Config::passthrough(dram_cfg), dram_cfg, MAX_CYCLES, |b| {
                    b.sched_mode(mode)
                })
                .map_err(|e| TestCaseError::fail(format!("tiled system {mode:?}: {e}")))?;
            prop_assert_eq!(system.summary.cycles, reference.cycles);
            prop_assert_eq!(&system.summary.per_cluster[0], &reference);
        }
    }

    /// Multi-cluster runs (unbounded and tiled, cold L2) verify
    /// bit-exactly against the same golden model the single-cluster
    /// paths verify against — arbitration order can never change
    /// results — and repeated runs are cycle-deterministic.
    #[test]
    fn multi_cluster_runs_are_bit_identical_and_deterministic(
        ny in 2u32..4,
        nz in 2u32..5,
        clusters in 2u32..4,
        harts in 1u32..3,
    ) {
        let gen = StencilKernel::new(
            Stencil::box3d1r(),
            Grid3::new(8, ny, nz),
            Variant::ChainingPlus,
        )
        .expect("valid combination");
        let cfg = CoreConfig::new();

        // Unbounded: the per-cluster checks inside run() verify each
        // slab bit-exactly against the shared golden model.
        let a = gen
            .build_system(clusters, harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("system: {e}")))?;
        let b = gen
            .build_system(clusters, harts)
            .run(cfg, MAX_CYCLES)
            .map_err(|e| TestCaseError::fail(format!("system rerun: {e}")))?;
        prop_assert_eq!(a.summary.cycles, b.summary.cycles);
        prop_assert_eq!(a.summary.aggregate.flops, gen.flops());

        // Tiled through a cold shared L2: run() checks the Dram image
        // bit-exactly against the same golden model.
        if let Ok(tiled) = gen.build_system_tiled(clusters, harts, 8 << 10) {
            let t1 = tiled
                .run(cfg, L2Config::new(), DramConfig::new(), MAX_CYCLES)
                .map_err(|e| TestCaseError::fail(format!("tiled system: {e}")))?;
            let t2 = tiled
                .run(cfg, L2Config::new(), DramConfig::new(), MAX_CYCLES)
                .map_err(|e| TestCaseError::fail(format!("tiled rerun: {e}")))?;
            prop_assert_eq!(t1.summary.cycles, t2.summary.cycles);
            let l2 = t1.summary.l2.expect("shared memory attached");
            prop_assert!(l2.accesses > 0);
        }
    }
}
