//! Property tests over the cluster partitioning layer: random grids,
//! variants and hart counts must always verify bit-exactly, account for
//! every flop, and — for one hart — match the legacy simulator
//! cycle-for-cycle.

use proptest::prelude::*;
use sc_core::CoreConfig;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, VecOpKernel, VecOpVariant};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any small grid × variant × hart count runs, verifies against the
    /// golden model, and accounts for every flop across the harts.
    #[test]
    fn random_stencil_cluster_kernels_verify(
        xblk in 1u32..3,
        ny in 1u32..4,
        nz in 1u32..4,
        variant_idx in 0usize..Variant::ALL.len(),
        harts in 1u32..5,
    ) {
        let variant = Variant::ALL[variant_idx];
        let nx = xblk * 8; // multiple of both unroll factors (8 and 4)
        let gen = StencilKernel::new(Stencil::box3d1r(), Grid3::new(nx, ny, nz), variant)
            .expect("valid combination");
        let ck = gen.build_system(1, harts);
        let run = ck
            .run(CoreConfig::new(), 50_000_000)
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", ck.name())))?;
        prop_assert_eq!(run.summary.aggregate.flops, ck.flops());
        prop_assert_eq!(run.summary.per_cluster[0].per_core.len(), harts as usize);

        // One hart partitions into the identical single-core program:
        // the cluster must match the legacy simulator cycle-for-cycle.
        if harts == 1 {
            let legacy = gen
                .build()
                .run(CoreConfig::new(), 50_000_000)
                .map_err(|e| TestCaseError::fail(format!("legacy: {e}")))?;
            prop_assert_eq!(run.summary.cycles, legacy.summary.cycles);
            prop_assert_eq!(
                run.summary.per_cluster[0].per_core[0].counters,
                legacy.summary.counters
            );
        }
    }

    /// Random vecop sizes × variants × hart counts verify bit-exactly;
    /// surplus harts (more harts than unroll groups) are tolerated.
    #[test]
    fn random_vecop_cluster_kernels_verify(
        quads in 1u32..16,
        variant_idx in 0usize..VecOpVariant::ALL.len(),
        harts in 1u32..5,
    ) {
        let variant = VecOpVariant::ALL[variant_idx];
        let gen = VecOpKernel::new(quads * 4, variant);
        let ck = gen.build_cluster(harts);
        let run = ck
            .run(CoreConfig::new(), 10_000_000)
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", ck.name())))?;
        prop_assert_eq!(run.summary.aggregate.flops, u64::from(2 * quads * 4));
        if harts == 1 {
            let legacy = gen
                .build()
                .run(CoreConfig::new(), 10_000_000)
                .map_err(|e| TestCaseError::fail(format!("legacy: {e}")))?;
            prop_assert_eq!(run.summary.cycles, legacy.summary.cycles);
        }
    }
}
