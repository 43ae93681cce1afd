//! Allocation pins for the cycle spine: once the simulator has warmed
//! up, stepping it must not touch the heap.
//!
//! A counting global allocator tallies allocations per thread (a
//! thread-local counter), so the test harness's parallel threads cannot
//! disturb each other's counts.
//!
//! * Every kernel of the paper's Fig. 3 suite steps from cycle 1,000 to
//!   its halt through `Simulator::step` with zero allocations.
//! * A 4-core tiled box3d1r cluster with DMA steps through its steady
//!   state allocating at most once per DMA doorbell rung in the window,
//!   in both scheduling modes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scalar_chaining::benchkit::Fig3Experiment;
use scalar_chaining::cluster::ClusterBuilder;
use scalar_chaining::core_model::SchedMode;
use scalar_chaining::prelude::*;

/// Counts allocation requests (allocations and reallocations) on the
/// calling thread and forwards them to the system allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down, when the counter is no longer accessible.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so `CountingAlloc` upholds exactly the `GlobalAlloc`
// contract `System` does; counting touches only a thread-local `Cell`
// and never allocates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract;
        // `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made on this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const WARM_UP_CYCLES: u64 = 1_000;
const MAX_CYCLES: u64 = 5_000_000;

#[test]
fn fig3_kernels_step_without_allocating() {
    for (stencil, grid) in Fig3Experiment::workloads() {
        for variant in Variant::ALL {
            let gen = StencilKernel::new(stencil.clone(), grid, variant).unwrap();
            let kernel = gen.build();
            let layout = gen.layout();
            let mut sim = Simulator::new(CoreConfig::new(), kernel.program().clone());
            sim.tcdm_mut()
                .write_f64_slice(layout.coeff_base, stencil.coeffs())
                .unwrap();
            sim.tcdm_mut()
                .write_f64_slice(layout.in_base, &grid.random_field(7))
                .unwrap();
            while sim.counters().cycles < WARM_UP_CYCLES {
                sim.step().unwrap();
            }
            let before = allocs();
            while !sim.core().is_halted() {
                assert!(sim.counters().cycles < MAX_CYCLES, "{}", kernel.name());
                sim.step().unwrap();
            }
            let made = allocs() - before;
            let cycles = sim.counters().cycles - WARM_UP_CYCLES;
            assert_eq!(
                made,
                0,
                "{}/{variant}: {made} allocations in {cycles} stepped cycles",
                stencil.name()
            );
        }
    }
}

#[test]
fn tiled_dma_cluster_allocates_at_most_once_per_doorbell() {
    let grid = Grid3::new(16, 8, 8);
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus).unwrap();
    let tiled = gen.build_system_tiled(1, 4, 16 << 10).unwrap();
    assert!(tiled.num_tiles() > 2, "the steady window spans tiles");
    for mode in [SchedMode::Dense, SchedMode::Event] {
        let core = CoreConfig::new().with_tcdm(tiled.tcdm_config());
        let mut stages = tiled.stages()[0].iter().cloned();
        let mut cluster = ClusterBuilder::new(
            ClusterConfig::new(4).with_core(core),
            stages.next().unwrap(),
        )
        .dma(Dram::new(DramConfig::new().with_latency(32)))
        .sched_mode(mode)
        .build();
        let doorbells = |c: &Cluster| c.dma_engine().unwrap().stats().transfers_enqueued;

        let (mut made, mut rung) = (0, 0);
        loop {
            if cluster.is_done() {
                // Reloading a stage is the software tile loop, not a
                // cycle: its program clone is outside the window.
                match stages.next() {
                    Some(next) => cluster.load_programs(next),
                    None => break,
                }
            }
            assert!(cluster.cycles() < MAX_CYCLES);
            let steady = cluster.cycles() >= WARM_UP_CYCLES;
            let (allocs_before, rung_before) = (allocs(), doorbells(&cluster));
            cluster.step().unwrap();
            if steady {
                made += allocs() - allocs_before;
                rung += doorbells(&cluster) - rung_before;
            }
        }
        assert!(rung > 0, "{mode:?}: the window must ring doorbells");
        assert!(
            made <= rung,
            "{mode:?}: {made} allocations for {rung} doorbells over {} cycles",
            cluster.cycles() - WARM_UP_CYCLES
        );
    }
}
