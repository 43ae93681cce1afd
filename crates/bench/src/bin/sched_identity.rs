//! Scheduler identity sweep: `SchedMode::Event` replayed against
//! `SchedMode::Dense` on **every config point of every baseline sweep**.
//!
//! The event-driven scheduler is allowed to fast-forward the clock only
//! across windows where stepping would provably change nothing, so it
//! must be an observable no-op: identical cycle counts, per-core
//! `PerfCounters`, DMA statistics and overlap accounting, barrier
//! counts, TCDM conflict maps and shared-L2 statistics. The kernel
//! proptests pin this over *random* kernels; this sweep pins it over the
//! exact grids the CI perf gate baselines — `cluster_scaling`,
//! `system_scaling`, `l2_ablation`, `weak_scaling` and
//! `prefetch_ablation` — so a scheduler bug cannot hide in a corner of
//! the baselined configuration space.
//!
//! Every point runs twice (dense, then event) and the two summaries are
//! compared field by field; any divergence panics with the offending
//! point id. The comparison also re-verifies the top-down attribution's
//! partition invariant (`sum(leaves) == cycles`, per hart and per
//! padded roll-up) on every point — this sweep is CI's proof that the
//! invariant holds across the whole baselined configuration space.
//! Machine-readable results land in `target/reports/sched_identity.json`.
//!
//! Run with `cargo run --release -p sc-bench --bin sched_identity`.

use sc_bench::{json, parallel_sweep, Json};
use sc_cluster::ClusterSummary;
use sc_core::{CoreConfig, SchedMode};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, TCDM_CAP_BYTES};
use sc_mem::{DramConfig, L2Config};
use sc_system::SystemSummary;

const MAX_CYCLES: u64 = 500_000_000;

/// Capacity granule shared by the capacity-swept ablations: capacities
/// must divide into whole sets for every swept associativity.
const CAP_GRANULE: u32 = 256 * 8;

/// One baseline config point: a display id plus how to run it under an
/// explicit scheduling mode.
struct Case {
    id: String,
    run: Box<dyn Fn(SchedMode) -> SystemSummary + Send + Sync>,
}

impl Case {
    fn new(id: String, run: impl Fn(SchedMode) -> SystemSummary + Send + Sync + 'static) -> Self {
        Case {
            id,
            run: Box::new(run),
        }
    }
}

fn variant(chaining: bool) -> Variant {
    if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    }
}

fn gen(grid: Grid3, chaining: bool) -> StencilKernel {
    StencilKernel::new(Stencil::box3d1r(), grid, variant(chaining)).expect("valid combination")
}

/// Field-by-field comparison of two cluster summaries.
fn assert_cluster_identical(id: &str, dense: &ClusterSummary, event: &ClusterSummary) {
    assert_eq!(dense.cycles, event.cycles, "{id}: cluster cycles diverge");
    assert_eq!(dense.per_core.len(), event.per_core.len(), "{id}");
    for (i, (a, b)) in dense.per_core.iter().zip(&event.per_core).enumerate() {
        assert_eq!(a.counters, b.counters, "{id}: hart{i} counters diverge");
        assert_eq!(a.region, b.region, "{id}: hart{i} measured region diverges");
    }
    assert_eq!(dense.aggregate, event.aggregate, "{id}: aggregate diverges");
    assert_eq!(
        dense.core_done_at, event.core_done_at,
        "{id}: done-at diverges"
    );
    assert_eq!(dense.core_conflicts, event.core_conflicts, "{id}");
    assert_eq!(dense.core_accesses, event.core_accesses, "{id}");
    assert_eq!(dense.conflicts_by_bank, event.conflicts_by_bank, "{id}");
    assert_eq!(dense.accesses_by_bank, event.accesses_by_bank, "{id}");
    assert_eq!(
        dense.barriers, event.barriers,
        "{id}: barrier count diverges"
    );
    assert_eq!(dense.system_barriers, event.system_barriers, "{id}");
    assert_eq!(dense.dma, event.dma, "{id}: DMA stats/overlap diverge");
    assert_eq!(
        dense.attribution, event.attribution,
        "{id}: top-down attribution diverges"
    );
    // Beyond dense ≡ event: the attribution must *partition* the run at
    // every level — each hart's leaves sum to its own cycle count, and
    // the padded cluster roll-up covers harts × wall-clock exactly.
    for (i, c) in dense.per_core.iter().enumerate() {
        c.counters
            .attr
            .verify(c.counters.cycles)
            .unwrap_or_else(|e| panic!("{id}: hart{i}: {e}"));
    }
    dense
        .attribution
        .verify(dense.cycles * dense.per_core.len() as u64)
        .unwrap_or_else(|e| panic!("{id}: cluster roll-up: {e}"));
    // Every remaining field (issue traces, phase marks, queue
    // high-water marks) in one comparison.
    assert!(dense == event, "{id}: cluster summaries diverge");
}

/// Field-by-field comparison of two system summaries.
fn assert_system_identical(id: &str, dense: &SystemSummary, event: &SystemSummary) {
    assert_eq!(dense.cycles, event.cycles, "{id}: system cycles diverge");
    assert_eq!(dense.per_cluster.len(), event.per_cluster.len(), "{id}");
    for (m, (a, b)) in dense.per_cluster.iter().zip(&event.per_cluster).enumerate() {
        assert_cluster_identical(&format!("{id} cluster{m}"), a, b);
    }
    assert_eq!(dense.aggregate, event.aggregate, "{id}: aggregate diverges");
    assert_eq!(dense.cluster_done_at, event.cluster_done_at, "{id}");
    assert_eq!(dense.system_barriers, event.system_barriers, "{id}");
    assert_eq!(dense.l2, event.l2, "{id}: shared-L2 stats diverge");
    assert_eq!(dense.l2_refill_beats, event.l2_refill_beats, "{id}");
    assert_eq!(dense.l2_writeback_beats, event.l2_writeback_beats, "{id}");
    assert_eq!(dense.l2_prefetch_beats, event.l2_prefetch_beats, "{id}");
    assert_eq!(
        dense.attribution, event.attribution,
        "{id}: top-down attribution diverges"
    );
    let harts: u64 = dense
        .per_cluster
        .iter()
        .map(|c| c.per_core.len() as u64)
        .sum();
    dense
        .attribution
        .verify(dense.cycles * harts)
        .unwrap_or_else(|e| panic!("{id}: system roll-up: {e}"));
}

/// `cluster_scaling`: box3d1r 16x16x24, 1/2/4/8 cores, chaining on/off,
/// unbounded and 128 KiB tiled + DMA.
fn cluster_scaling_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(16, 16, 24);
    for cores in [1u32, 2, 4, 8] {
        for chaining in [true, false] {
            for tiled in [false, true] {
                let id = format!(
                    "cluster_scaling/{}/c{cores}/{}",
                    if tiled { "tiled" } else { "unbounded" },
                    if chaining { "chaining" } else { "base" }
                );
                // A cluster point is the 1-cluster system, tiled behind a
                // pass-through L2.
                cases.push(Case::new(id.clone(), move |mode| {
                    let cfg = CoreConfig::new().with_chaining(chaining);
                    if tiled {
                        let tk = gen(grid, chaining)
                            .build_system_tiled(1, cores, TCDM_CAP_BYTES)
                            .expect("grid tiles within 128 KiB");
                        let dram = DramConfig::new();
                        tk.run_with(cfg, L2Config::passthrough(dram), dram, MAX_CYCLES, |b| {
                            b.sched_mode(mode)
                        })
                        .unwrap_or_else(|e| panic!("{id}: {e}"))
                        .summary
                    } else {
                        gen(grid, chaining)
                            .build_system(1, cores)
                            .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                            .unwrap_or_else(|e| panic!("{id}: {e}"))
                            .summary
                    }
                }));
            }
        }
    }
}

/// `system_scaling`: box3d1r 16x16x24, 1/2/4 clusters x 1/4/8 cores,
/// chaining on/off, unbounded and tiled through the shared L2.
fn system_scaling_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(16, 16, 24);
    for clusters in [1u32, 2, 4] {
        for cores in [1u32, 4, 8] {
            for chaining in [true, false] {
                for tiled in [false, true] {
                    let id = format!(
                        "system_scaling/{}/m{clusters}/c{cores}/{}",
                        if tiled { "tiled" } else { "unbounded" },
                        if chaining { "chaining" } else { "base" }
                    );
                    cases.push(Case::new(id.clone(), move |mode| {
                        let cfg = CoreConfig::new().with_chaining(chaining);
                        if tiled {
                            let tk = gen(grid, chaining)
                                .build_system_tiled(clusters, cores, TCDM_CAP_BYTES)
                                .expect("slabs tile within 128 KiB");
                            let run = tk
                                .run_with(
                                    cfg,
                                    L2Config::new(),
                                    DramConfig::new(),
                                    MAX_CYCLES,
                                    |b| b.sched_mode(mode),
                                )
                                .unwrap_or_else(|e| panic!("{id}: {e}"));
                            run.summary
                        } else {
                            let sk = gen(grid, chaining).build_system(clusters, cores);
                            let run = sk
                                .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                                .unwrap_or_else(|e| panic!("{id}: {e}"));
                            run.summary
                        }
                    }));
                }
            }
        }
    }
}

/// `l2_ablation`: box3d1r 16x16x16 on m2xc2 tiled, over/under-fit
/// capacity x ways {2,8} x refill channels {1,4} x chaining.
fn l2_ablation_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(16, 16, 16);
    let ws = gen(grid, true)
        .build_system_tiled(2, 2, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB")
        .working_set()
        .clone();
    for (capacity, fit) in [
        (ws.overfit_capacity(CAP_GRANULE), "over"),
        (ws.underfit_capacity(CAP_GRANULE), "under"),
    ] {
        for ways in [2u32, 8] {
            for channels in [1u32, 4] {
                for chaining in [true, false] {
                    let id = format!(
                        "l2_ablation/{fit}/w{ways}/ch{channels}/{}",
                        if chaining { "chaining" } else { "base" }
                    );
                    let l2 = L2Config::new()
                        .with_capacity_bytes(capacity)
                        .with_ways(ways)
                        .with_refill_channels(channels)
                        .with_mshrs(8)
                        .with_write_back(true)
                        .with_refill_latency(64)
                        .with_refill_cycles_per_beat(1)
                        .with_bank_width(8);
                    cases.push(Case::new(id.clone(), move |mode| {
                        let tk = gen(grid, chaining)
                            .build_system_tiled(2, 2, TCDM_CAP_BYTES)
                            .expect("slabs tile within 128 KiB");
                        let run = tk
                            .run_with(
                                CoreConfig::new().with_chaining(chaining),
                                l2,
                                DramConfig::new(),
                                MAX_CYCLES,
                                |b| b.sched_mode(mode),
                            )
                            .unwrap_or_else(|e| panic!("{id}: {e}"));
                        run.summary
                    }));
                }
            }
        }
    }
}

/// `weak_scaling`: the grid grows with the cluster count (16x16x8m on
/// 4 cores), chaining on/off, unbounded and tiled with 1 and 4 refill
/// channels.
fn weak_scaling_cases(cases: &mut Vec<Case>) {
    for clusters in [1u32, 2, 4] {
        let grid = Grid3::new(16, 16, 8 * clusters);
        for chaining in [true, false] {
            for channels in [None, Some(1u32), Some(4u32)] {
                let id = format!(
                    "weak_scaling/{}/m{clusters}/{}",
                    channels.map_or("unbounded".to_owned(), |ch| format!("tiled_ch{ch}")),
                    if chaining { "chaining" } else { "base" }
                );
                cases.push(Case::new(id.clone(), move |mode| {
                    let cfg = CoreConfig::new().with_chaining(chaining);
                    match channels {
                        None => {
                            let sk = gen(grid, chaining).build_system(clusters, 4);
                            let run = sk
                                .run_with(cfg, MAX_CYCLES, |b| b.sched_mode(mode))
                                .unwrap_or_else(|e| panic!("{id}: {e}"));
                            run.summary
                        }
                        Some(ch) => {
                            let tk = gen(grid, chaining)
                                .build_system_tiled(clusters, 4, TCDM_CAP_BYTES)
                                .expect("slabs tile within 128 KiB");
                            let l2 = L2Config::new()
                                .with_refill_channels(ch)
                                .with_refill_latency(64)
                                .with_refill_cycles_per_beat(1);
                            let run = tk
                                .run_with(cfg, l2, DramConfig::new(), MAX_CYCLES, |b| {
                                    b.sched_mode(mode)
                                })
                                .unwrap_or_else(|e| panic!("{id}: {e}"));
                            run.summary
                        }
                    }
                }));
            }
        }
    }
}

/// `prefetch_ablation`: box3d1r 24x24x24, 1/2 clusters x 4 cores,
/// over/under-fit x channels {1,4} x chaining x prefetch
/// {off, (2,8), (2,32), (4,8), (4,32)} through the narrow 3-cycle port.
fn prefetch_ablation_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(24, 24, 24);
    for clusters in [1u32, 2] {
        let ws = gen(grid, true)
            .build_system_tiled(clusters, 4, TCDM_CAP_BYTES)
            .expect("slabs tile within the TCDM cap")
            .working_set()
            .clone();
        for (capacity, fit) in [
            (ws.overfit_capacity(CAP_GRANULE), "over"),
            (ws.underfit_capacity(CAP_GRANULE), "under"),
        ] {
            for channels in [1u32, 4] {
                for chaining in [true, false] {
                    for prefetch in std::iter::once(None)
                        .chain([(2u32, 8u32), (2, 32), (4, 8), (4, 32)].map(Some))
                    {
                        let id = format!(
                            "prefetch_ablation/m{clusters}/{fit}/ch{channels}/{}/{}",
                            if chaining { "chaining" } else { "base" },
                            prefetch.map_or("off".to_owned(), |(d, dist)| format!("d{d}D{dist}"))
                        );
                        let base = L2Config::new()
                            .with_capacity_bytes(capacity)
                            .with_ways(8)
                            .with_refill_channels(channels)
                            .with_mshrs(8)
                            .with_write_back(true)
                            .with_refill_latency(64)
                            .with_refill_cycles_per_beat(1)
                            .with_bank_width(8)
                            .with_cycles_per_beat(3);
                        let l2 = match prefetch {
                            None => base,
                            Some((degree, distance)) => base
                                .with_prefetch(true)
                                .with_prefetch_degree(degree)
                                .with_prefetch_distance(distance)
                                .with_prefetch_queue(2 * distance),
                        };
                        cases.push(Case::new(id.clone(), move |mode| {
                            let tk = gen(grid, chaining)
                                .build_system_tiled(clusters, 4, TCDM_CAP_BYTES)
                                .expect("slabs tile within the TCDM cap");
                            let run = tk
                                .run_with(
                                    CoreConfig::new().with_chaining(chaining),
                                    l2,
                                    DramConfig::new(),
                                    MAX_CYCLES,
                                    |b| b.sched_mode(mode),
                                )
                                .unwrap_or_else(|e| panic!("{id}: {e}"));
                            run.summary
                        }));
                    }
                }
            }
        }
    }
}

/// The per-point verdict the sweep reports after the comparison passed.
struct Verdict {
    id: String,
    cycles: u64,
}

fn main() {
    let mut cases: Vec<Case> = Vec::new();
    cluster_scaling_cases(&mut cases);
    system_scaling_cases(&mut cases);
    l2_ablation_cases(&mut cases);
    weak_scaling_cases(&mut cases);
    prefetch_ablation_cases(&mut cases);

    println!("=== scheduler identity — event vs dense on every baseline point ===");
    println!("=== {} config points x 2 modes ===\n", cases.len());

    let total = cases.len();
    let (verdicts, timing) = parallel_sweep(cases, |case| {
        let dense = (case.run)(SchedMode::Dense);
        let event = (case.run)(SchedMode::Event);
        assert_system_identical(&case.id, &dense, &event);
        Verdict {
            id: case.id,
            cycles: dense.cycles,
        }
    });
    assert_eq!(verdicts.len(), total);

    let mut by_sweep: Vec<(&str, usize)> = Vec::new();
    for v in &verdicts {
        let sweep = v.id.split('/').next().unwrap_or("?");
        match by_sweep.iter_mut().find(|(s, _)| *s == sweep) {
            Some((_, n)) => *n += 1,
            None => by_sweep.push((sweep, 1)),
        }
    }
    for (sweep, n) in &by_sweep {
        println!("{sweep:>20}: {n} points identical");
    }
    println!("\nall {total} baseline points: event == dense");
    println!("{}", timing.report(total));

    let report = Json::obj()
        .set("sweep", "sched_identity")
        .set("points", total as u64)
        .set("all_identical", true)
        .set("attribution_verified", true)
        .set("wall_seconds", timing.wall.as_secs_f64())
        .set("host_thread_speedup", timing.speedup())
        .set(
            "cycles_by_point",
            Json::Arr(
                verdicts
                    .iter()
                    .map(|v| Json::obj().set("id", v.id.as_str()).set("cycles", v.cycles))
                    .collect(),
            ),
        );
    match json::write_report("sched_identity.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }
}
