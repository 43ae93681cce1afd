//! Cluster scaling sweep: the paper's chaining extension at cluster
//! level, with and without the real memory system.
//!
//! Runs the `box3d1r` stencil tiled over 1/2/4/8 cores sharing one
//! banked TCDM, with chaining on (`Chaining+`) and off (`Base`), in two
//! memory regimes:
//!
//! * **unbounded** — the legacy capacity cheat: the whole problem
//!   resident in a scaled-up TCDM, no data movement modelled;
//! * **tiled** — the TCDM capped at the real cluster's 128 KiB, the
//!   problem staged in background memory, and a DMA engine
//!   double-buffering z-slab tiles through ping-pong buffers while the
//!   cores compute.
//!
//! Both regimes verify bit-exactly against the same golden model, so
//! their results are numerically identical by construction; the sweep
//! asserts this by running every config to verified completion. The
//! tiled rows additionally report DMA traffic and the compute–transfer
//! overlap fraction — how much of the engine's busy time was hidden
//! behind compute.
//!
//! The config points are independent simulations, so they fan out over
//! host threads. Machine-readable results (consumed by the CI perf
//! gate, see `baselines/`) land in `target/reports/cluster_scaling.json`.
//!
//! Run with `cargo run --release -p sc-bench --bin cluster_scaling`.

use sc_bench::{json, parallel_sweep, Json};
use sc_cluster::{ClusterSummary, DmaSummary};
use sc_core::CoreConfig;
use sc_energy::{ClusterEnergyReport, EnergyModel};
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, TCDM_CAP_BYTES};
use sc_mem::{DramConfig, L2Config};

const CORES: [u32; 4] = [1, 2, 4, 8];
const MAX_CYCLES: u64 = 500_000_000;

struct Point {
    cores: u32,
    chaining: bool,
    tiled: bool,
    tiles: usize,
    name: String,
    summary: ClusterSummary,
    energy: ClusterEnergyReport,
}

impl Point {
    fn id(&self) -> String {
        format!(
            "{}/c{}/{}",
            if self.tiled { "tiled" } else { "unbounded" },
            self.cores,
            if self.chaining { "chaining" } else { "base" }
        )
    }
}

fn run_point(cores: u32, chaining: bool, tiled: bool, grid: Grid3) -> Point {
    let variant = if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    };
    let cfg = CoreConfig::new().with_chaining(chaining);
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).expect("valid combination");
    // A cluster is the 1-cluster system; tiled, it sits behind a
    // pass-through L2 (the engine pays the background memory's timing).
    let (name, tiles, mut system) = if tiled {
        let tk = gen
            .build_system_tiled(1, cores, TCDM_CAP_BYTES)
            .expect("grid tiles within 128 KiB");
        let dram = DramConfig::new();
        let run = tk
            .run(cfg, L2Config::passthrough(dram), dram, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{} on {cores} cores: {e}", tk.name()));
        (tk.name().to_owned(), run.num_tiles, run.summary)
    } else {
        let ck = gen.build_system(1, cores);
        let run = ck
            .run(cfg, MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{} on {cores} cores: {e}", ck.name()));
        (ck.name().to_owned(), 1, run.summary)
    };
    let summary = system.per_cluster.remove(0);
    let per_core: Vec<_> = summary.per_core.iter().map(|c| c.counters).collect();
    let dma_beats = summary.dma.map_or(0, |d| d.stats.beats);
    let energy = EnergyModel::new().cluster_report_with_dma(&per_core, summary.cycles, dma_beats);
    Point {
        cores,
        chaining,
        tiled,
        tiles,
        name,
        summary,
        energy,
    }
}

fn busiest_banks(by_bank: &[u64]) -> String {
    let mut ranked: Vec<(usize, u64)> = by_bank
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, c)| *c > 0)
        .collect();
    ranked.sort_by_key(|(bank, conflicts)| (std::cmp::Reverse(*conflicts), *bank));
    if ranked.is_empty() {
        return "none".to_owned();
    }
    ranked
        .iter()
        .take(3)
        .map(|(bank, conflicts)| format!("b{bank}:{conflicts}"))
        .collect::<Vec<_>>()
        .join(" ")
}

fn dma_json(dma: &DmaSummary) -> Json {
    Json::obj()
        .set("beats", dma.stats.beats)
        .set("bytes_to_tcdm", dma.stats.bytes_to_tcdm)
        .set("bytes_from_tcdm", dma.stats.bytes_from_tcdm)
        .set("transfers", dma.stats.transfers_completed)
        .set("tcdm_conflicts", dma.stats.tcdm_conflicts)
        .set("dram_wait_cycles", dma.stats.dram_wait_cycles)
        .set("busy_cycles", dma.busy_cycles)
        .set("overlap_cycles", dma.overlap_cycles)
        .set(
            "exposed_cycles",
            dma.transfer_attribution().exposed_cycles(),
        )
        .set("overlap_fraction", dma.overlap_fraction())
        .set("port", u64::from(dma.port))
}

fn point_json(p: &Point) -> Json {
    let s = &p.summary;
    let mut j = Json::obj()
        .set("id", p.id())
        .set("kernel", p.name.as_str())
        .set("cores", p.cores)
        .set("chaining", p.chaining)
        .set("tiled", p.tiled)
        .set("tiles", p.tiles)
        .set("cycles_to_last_core_done", s.cycles)
        .set("barriers", s.barriers)
        .set("cluster_utilization", s.cluster_utilization())
        .set("flops", s.aggregate.flops)
        .set("flops_per_cycle", s.flops_per_cycle())
        .set("tcdm_accesses", s.aggregate.tcdm_accesses)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        .set(
            "core_cycles",
            s.per_core.iter().map(|c| c.cycles).collect::<Vec<_>>(),
        )
        .set("core_done_at", s.core_done_at.clone())
        .set("core_conflicts", s.core_conflicts.clone())
        .set("core_accesses", s.core_accesses.clone())
        .set("conflicts_by_bank", s.conflicts_by_bank.clone())
        .set("power_mw", p.energy.power_mw)
        .set("gflops", p.energy.gflops)
        .set("gflops_per_w", p.energy.gflops_per_w)
        .set("dma_pj", p.energy.dma_pj)
        .set(
            "attribution",
            json::attribution_json(&s.attribution, s.per_core.len() as u64, s.cycles),
        );
    if let Some(dma) = &s.dma {
        j = j.set("dma", dma_json(dma));
    }
    j
}

fn main() {
    // nz = 24 gives every hart of the widest sweep point planes to own
    // *and* forces several z-slab tiles under the 128 KiB cap; nx = 16
    // satisfies both unroll factors (8 and 4).
    let grid = Grid3::new(16, 16, 24);
    println!(
        "=== Cluster scaling — box3d1r {}x{}x{}, shared 32-bank TCDM ===",
        grid.nx, grid.ny, grid.nz
    );
    println!("=== unbounded TCDM vs true 128 KiB + DMA double-buffering ===\n");

    let points: Vec<(u32, bool, bool)> = CORES
        .iter()
        .flat_map(|&c| {
            [
                (c, true, false),
                (c, false, false),
                (c, true, true),
                (c, false, true),
            ]
        })
        .collect();
    let (results, timing) = parallel_sweep(points, |(cores, chaining, tiled)| {
        run_point(cores, chaining, tiled, grid)
    });

    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>9} {:>8} {:>11} {:>9} {:>8}  hot banks",
        "cores", "variant", "memory", "cycles", "speedup", "util", "conflicts", "overlap", "power"
    );
    let base_cycles = |chaining: bool, tiled: bool| {
        results
            .iter()
            .find(|p| p.cores == 1 && p.chaining == chaining && p.tiled == tiled)
            .map_or(0, |p| p.summary.cycles)
    };
    for p in &results {
        let speedup = base_cycles(p.chaining, p.tiled) as f64 / p.summary.cycles as f64;
        let overlap = p.summary.dma.as_ref().map_or("-".to_owned(), |d| {
            format!("{:.0}%", d.overlap_fraction() * 100.0)
        });
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>8.2}x {:>7.1}% {:>11} {:>9} {:>6.1}mW  {}",
            p.cores,
            if p.chaining { "Chaining+" } else { "Base" },
            if p.tiled { "128K+DMA" } else { "unbounded" },
            p.summary.cycles,
            speedup,
            p.summary.cluster_utilization() * 100.0,
            p.summary.aggregate.tcdm_conflicts,
            overlap,
            p.energy.power_mw,
            busiest_banks(&p.summary.conflicts_by_bank),
        );
    }

    println!("\nper-core breakdown (cycles | conflicts):");
    for p in &results {
        let cores: Vec<String> = p
            .summary
            .per_core
            .iter()
            .zip(&p.summary.core_conflicts)
            .map(|(c, conflicts)| format!("{}|{}", c.cycles, conflicts))
            .collect();
        println!("  {:<32} {}", p.name, cores.join("  "));
    }

    println!("\n{}", timing.report(results.len()));

    let mut report = Json::obj()
        .set("sweep", "cluster_scaling")
        .set("stencil", "box3d1r")
        .set(
            "grid",
            vec![u64::from(grid.nx), u64::from(grid.ny), u64::from(grid.nz)],
        )
        .set("tcdm_cap_bytes", u64::from(TCDM_CAP_BYTES))
        // Both regimes verified bit-exactly against the same golden
        // model inside their run() paths, so this flag records that the
        // 128 KiB runs are numerically identical to the unbounded ones.
        .set("tiled_matches_unbounded", true)
        .set("wall_seconds", timing.wall.as_secs_f64())
        .set(
            "serial_estimate_seconds",
            timing.serial_estimate.as_secs_f64(),
        )
        .set("host_thread_speedup", timing.speedup());
    // Chaining speedup per config (cores × memory regime) — gated in CI.
    for &cores in &CORES {
        for tiled in [false, true] {
            let cyc = |chaining: bool| {
                results
                    .iter()
                    .find(|p| p.cores == cores && p.chaining == chaining && p.tiled == tiled)
                    .map_or(0, |p| p.summary.cycles)
            };
            let (base, chain) = (cyc(false), cyc(true));
            if base > 0 && chain > 0 {
                let key = format!(
                    "speedup_c{cores}_{}",
                    if tiled { "tiled" } else { "unbounded" }
                );
                report = report.set(&key, base as f64 / chain as f64);
            }
        }
    }
    report = report.set(
        "points",
        Json::Arr(results.iter().map(point_json).collect()),
    );
    match json::write_report("cluster_scaling.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }

    println!();
    println!("Chaining+ scales further than Base: the freed coefficient stream");
    println!("removes one TCDM requester per core, so inter-core bank pressure");
    println!("grows more slowly with the core count. Under the true 128 KiB");
    println!("TCDM the DMA engine double-buffers z-slab tiles; the overlap");
    println!("column shows how much transfer time compute hides.");
}
