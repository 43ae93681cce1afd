//! Host simulation throughput: dense vs event-driven clock advancement.
//!
//! The event scheduler's whole point is *host* wall-clock, not model
//! cycles — by construction the two modes retire identical cycle counts
//! and statistics (pinned by `sched_identity` and the kernel proptests).
//! This bench measures what the skip machinery buys on an **idle-heavy**
//! workload: the weak-scaling tiled stencil point (box3d1r, 16×16×8
//! planes, 4 cores) rebuilt with
//!
//! * **parked completion waits** ([`WaitStyle::Park`] — a waiting hart
//!   retires nothing, so the wait is a skippable window rather than a
//!   busy poll loop), and
//! * a **slow background memory** (32768-cycle transfer latency through a
//!   pass-through L2) — the regime where the DMA engine spends most of
//!   the run counting down latency while every hart sleeps on a barrier
//!   or a parked wait.
//!
//! The dense simulator must step every one of those cycles; the event
//! simulator fast-forwards them. The bench asserts the two runs agree on
//! cycles and flops, demands at least a [`MIN_SPEEDUP`]× wall-clock win
//! for the event run, and records simulated-cycles-per-second for both
//! modes in `BENCH_host_speed.json`.
//!
//! A second, **partially-idle** workload measures the per-component
//! local skip: one hart computes a long FMA loop (its wake pins every
//! cycle, so the *global* fast-forward never fires) while the other
//! harts park on a DMA completion the engine spends the whole run
//! counting down. The old whole-window scheduler could not skip a
//! single cycle of this shape; the local skip bulk-advances the parked
//! harts cycle by cycle while the busy hart steps densely, and the
//! bench holds the measured win above [`MIN_PARTIAL_SPEEDUP`]. The
//! program set runs on one cluster — a 1-cluster `SystemBuilder` system
//! behind a pass-through L2, the one way a cluster runs — which takes
//! the system's scheduling mode.
//!
//! Run with `cargo run --release -p sc-bench --bin host_speed`.

use std::time::Instant;

use sc_bench::{json, Json};
use sc_cluster::ClusterConfig;
use sc_core::{CoreConfig, SchedMode};
use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_kernels::{Grid3, Stencil, StencilKernel, TiledSystemKernel, Variant, WaitStyle};
use sc_mem::{Dram, DramConfig, L2Config, TcdmConfig};
use sc_system::{SystemBuilder, SystemConfig};

const CORES: u32 = 4;
const GRID: (u32, u32, u32) = (16, 16, 8);
/// The TCDM cap that forces a multi-tile pipeline on this grid.
const TCDM_CAP: u32 = 24 << 10;
/// Per-transfer latency the DMA engine pays (the idle windows).
const ENGINE_LATENCY: u32 = 32768;
const MAX_CYCLES: u64 = 500_000_000;

/// The asserted wall-clock floor: the event run must simulate the same
/// cycles at least this many times faster than the dense run.
const MIN_SPEEDUP: f64 = 5.0;

/// Harts in the partially-idle workload: one computes, the rest park.
const PARTIAL_HARTS: u32 = 4;
/// The parked harts' DMA countdown — roughly the whole run.
const PARTIAL_LATENCY: u32 = 150_000;
/// FMA-loop iterations keeping the busy hart computing past the
/// parked harts' release (each iteration retires three instructions).
const PARTIAL_ITERS: i32 = 80_000;

/// The asserted floor for the partially-idle workload. The global
/// fast-forward cannot skip a single cycle here (one hart always
/// demands a dense step), so this win comes entirely from the local
/// per-hart skip; it is bounded by the parked harts' share of dense
/// stepping cost rather than the window length, hence far below
/// [`MIN_SPEEDUP`].
const MIN_PARTIAL_SPEEDUP: f64 = 1.15;

/// Timed runs per mode on a partially-idle point. Each run takes about
/// a tenth of a second, short enough for one preemption on a shared
/// host to decide a single-run ratio, so each mode keeps its fastest
/// run, the modes alternating.
const PARTIAL_RUNS: usize = 5;

fn kernel() -> TiledSystemKernel {
    let (nx, ny, nz) = GRID;
    StencilKernel::new(
        Stencil::box3d1r(),
        Grid3::new(nx, ny, nz),
        Variant::ChainingPlus,
    )
    .expect("valid combination")
    .build_system_tiled_with(1, CORES, TCDM_CAP, WaitStyle::Park)
    .expect("grid tiles within the cap")
}

struct Run {
    cycles: u64,
    flops: u64,
    wall_seconds: f64,
}

impl Run {
    fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds
    }
}

fn run(mode: SchedMode) -> Run {
    let tk = kernel();
    let l2 = L2Config::passthrough(DramConfig::new().with_latency(ENGINE_LATENCY));
    let start = Instant::now();
    let run = tk
        .run_with(CoreConfig::new(), l2, DramConfig::new(), MAX_CYCLES, |b| {
            b.sched_mode(mode)
        })
        .unwrap_or_else(|e| panic!("{}: {e}", tk.name()));
    let wall_seconds = start.elapsed().as_secs_f64();
    Run {
        cycles: run.summary.cycles,
        flops: run.summary.aggregate.flops,
        wall_seconds,
    }
}

/// The busy hart: a long serial FMA loop whose wake demands a dense
/// step every single cycle of the run.
fn busy_program() -> Program {
    let mut b = ProgramBuilder::new();
    let t1 = IntReg::new(5);
    b.li(t1, PARTIAL_ITERS);
    b.label("busy");
    b.fadd_d(FpReg::new(1), FpReg::new(1), FpReg::new(2));
    b.addi(t1, t1, -1);
    b.blt(IntReg::ZERO, t1, "busy");
    b.ecall();
    b.build().expect("busy loop assembles")
}

/// A parked hart: hart 0 of the parked group enqueues one store-out
/// transfer the engine pays [`PARTIAL_LATENCY`] cycles for; every
/// parked hart then blocks on its completion and retires nothing.
fn parked_program(enqueue: bool) -> Program {
    let mut b = ProgramBuilder::new();
    let t5 = IntReg::new(5);
    let t6 = IntReg::new(6);
    if enqueue {
        for (addr, value) in [
            (csr::DMA_SRC, 0x0),
            (csr::DMA_DST, 0x400),
            (csr::DMA_LEN, 64),
            (csr::DMA_SRC_STRIDE, 0),
            (csr::DMA_DST_STRIDE, 0),
            (csr::DMA_REPS, 1),
        ] {
            b.li(t5, value);
            b.csrrw(IntReg::ZERO, addr, t5);
        }
        b.csrrwi(IntReg::ZERO, csr::DMA_START, 0); // TCDM -> DRAM
    }
    b.li(t6, 1);
    b.csrrw(IntReg::ZERO, csr::DMA_WAIT, t6);
    b.ecall();
    b.build().expect("parked program assembles")
}

fn run_partial(mode: SchedMode) -> Run {
    let programs: Vec<Program> = (0..PARTIAL_HARTS)
        .map(|h| {
            if h == 0 {
                busy_program()
            } else {
                parked_program(h == 1)
            }
        })
        .collect();
    let cfg = CoreConfig::new().with_tcdm(TcdmConfig::new().with_size(64 << 10).with_banks(8));
    let system_cfg = SystemConfig::new(1, PARTIAL_HARTS)
        .with_cluster(ClusterConfig::new(PARTIAL_HARTS).with_core(cfg))
        .with_l2(L2Config::passthrough(
            DramConfig::new().with_latency(PARTIAL_LATENCY),
        ));
    let mut system = SystemBuilder::new(system_cfg, vec![vec![programs]])
        .dram(Dram::new(DramConfig::new()))
        .sched_mode(mode)
        .build();
    for i in 0..8 {
        system
            .cluster_mut(0)
            .tcdm_mut()
            .write_f64(0x400 + i * 8, f64::from(i))
            .expect("seed the staged bytes");
    }
    let start = Instant::now();
    let summary = system.run(MAX_CYCLES).expect("partial workload completes");
    Run {
        cycles: summary.cycles,
        flops: summary.aggregate.flops,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}

/// Times the partially-idle program set densely and event-driven,
/// checks the two runs agree, prints both rows and returns
/// (dense, event, speedup).
fn partial_point() -> (Run, Run, f64) {
    println!(
        "\n=== partially idle — {PARTIAL_HARTS} harts, 1 computing, \
         {} parked on a {PARTIAL_LATENCY}-cycle DMA countdown ===",
        PARTIAL_HARTS - 1
    );
    println!("=== the global fast-forward never fires: every win is the local per-hart skip ===\n");
    let _ = run_partial(SchedMode::Dense);
    let mut dense = run_partial(SchedMode::Dense);
    let mut event = run_partial(SchedMode::Event);
    for _ in 1..PARTIAL_RUNS {
        for (best, mode) in [
            (&mut dense, SchedMode::Dense),
            (&mut event, SchedMode::Event),
        ] {
            let run = run_partial(mode);
            assert_eq!(run.cycles, best.cycles, "runs must retire identical cycles");
            if run.wall_seconds < best.wall_seconds {
                *best = run;
            }
        }
    }
    assert_eq!(
        dense.cycles, event.cycles,
        "event mode must retire the identical cycle count"
    );
    assert_eq!(
        dense.flops, event.flops,
        "event mode must perform the identical work"
    );
    let speedup = dense.wall_seconds / event.wall_seconds;
    println!(
        "{:>8} {:>12} {:>12} {:>16}",
        "mode", "cycles", "wall", "sim cycles/s"
    );
    for (mode, r) in [("dense", &dense), ("event", &event)] {
        println!(
            "{:>8} {:>12} {:>11.4}s {:>16.0}",
            mode,
            r.cycles,
            r.wall_seconds,
            r.cycles_per_second()
        );
    }
    println!("\npartially-idle event-mode host speedup: {speedup:.2}x");
    assert!(
        speedup >= MIN_PARTIAL_SPEEDUP,
        "local-skip speedup {speedup:.2}x below the {MIN_PARTIAL_SPEEDUP}x floor"
    );
    (dense, event, speedup)
}

fn main() {
    let (nx, ny, nz) = GRID;
    println!("=== host speed — box3d1r {nx}x{ny}x{nz}, {CORES} cores, parked DMA waits ===");
    println!(
        "=== {ENGINE_LATENCY}-cycle transfer latency: the idle-heavy regime the event \
         scheduler targets ===\n"
    );

    // Warm-up run so neither timed run pays first-touch costs.
    let _ = run(SchedMode::Dense);
    let dense = run(SchedMode::Dense);
    let event = run(SchedMode::Event);

    assert_eq!(
        dense.cycles, event.cycles,
        "event mode must retire the identical cycle count"
    );
    assert_eq!(
        dense.flops, event.flops,
        "event mode must perform the identical work"
    );

    let speedup = dense.wall_seconds / event.wall_seconds;
    println!(
        "{:>8} {:>12} {:>12} {:>16}",
        "mode", "cycles", "wall", "sim cycles/s"
    );
    for (label, r) in [("dense", &dense), ("event", &event)] {
        println!(
            "{:>8} {:>12} {:>11.4}s {:>16.0}",
            label,
            r.cycles,
            r.wall_seconds,
            r.cycles_per_second()
        );
    }
    println!("\nevent-mode host speedup: {speedup:.1}x");
    assert!(
        speedup >= MIN_SPEEDUP,
        "event scheduler speedup {speedup:.2}x below the {MIN_SPEEDUP}x floor"
    );

    let (partial_dense, partial_event, partial_speedup) = partial_point();

    let report = Json::obj()
        .set("bench", "host_speed")
        .set("stencil", "box3d1r")
        .set("cores", CORES)
        .set("engine_latency", ENGINE_LATENCY)
        .set("wait_style", "park")
        .set("cycles", dense.cycles)
        .set("dense_wall_seconds", dense.wall_seconds)
        .set("event_wall_seconds", event.wall_seconds)
        .set("dense_cycles_per_second", dense.cycles_per_second())
        .set("event_cycles_per_second", event.cycles_per_second())
        .set("event_speedup", speedup)
        .set("min_speedup_floor", MIN_SPEEDUP)
        .set("partial_harts", PARTIAL_HARTS)
        .set("partial_engine_latency", PARTIAL_LATENCY)
        .set("partial_cycles", partial_dense.cycles)
        .set("partial_dense_wall_seconds", partial_dense.wall_seconds)
        .set("partial_event_wall_seconds", partial_event.wall_seconds)
        .set("partial_event_speedup", partial_speedup)
        .set("min_partial_speedup_floor", MIN_PARTIAL_SPEEDUP);
    match json::write_report("BENCH_host_speed.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }
}
