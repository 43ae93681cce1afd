//! L2 cache ablation: capacity × associativity × refill channels ×
//! chaining, on the tiled multi-cluster stencil.
//!
//! The tiled planner's working-set report sizes the sweep: an
//! **over-fit** L2 (2× the plan's distinct Dram footprint) holds the
//! whole problem after the compulsory misses, while an **under-fit** one
//! (a quarter of the footprint) forces capacity evictions — and, with
//! write-back on, dirty-line write-back traffic that contends with
//! refills for the L2↔Dram channels. Sweeping the channel count then
//! shows how much of the capacity-miss penalty parallel refill can buy
//! back, with chaining on and off on the compute side.
//!
//! The validator asserts the cross-module accounting invariants (every
//! granted beat classified by the cache core) and the capacity story
//! (under-fit ⇒ non-zero evictions *and* write-back beats; over-fit at
//! full associativity ⇒ none). Machine-readable results land in
//! `target/reports/l2_ablation.json`, gated in CI against
//! `baselines/l2_ablation.json` — including the flat per-point
//! `l2_evictions` / `l2_writeback_beats` traffic counts.
//!
//! Run with `cargo run --release -p sc-bench --bin l2_ablation`.
//! Pass `--trace <path>` to additionally re-run the most contended
//! point — under-fit, single refill channel, chaining — with a trace
//! subscription and write its Perfetto timeline JSON to `<path>`.

use sc_bench::{json, parallel_sweep, Json};
use sc_core::CoreConfig;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, WorkingSet, TCDM_CAP_BYTES};
use sc_mem::{DramConfig, L2Config};
use sc_system::SystemSummary;
use sc_trace::{TraceConfig, TraceSession};

const CLUSTERS: u32 = 2;
const CORES: u32 = 2;
const WAYS: [u32; 2] = [2, 8];
const CHANNELS: [u32; 2] = [1, 4];
const MSHRS: u32 = 8;
const MAX_CYCLES: u64 = 500_000_000;

/// Capacities must divide into whole sets for every swept associativity.
const CAP_GRANULE: u32 = 256 * 8;

struct Point {
    capacity: u32,
    ways: u32,
    channels: u32,
    chaining: bool,
    overfit: bool,
    summary: SystemSummary,
}

impl Point {
    fn id(&self) -> String {
        format!(
            "cap{}K/w{}/ch{}/{}",
            self.capacity >> 10,
            self.ways,
            self.channels,
            if self.chaining { "chaining" } else { "base" }
        )
    }
}

fn l2_config(capacity: u32, ways: u32, channels: u32) -> L2Config {
    L2Config::new()
        .with_capacity_bytes(capacity)
        .with_ways(ways)
        .with_refill_channels(channels)
        .with_mshrs(MSHRS)
        .with_write_back(true)
        .with_refill_latency(64)
        .with_refill_cycles_per_beat(1)
        .with_bank_width(8)
}

fn run_point(
    grid: Grid3,
    capacity: u32,
    ways: u32,
    channels: u32,
    chaining: bool,
    overfit: bool,
) -> Point {
    let variant = if chaining {
        Variant::ChainingPlus
    } else {
        Variant::Base
    };
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, variant).expect("valid combination");
    let tk = gen
        .build_system_tiled(CLUSTERS, CORES, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB");
    let run = tk
        .run(
            CoreConfig::new().with_chaining(chaining),
            l2_config(capacity, ways, channels),
            DramConfig::new(),
            MAX_CYCLES,
        )
        .unwrap_or_else(|e| panic!("{}: {e}", tk.name()));
    Point {
        capacity,
        ways,
        channels,
        chaining,
        overfit,
        summary: run.summary,
    }
}

fn point_json(p: &Point) -> Json {
    let s = &p.summary;
    let l2 = s.l2.as_ref().expect("shared memory attached");
    Json::obj()
        .set("id", p.id())
        .set("capacity_bytes", p.capacity)
        .set("ways", p.ways)
        .set("channels", p.channels)
        .set("chaining", p.chaining)
        .set("overfit", p.overfit)
        .set("cycles_to_last_core_done", s.cycles)
        .set("tcdm_conflicts", s.aggregate.tcdm_conflicts)
        // Flat traffic counts (pinned by the perf gate's point metrics).
        .set("l2_evictions", l2.cache.evictions)
        .set("l2_writeback_beats", s.l2_writeback_beats)
        .set(
            "l2",
            json::l2_stats_json(
                l2,
                s.l2_refill_beats,
                s.l2_writeback_beats,
                s.l2_prefetch_beats,
            ),
        )
        .set(
            "l2_occupancy",
            json::refill_occupancy_json(&s.refill_occupancy()),
        )
        .set(
            "attribution",
            json::attribution_json(&s.attribution, total_harts(s), s.cycles),
        )
}

/// Harts the system-level attribution aggregates over.
fn total_harts(s: &SystemSummary) -> u64 {
    s.per_cluster.iter().map(|c| c.per_core.len() as u64).sum()
}

/// Accounting and capacity-story invariants — a violation is a model
/// bug, not a perf regression.
fn validate(points: &[Point]) {
    for p in points {
        let l2 = p.summary.l2.as_ref().expect("shared memory attached");
        let c = &l2.cache;
        assert_eq!(
            c.read_hits + c.read_misses + c.write_beats,
            l2.accesses,
            "{}: every granted beat must be classified by the cache core",
            p.id()
        );
        assert!(
            c.refills <= c.mshr_allocations,
            "{}: refills outnumber MSHR allocations",
            p.id()
        );
        assert!(
            c.mshr_peak <= u64::from(MSHRS),
            "{}: MSHR file overflowed its configured size",
            p.id()
        );
        if p.overfit && p.ways == WAYS[1] {
            assert_eq!(
                c.evictions,
                0,
                "{}: an over-fit associative L2 must hold the working set",
                p.id()
            );
        }
        if !p.overfit {
            assert!(
                c.evictions > 0 && p.summary.l2_writeback_beats > 0,
                "{}: an under-fit write-back L2 must evict dirty lines \
                 (evictions {}, writeback beats {})",
                p.id(),
                c.evictions,
                p.summary.l2_writeback_beats
            );
        }
    }
    // Capacity pressure costs cycles: under-fit never beats over-fit at
    // the same ways/channels/variant point.
    for under in points.iter().filter(|p| !p.overfit) {
        let over = points
            .iter()
            .find(|p| {
                p.overfit
                    && p.ways == under.ways
                    && p.channels == under.channels
                    && p.chaining == under.chaining
            })
            .expect("matched over-fit point");
        assert!(
            under.summary.cycles >= over.summary.cycles,
            "{}: capacity misses cannot make the run faster ({} vs {})",
            under.id(),
            under.summary.cycles,
            over.summary.cycles
        );
    }
}

/// Parses `--trace <path>` from the command line, if present.
fn trace_path() -> Option<std::path::PathBuf> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--trace" => Some(path.into()),
        [flag] if flag == "--trace" => {
            eprintln!("--trace needs a path argument");
            std::process::exit(2);
        }
        other => {
            eprintln!("unknown arguments {other:?} (only --trace <path> is accepted)");
            std::process::exit(2);
        }
    }
}

/// Re-runs the most contended under-fit point with a trace subscription
/// and writes the Perfetto timeline to `path`. The traced run must be
/// results-identical to the sweep's own run of the same point.
fn write_trace(grid: Grid3, capacity: u32, sweep_cycles: u64, path: &std::path::Path) {
    let gen = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("valid combination");
    let tk = gen
        .build_system_tiled(CLUSTERS, CORES, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB");
    let session = TraceSession::new(TraceConfig::new().with_sample_every(1024));
    let run = tk
        .run_with(
            CoreConfig::new().with_chaining(true),
            l2_config(capacity, WAYS[1], CHANNELS[0]),
            DramConfig::new(),
            MAX_CYCLES,
            |b| b.tracer(session.tracer()),
        )
        .unwrap_or_else(|e| panic!("traced point: {e}"));
    assert_eq!(
        run.summary.cycles, sweep_cycles,
        "the traced re-run must be cycle-identical to the sweep's run"
    );
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).expect("create trace directory");
    }
    std::fs::write(path, session.perfetto_json()).expect("write trace");
    println!(
        "perfetto trace ({} events): {}",
        session.events_buffered(),
        path.display()
    );
}

fn main() {
    let trace = trace_path();
    let grid = Grid3::new(16, 16, 16);
    // Plan once to size the sweep off the working-set report.
    let ws: WorkingSet = StencilKernel::new(Stencil::box3d1r(), grid, Variant::ChainingPlus)
        .expect("valid combination")
        .build_system_tiled(CLUSTERS, CORES, TCDM_CAP_BYTES)
        .expect("slabs tile within 128 KiB")
        .working_set()
        .clone();
    let footprint = ws.footprint_bytes();
    let over = ws.overfit_capacity(CAP_GRANULE);
    let under = ws.underfit_capacity(CAP_GRANULE);
    println!(
        "=== L2 ablation — box3d1r {}x{}x{}, m{CLUSTERS}x{CORES} tiled ===",
        grid.nx, grid.ny, grid.nz
    );
    println!(
        "=== working set: {} B footprint ({} lines of 256 B), {} B traffic ===",
        footprint,
        ws.l2_lines(256),
        ws.traffic_bytes()
    );
    println!(
        "=== capacities: over-fit {over} B, under-fit {under} B x ways {WAYS:?} x channels {CHANNELS:?} ===\n",
    );

    let configs: Vec<(u32, u32, u32, bool, bool)> = [(over, true), (under, false)]
        .iter()
        .flat_map(|&(cap, overfit)| {
            WAYS.iter().flat_map(move |&w| {
                CHANNELS.iter().flat_map(move |&ch| {
                    [true, false].map(|chaining| (cap, w, ch, chaining, overfit))
                })
            })
        })
        .collect();
    let (results, timing) = parallel_sweep(configs, |(cap, w, ch, chaining, overfit)| {
        run_point(grid, cap, w, ch, chaining, overfit)
    });
    validate(&results);

    println!(
        "{:>14} {:>5} {:>4} {:>10} {:>10} {:>8} {:>9} {:>10} {:>9} {:>9}",
        "config",
        "ways",
        "ch",
        "variant",
        "cycles",
        "hits",
        "misses",
        "evictions",
        "wb-beats",
        "merges"
    );
    for p in &results {
        let l2 = p.summary.l2.as_ref().unwrap();
        println!(
            "{:>14} {:>5} {:>4} {:>10} {:>10} {:>8} {:>9} {:>10} {:>9} {:>9}",
            format!(
                "{}K {}",
                p.capacity >> 10,
                if p.overfit { "(over)" } else { "(under)" }
            ),
            p.ways,
            p.channels,
            if p.chaining { "Chaining+" } else { "Base" },
            p.summary.cycles,
            l2.cache.read_hits,
            l2.cache.read_misses,
            l2.cache.evictions,
            p.summary.l2_writeback_beats,
            l2.cache.mshr_merges,
        );
    }
    println!("\n{}", timing.report(results.len()));

    let mut report = Json::obj()
        .set("sweep", "l2_ablation")
        .set("stencil", "box3d1r")
        .set(
            "grid",
            vec![u64::from(grid.nx), u64::from(grid.ny), u64::from(grid.nz)],
        )
        .set("clusters", CLUSTERS)
        .set("cores", CORES)
        .set("working_set_footprint_bytes", footprint)
        .set("working_set_traffic_bytes", ws.traffic_bytes())
        .set("working_set_l2_lines", ws.l2_lines(256))
        .set("capacity_overfit_bytes", over)
        .set("capacity_underfit_bytes", under)
        .set("wall_seconds", timing.wall.as_secs_f64());
    // How much of the capacity-miss penalty parallel refill buys back on
    // the under-fit points (gated as speedup_* ratios).
    for chaining in [true, false] {
        let cyc = |channels: u32| {
            results
                .iter()
                .find(|p| {
                    !p.overfit
                        && p.ways == WAYS[1]
                        && p.channels == channels
                        && p.chaining == chaining
                })
                .map(|p| p.summary.cycles)
        };
        if let (Some(one), Some(four)) = (cyc(CHANNELS[0]), cyc(CHANNELS[1])) {
            let key = format!(
                "speedup_ch{}_underfit_{}",
                CHANNELS[1],
                if chaining { "chaining" } else { "base" }
            );
            report = report.set(&key, one as f64 / four as f64);
        }
    }
    report = report.set(
        "points",
        Json::Arr(results.iter().map(point_json).collect()),
    );
    match json::write_report("l2_ablation.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }

    if let Some(path) = trace {
        let sweep_cycles = results
            .iter()
            .find(|p| !p.overfit && p.ways == WAYS[1] && p.channels == CHANNELS[0] && p.chaining)
            .expect("swept point present")
            .summary
            .cycles;
        write_trace(grid, under, sweep_cycles, &path);
    }

    println!();
    println!("An L2 smaller than the tiled working set turns the halo revisits");
    println!("into capacity misses and dirty write-backs; extra refill channels");
    println!("recover part of that penalty, which is exactly the regime where");
    println!("chaining's freed memory ports matter most.");
}
