//! Static verification sweep: `sc-lint` over **every program the
//! baseline sweeps generate**, plus the seeded-bug fixtures.
//!
//! Two contracts, both hard CI gates:
//!
//! * **Zero false positives** — every config point of the five
//!   baselined sweeps (`cluster_scaling`, `system_scaling`,
//!   `l2_ablation`, `weak_scaling`, `prefetch_ablation`) is rebuilt
//!   (codegen only, no simulation) and every generated program — tile
//!   stages and epilogues included — must lint clean under the
//!   default hardware model (capacity-4 chained FIFO, 128 KiB TCDM).
//! * **Zero false negatives** — every seeded-bug fixture in
//!   [`sc_lint::fixtures`] must trip its rule, and *only* its rule.
//!
//! Any violation panics with the offending point or fixture id.
//! Machine-readable results land in `target/reports/lint_sweep.json`.
//!
//! Run with `cargo run --release -p sc-bench --bin lint_sweep`.

use sc_bench::{json, parallel_sweep, Json};
use sc_isa::Program;
use sc_kernels::{Grid3, Stencil, StencilKernel, Variant, TCDM_CAP_BYTES};
use sc_lint::{lint_harts, LintConfig};

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

/// One sweep point: a display id plus the program sets its kernel
/// build emits (one set per cluster stage; unbounded kernels have one
/// stage per cluster).
struct Case {
    id: String,
    build: Box<dyn Fn() -> Vec<Vec<Program>> + Send + Sync>,
}

impl Case {
    fn new(id: String, build: impl Fn() -> Vec<Vec<Program>> + Send + Sync + 'static) -> Self {
        Case {
            id,
            build: Box::new(build),
        }
    }
}

/// The two kernel shapes the sweeps build (a cluster is the 1-cluster
/// point), reduced to lintable program sets.
fn system_unbounded(grid: Grid3, chaining: bool, clusters: u32, cores: u32) -> Vec<Vec<Program>> {
    gen(grid, chaining)
        .build_system(clusters, cores)
        .programs()
        .to_vec()
}

fn system_tiled(grid: Grid3, chaining: bool, clusters: u32, cores: u32) -> Vec<Vec<Program>> {
    gen(grid, chaining)
        .build_system_tiled(clusters, cores, TCDM_CAP_BYTES)
        .expect("slabs tile within the TCDM cap")
        .stages()
        .iter()
        .flat_map(|cluster| cluster.iter().cloned())
        .collect()
}

/// `cluster_scaling`: box3d1r 16x16x24, 1/2/4/8 cores, chaining on/off,
/// unbounded and tiled.
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
                cases.push(Case::new(id, move || {
                    if tiled {
                        system_tiled(grid, chaining, 1, cores)
                    } else {
                        system_unbounded(grid, chaining, 1, cores)
                    }
                }));
            }
        }
    }
}

/// `system_scaling`: box3d1r 16x16x24, 1/2/4 clusters x 1/4/8 cores,
/// chaining on/off, unbounded and tiled.
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
                    cases.push(Case::new(id, move || {
                        if tiled {
                            system_tiled(grid, chaining, clusters, cores)
                        } else {
                            system_unbounded(grid, chaining, clusters, cores)
                        }
                    }));
                }
            }
        }
    }
}

/// `l2_ablation`: the L2 knobs don't change codegen, but the sweep's
/// 16 points are the baselined set — each is relinted as built.
fn l2_ablation_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(16, 16, 16);
    for fit in ["over", "under"] {
        for ways in [2u32, 8] {
            for channels in [1u32, 4] {
                for chaining in [true, false] {
                    let id = format!(
                        "l2_ablation/{fit}/w{ways}/ch{channels}/{}",
                        if chaining { "chaining" } else { "base" }
                    );
                    cases.push(Case::new(id, move || system_tiled(grid, chaining, 2, 2)));
                }
            }
        }
    }
}

/// `weak_scaling`: the grid grows with the cluster count (16x16x8m on
/// 4 cores), chaining on/off, unbounded and tiled (1/4 refill channels).
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
                cases.push(Case::new(id, move || match channels {
                    None => system_unbounded(grid, chaining, clusters, 4),
                    Some(_) => system_tiled(grid, chaining, clusters, 4),
                }));
            }
        }
    }
}

/// `prefetch_ablation`: box3d1r 24x24x24, 1/2 clusters x 4 cores —
/// prefetch/L2 knobs don't change codegen, the 80 points do.
fn prefetch_ablation_cases(cases: &mut Vec<Case>) {
    let grid = Grid3::new(24, 24, 24);
    for clusters in [1u32, 2] {
        for fit in ["over", "under"] {
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
                        cases.push(Case::new(id, move || {
                            system_tiled(grid, chaining, clusters, 4)
                        }));
                    }
                }
            }
        }
    }
}

/// One point's verdict after linting every program set it builds.
struct Verdict {
    id: String,
    program_sets: usize,
    diagnostics: usize,
}

fn main() {
    let mut cases: Vec<Case> = Vec::new();
    cluster_scaling_cases(&mut cases);
    system_scaling_cases(&mut cases);
    l2_ablation_cases(&mut cases);
    weak_scaling_cases(&mut cases);
    prefetch_ablation_cases(&mut cases);

    println!("=== static verification — sc-lint over every baseline sweep kernel ===");
    println!(
        "=== {} config points + seeded-bug fixtures ===\n",
        cases.len()
    );

    let total = cases.len();
    let lint_cfg = LintConfig::new();
    let (verdicts, timing) = parallel_sweep(cases, |case| {
        let sets = (case.build)();
        let mut diagnostics = 0;
        for (s, harts) in sets.iter().enumerate() {
            let report = lint_harts(harts, &lint_cfg);
            assert!(
                report.is_clean(),
                "{} stage {s}: shipped kernel is not lint-clean:\n{report}",
                case.id
            );
            diagnostics += report.len();
        }
        Verdict {
            id: case.id,
            program_sets: sets.len(),
            diagnostics,
        }
    });
    assert_eq!(verdicts.len(), total);

    let mut by_sweep: Vec<(&str, usize)> = Vec::new();
    let mut sets_linted = 0usize;
    for v in &verdicts {
        sets_linted += v.program_sets;
        let sweep = v.id.split('/').next().unwrap_or("?");
        match by_sweep.iter_mut().find(|(s, _)| *s == sweep) {
            Some((_, n)) => *n += 1,
            None => by_sweep.push((sweep, 1)),
        }
    }
    for (sweep, n) in &by_sweep {
        println!("{sweep:>20}: {n} points clean");
    }
    println!("\nall {total} baseline points clean ({sets_linted} program sets)");

    // Zero false negatives: every seeded bug trips exactly its rule.
    let fixtures = sc_lint::fixtures::expectations();
    let n_fixtures = fixtures.len();
    for (name, rule_id, programs) in &fixtures {
        let report = lint_harts(programs, &lint_cfg);
        assert!(
            !report.is_clean(),
            "fixture {name}: seeded bug was not detected"
        );
        for d in report.iter() {
            assert_eq!(
                d.rule.id(),
                *rule_id,
                "fixture {name}: tripped {} instead of {rule_id}: {d}",
                d.rule
            );
        }
        println!("fixture {name:>24}: flagged as {rule_id}");
    }
    println!("\nall {n_fixtures} seeded-bug fixtures flagged with their rule");
    println!("{}", timing.report(total));

    let report = Json::obj()
        .set("sweep", "lint_sweep")
        .set("points", total as u64)
        .set("program_sets", sets_linted as u64)
        .set("all_clean", true)
        .set("fixtures", n_fixtures as u64)
        .set("all_fixtures_flagged", true)
        .set("wall_seconds", timing.wall.as_secs_f64())
        .set(
            "points_by_id",
            Json::Arr(
                verdicts
                    .iter()
                    .map(|v| {
                        Json::obj()
                            .set("id", v.id.as_str())
                            .set("program_sets", v.program_sets as u64)
                            .set("diagnostics", v.diagnostics as u64)
                    })
                    .collect(),
            ),
        );
    match json::write_report("lint_sweep.json", &report) {
        Ok(path) => println!("json report: {}", path.display()),
        Err(e) => eprintln!("could not write json report: {e}"),
    }
}
