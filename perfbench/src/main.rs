//! Host-throughput benchmark of the scalar-chaining simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig3_core|system_tiled_l2|idle_parked> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process, one thread. Each run discards a warm-up pass, then
//! repeats verified passes of the workload for `--seconds` seconds; pass
//! `k` simulates the input grid drawn from `(seed, k)`. With `--trace 0`
//! the last stdout line carries the end-to-end metrics (medians over the
//! passes); with `--trace 1` untraced passes alternate with traced ones
//! that drive each layer's public phase calls and time them, and the
//! last line carries the per-layer metrics. See `perfbench/README.md`.

mod fig3;
mod tiled;

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use scalar_chaining::perf::Leaf;

/// Measured passes a run makes even when `--seconds` runs out first, so
/// every median has samples on either side.
const MIN_PASSES: usize = 5;

/// Simulated cycle budget of every run (far above any workload's need;
/// hitting it is a failure).
pub const MAX_CYCLES: u64 = 500_000_000;

/// Host seconds one set-up took, split by the layer doing the work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    /// `StencilKernel` construction and program generation.
    pub codegen: f64,
    /// Building the simulator (for clusters, including the `sc-lint`
    /// pass in `Cluster::new`).
    pub build: f64,
    /// Drawing the seeded input grid and writing it with the
    /// coefficients at the kernel's layout addresses.
    pub data: f64,
}

impl Setup {
    fn total(&self) -> f64 {
        self.codegen + self.build + self.data
    }
}

/// What one untraced, verified pass measured and simulated.
pub struct Pass {
    /// Host set-up time.
    pub setup: Setup,
    /// Host seconds inside the simulator's run loop, per slice of
    /// simulated time (see [`run_sliced`]).
    pub sim_s: Vec<f64>,
    /// Simulated system cycles (summed over the suite for `fig3_core`).
    pub cycles: u64,
    /// Instructions retired by all harts: `int_retired + fp_issued`.
    pub insts: u64,
    /// FP issue cycles over harts × system cycles.
    pub fpu_util: f64,
    /// Simulated metrics in report order (name, unit, value). Timing
    /// does not depend on the data, so every pass must repeat them to
    /// the last bit.
    pub simulated: Metrics,
    /// Everything the pass simulated, rendered exactly: cycles, the
    /// per-core or per-cluster summaries and the L2 statistics. Traced
    /// passes must reproduce it.
    pub signature: String,
}

/// A host-time bucket of the traced runs: the layer whose public phase
/// calls the time was spent in.
#[derive(Debug, Clone, Copy)]
pub enum Bucket {
    /// `Core::begin_cycle`: FP writeback, FP issue, integer execute.
    CoreIssue,
    /// `Core::mem_requests`: SSR and load/store port requests.
    SsrRequest,
    /// `Tcdm::arbitrate`.
    TcdmArbitrate,
    /// `Core::apply_grants`.
    CoreGrant,
    /// `Core::end_cycle`: FPU pipelines and stream movers advance.
    FpuAdvance,
    /// `Cluster::begin_cycle` and its prefetch hints.
    ClusterBegin,
    /// `L2::prefetch_hint`, `begin_cycle`, `arbitrate` and `end_cycle`.
    CacheL2,
    /// `Cluster::end_cycle` (TCDM crossbar, grants, DMA beat, barriers)
    /// and the one-cycle advance of locally quiet clusters.
    ClusterEnd,
    /// Stage reload and the inter-cluster barrier census.
    SystemSync,
    /// Wake queries, `Scheduler::plan` and the local-quiet test.
    SchedWake,
    /// Skipped windows: `Cluster::skip_quiet` and `L2::skip`.
    SchedSkip,
}

impl Bucket {
    /// Every bucket, in report order.
    pub const ALL: [Bucket; 11] = [
        Bucket::CoreIssue,
        Bucket::SsrRequest,
        Bucket::TcdmArbitrate,
        Bucket::CoreGrant,
        Bucket::FpuAdvance,
        Bucket::ClusterBegin,
        Bucket::CacheL2,
        Bucket::ClusterEnd,
        Bucket::SystemSync,
        Bucket::SchedWake,
        Bucket::SchedSkip,
    ];

    /// The per-layer metric the bucket is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Bucket::CoreIssue => "core.issue_ns",
            Bucket::SsrRequest => "ssr.request_ns",
            Bucket::TcdmArbitrate => "mem.tcdm_arbitrate_ns",
            Bucket::CoreGrant => "core.grant_ns",
            Bucket::FpuAdvance => "fpu.advance_ns",
            Bucket::ClusterBegin => "cluster.begin_ns",
            Bucket::CacheL2 => "cache.l2_ns",
            Bucket::ClusterEnd => "cluster.end_ns",
            Bucket::SystemSync => "system.sync_ns",
            Bucket::SchedWake => "sched.wake_ns",
            Bucket::SchedSkip => "sched.skip_ns",
        }
    }
}

/// Host nanoseconds a traced pass spent in each layer's phase calls.
#[derive(Debug, Default)]
pub struct Profile {
    /// Nanoseconds per bucket, indexed by `Bucket as usize`.
    pub buckets: [u64; Bucket::ALL.len()],
    /// Nanoseconds of the whole traced run loop; the buckets are
    /// disjoint sub-intervals of it, and the rest is "other".
    pub wall_ns: u64,
    /// Simulated system cycles.
    pub cycles: u64,
    /// Cycles stepped one at a time (the rest were skipped in windows).
    pub dense_cycles: u64,
    /// Windows the scheduler skipped.
    pub windows: u64,
    /// Same rendering as [`Pass::signature`].
    pub signature: String,
}

impl Profile {
    /// Charges the time since `*mark` to `bucket` and moves the mark.
    pub fn charge(&mut self, bucket: Bucket, mark: &mut Instant) {
        let now = Instant::now();
        self.buckets[bucket as usize] += nanos(now - *mark);
        *mark = now;
    }

    fn add(&mut self, other: Profile) {
        for (sum, ns) in self.buckets.iter_mut().zip(other.buckets) {
            *sum += ns;
        }
        self.wall_ns += other.wall_ns;
        self.cycles += other.cycles;
        self.dense_cycles += other.dense_cycles;
        self.windows += other.windows;
    }
}

/// Runs a simulation to completion in slices of `slice` simulated
/// cycles, pushing the host seconds of each slice onto `sim_s`. `run`
/// takes a cycle budget: the simulators' `run` methods stop at their
/// budget with a budget error (`is_budget`) and resume exactly where
/// they stopped. Timing in slices lets a short undisturbed moment of the
/// host count for the slice it covered (see the best times in
/// `end_to_end`).
///
/// # Errors
///
/// Any other simulation error, or no finish within [`MAX_CYCLES`].
pub fn run_sliced<T, E: std::fmt::Display>(
    slice: u64,
    sim_s: &mut Vec<f64>,
    mut run: impl FnMut(u64) -> Result<T, E>,
    is_budget: impl Fn(&E) -> bool,
) -> Result<T, String> {
    let mut budget = 0;
    loop {
        budget = (budget + slice).min(MAX_CYCLES);
        let t = Instant::now();
        let outcome = run(budget);
        sim_s.push(t.elapsed().as_secs_f64());
        match outcome {
            Ok(done) => return Ok(done),
            Err(e) if is_budget(&e) && budget < MAX_CYCLES => {}
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Whole nanoseconds of a host interval.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("a host interval fits in u64 nanoseconds")
}

/// A workload the benchmark can run.
pub trait Workload {
    /// The fixed parameters, for the provenance stamp.
    fn params(&self) -> String;
    /// How the simulator advances its clock on this workload.
    fn sched_mode(&self) -> &'static str;
    /// Sets up, simulates and checks one pass on the inputs of `seed`.
    ///
    /// # Errors
    ///
    /// Any simulation error or output mismatch, as a message.
    fn pass(&self, seed: u64) -> Result<Pass, String>;
    /// The same pass with every layer's phase calls driven from here and
    /// timed.
    ///
    /// # Errors
    ///
    /// As [`Workload::pass`].
    fn traced(&self, seed: u64) -> Result<Profile, String>;
    /// Checks the simulated metrics against the values the repository's
    /// own tools print, returning one line per check.
    ///
    /// # Errors
    ///
    /// The first value that differs.
    fn cross_check(&self, pass: &Pass) -> Result<Vec<String>, String>;
}

/// The buckets that together make up one dense system cycle.
const STEP_BUCKETS: [Bucket; 4] = [
    Bucket::ClusterBegin,
    Bucket::CacheL2,
    Bucket::ClusterEnd,
    Bucket::SystemSync,
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 || seconds > 120 {
        return Err(format!("--seconds {seconds} is outside 1..=120"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn workload(name: &str) -> Option<Box<dyn Workload>> {
    match name {
        "fig3_core" => Some(Box::new(fig3::Fig3Core)),
        "system_tiled_l2" => Some(Box::new(tiled::Tiled::system_tiled_l2())),
        "idle_parked" => Some(Box::new(tiled::Tiled::idle_parked())),
        _ => None,
    }
}

/// The input seed of pass `pass` of a run seeded `seed` (SplitMix64).
fn pass_seed(seed: u64, pass: u64) -> u64 {
    let mut z = seed
        .wrapping_add(pass.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The repository the benchmark was built from: its git revision when
/// the tree is a git checkout, and always an FNV-1a digest of the
/// simulator's sources, which identifies the code in a plain copy too.
fn provenance() -> (String, String) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let git = root.join(".git");
    let revision = std::fs::read_to_string(git.join("HEAD"))
        .ok()
        .and_then(|head| match head.trim().strip_prefix("ref: ") {
            None => Some(head.trim().to_owned()),
            Some(name) => std::fs::read_to_string(git.join(name))
                .ok()
                .map(|r| r.trim().to_owned())
                .or_else(|| {
                    std::fs::read_to_string(git.join("packed-refs"))
                        .ok()?
                        .lines()
                        .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_owned))
                }),
        })
        .unwrap_or_else(|| "none".to_owned());
    let mut files = Vec::new();
    let mut dirs = vec![root.join("crates"), root.join("src")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
    (revision, format!("{hash:016x}"))
}

/// The metrics of one run, in report order (name, unit, value).
pub type Metrics = Vec<(String, &'static str, f64)>;

/// Outcome of the measured passes of one run. Only the first pass is
/// kept whole; later ones are checked against it and reduced to their
/// host timings, so memory does not grow with the pass count.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    first: Option<Pass>,
    /// Set-up host seconds of every untraced pass.
    setups: Vec<Setup>,
    /// Simulation host seconds of every untraced pass.
    pass_s: Vec<f64>,
    /// The fastest host seconds seen for each timed unit of a pass.
    best_s: Vec<f64>,
    traced: u64,
    profile: Profile,
}

impl Tally {
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Every pass must simulate the same thing, whatever its input
    /// values.
    fn record(&mut self, pass: Pass, k: u64) {
        self.setups.push(pass.setup);
        self.pass_s.push(pass.sim_s.iter().sum());
        if self.best_s.is_empty() {
            self.best_s.clone_from(&pass.sim_s);
        }
        for (best, s) in self.best_s.iter_mut().zip(&pass.sim_s) {
            *best = best.min(*s);
        }
        match &self.first {
            None => self.first = Some(pass),
            Some(first) => {
                if pass.signature != first.signature || pass.simulated != first.simulated {
                    self.problems.push(format!(
                        "pass {k} simulated differently from the first on other input values"
                    ));
                }
            }
        }
    }

    /// Every traced pass must reproduce the untraced simulation exactly.
    fn record_traced(&mut self, mut profile: Profile, k: u64) {
        let signature = std::mem::take(&mut profile.signature);
        if self
            .first
            .as_ref()
            .is_some_and(|f| f.signature != signature)
        {
            self.problems.push(format!(
                "traced pass {k} did not reproduce the untraced simulation"
            ));
        }
        self.traced += 1;
        self.profile.add(profile);
    }
}

fn run(args: &Args, wl: &dyn Workload) -> (Tally, Metrics) {
    let mut tally = Tally::default();
    // Warm-up: first-touch allocation and code paths, never reported.
    if let Err(e) = wl.pass(pass_seed(args.seed, u64::MAX)) {
        tally.attempted += 1;
        tally.fail(format!("warm-up pass: {e}"));
    }
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut k = 0u64;
    while start.elapsed() < budget || tally.pass_s.len() < MIN_PASSES {
        let seed = pass_seed(args.seed, k);
        k += 1;
        tally.attempted += 1;
        match wl.pass(seed) {
            Ok(pass) => tally.record(pass, k),
            Err(e) => tally.fail(format!("pass {k}: {e}")),
        }
        if args.trace {
            tally.attempted += 1;
            match wl.traced(seed) {
                Ok(profile) => tally.record_traced(profile, k),
                Err(e) => tally.fail(format!("traced pass {k}: {e}")),
            }
        }
        if tally.failed > 0 && tally.pass_s.is_empty() && k >= MIN_PASSES as u64 {
            break;
        }
    }
    let metrics = match &tally.first {
        None => {
            tally.problems.push("no pass succeeded".to_owned());
            Vec::new()
        }
        Some(first) if args.trace => per_layer(&tally, first),
        Some(first) => end_to_end(&tally, first),
    };
    (tally, metrics)
}

fn end_to_end(tally: &Tally, first: &Pass) -> Metrics {
    // Throughput is taken from the fastest time of each timed unit of
    // the pass, summed: co-tenants on a shared host only ever slow the
    // simulator down (by up to 2x, in regimes lasting seconds), so the
    // best time is the steadiest estimate of what the code itself costs.
    // The median and p90 pass times are printed beside it.
    let best: f64 = tally.best_s.iter().sum();
    let mut pass_s = tally.pass_s.clone();
    let median_s = median(&mut pass_s);
    let p90 = pass_s[(pass_s.len() * 9 / 10).min(pass_s.len() - 1)];
    println!(
        "simulation host time per pass over {} passes: best {best:.6} s, median {median_s:.6} s, \
         p90 {p90:.6} s",
        pass_s.len()
    );
    let mut setups: Vec<f64> = tally.setups.iter().map(Setup::total).collect();
    vec![
        (
            "sim_cycles_per_s".into(),
            "cycles/s",
            first.cycles as f64 / best,
        ),
        (
            "sim_insts_per_s".into(),
            "insts/s",
            first.insts as f64 / best,
        ),
        ("setup_s".into(), "s", median(&mut setups)),
        ("peak_rss_mb".into(), "MiB", peak_rss_mb()),
        ("sim_cycles".into(), "cycles", first.cycles as f64),
        ("fpu_util".into(), "ratio", first.fpu_util),
        (
            "pass_ratio".into(),
            "ratio",
            ratio(
                (tally.attempted - tally.failed) as f64,
                tally.attempted as f64,
            ),
        ),
    ]
}

fn per_layer(tally: &Tally, first: &Pass) -> Metrics {
    let prof = &tally.profile;
    let per_cycle = |ns: u64| ratio(ns as f64, prof.cycles as f64);
    let bucket = |b: Bucket| prof.buckets[b as usize];
    // A bucket a workload's traced run does not separate reads 0:
    // `fig3_core` has no cluster, L2 or scheduler, and on the tiled
    // workloads the core, SSR, TCDM and FPU phases run inside
    // `Cluster::begin_cycle` and `Cluster::end_cycle`.
    let mut out: Metrics = Vec::new();
    for b in Bucket::ALL {
        out.push(match b {
            Bucket::SchedSkip => (
                b.metric().into(),
                "ns/window",
                ratio(bucket(b) as f64, prof.windows as f64),
            ),
            _ => (b.metric().into(), "ns/cycle", per_cycle(bucket(b))),
        });
    }
    let step_ns: u64 = STEP_BUCKETS.iter().map(|&b| bucket(b)).sum();
    out.push((
        "system.step_ns".into(),
        "ns/cycle",
        ratio(step_ns as f64, prof.dense_cycles as f64),
    ));
    let charged: u64 = prof.buckets.iter().sum();
    out.push((
        "host.other_ns".into(),
        "ns/cycle",
        per_cycle(prof.wall_ns - charged),
    ));
    let untraced_ns: f64 = tally.pass_s.iter().map(|s| s * 1e9).sum();
    let untraced_cycles = first.cycles * tally.pass_s.len() as u64;
    out.push((
        "host.trace_overhead_ns".into(),
        "ns/cycle",
        per_cycle(prof.wall_ns) - ratio(untraced_ns, untraced_cycles as f64),
    ));
    out.push((
        "sched.skipped_share".into(),
        "ratio",
        ratio((prof.cycles - prof.dense_cycles) as f64, prof.cycles as f64),
    ));
    out.push((
        "sched.windows".into(),
        "count",
        ratio(prof.windows as f64, tally.traced as f64),
    ));
    let setup = |f: fn(&Setup) -> f64| median(&mut tally.setups.iter().map(f).collect::<Vec<_>>());
    out.push(("kernels.codegen_s".into(), "s", setup(|s| s.codegen)));
    out.push(("cluster.build_s".into(), "s", setup(|s| s.build)));
    out.push(("kernels.data_s".into(), "s", setup(|s| s.data)));
    out.extend(first.simulated.iter().cloned());
    out
}

/// The simulated per-layer counts every workload reports, from the
/// run's aggregate counters and (for the tiled workloads) its L2 and DMA
/// summaries. Metrics of layers a workload lacks read 0.
pub struct Counts {
    pub tcdm_accesses: u64,
    pub tcdm_conflicts: u64,
    pub l2: Option<(scalar_chaining::mem::L2Stats, u64)>,
    pub dma_beats: u64,
    pub dma_busy: u64,
    pub dma_exposed: u64,
    pub attribution: scalar_chaining::perf::Attribution,
    /// `speedup_vs_base`, `efficiency_vs_base`, `best_fpu_util`
    /// (`fig3_core` only).
    pub paper: [f64; 3],
}

impl Counts {
    /// The simulated metrics in report order.
    pub fn metrics(&self) -> Metrics {
        let (hits, misses, stalls, wb_beats, pf_hits, pf_issued) = match &self.l2 {
            Some((s, wb)) => (
                s.cache.read_hits,
                s.cache.read_misses,
                s.cache.stall_cycles,
                *wb,
                s.cache.prefetch_hits,
                s.cache.prefetches_issued,
            ),
            None => (0, 0, 0, 0, 0, 0),
        };
        let f = |v: u64| v as f64;
        let mut out: Metrics = vec![
            (
                "mem.tcdm_conflict_ratio".into(),
                "ratio",
                ratio(
                    f(self.tcdm_conflicts),
                    f(self.tcdm_accesses + self.tcdm_conflicts),
                ),
            ),
            (
                "mem.l2_read_hit_ratio".into(),
                "ratio",
                ratio(f(hits), f(hits + misses)),
            ),
            ("mem.l2_stall_cycles".into(), "cycles", f(stalls)),
            ("mem.l2_writeback_beats".into(), "count", f(wb_beats)),
            (
                "cache.prefetch_accuracy".into(),
                "ratio",
                ratio(f(pf_hits), f(pf_issued)),
            ),
            ("dma.beats".into(), "count", f(self.dma_beats)),
            (
                "dma.exposed_share".into(),
                "ratio",
                ratio(f(self.dma_exposed), f(self.dma_busy)),
            ),
        ];
        for leaf in Leaf::ALL {
            out.push((
                format!("perf.{}_share", leaf.metric_name()),
                "ratio",
                self.attribution.share(leaf),
            ));
        }
        for (name, value) in ["speedup_vs_base", "efficiency_vs_base", "best_fpu_util"]
            .into_iter()
            .zip(self.paper)
        {
            out.push((name.into(), "ratio", value));
        }
        out
    }
}

fn json_line(correct: bool, tally: &Tally, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = workload(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (fig3_core, system_tiled_l2, idle_parked)",
            args.workload
        );
        std::process::exit(2);
    };
    let (revision, digest) = provenance();
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    println!(
        "provenance: revision={revision} source_digest={digest} workload={} seed={} \
         seconds={} trace={} sched={} nproc={nproc} threads=1 params=[{}]",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.sched_mode(),
        wl.params()
    );
    let (mut tally, metrics) = run(&args, wl.as_ref());
    if let Some(first) = &tally.first {
        match wl.cross_check(first) {
            Ok(lines) => lines.iter().for_each(|l| println!("{l}")),
            Err(e) => tally.problems.push(e),
        }
    }
    println!(
        "passes: {} untraced, {} traced, {} attempted, {} failed",
        tally.pass_s.len(),
        tally.traced,
        tally.attempted,
        tally.failed
    );
    for (name, unit, value) in &metrics {
        println!("{name:>28} {value:>18.6} {unit}");
    }
    for p in &tally.problems {
        eprintln!("perfbench: {p}");
    }
    let correct = tally.problems.is_empty() && tally.failed == 0;
    println!("{}", json_line(correct, &tally, &metrics));
}
