//! # sc-system — multi-cluster scale-out over a shared L2
//!
//! A scaled-out many-cluster system: M [`sc_cluster::Cluster`]s (each N
//! lock-step cores plus one DMA engine) stepped **cycle by cycle in
//! lock-step** against a shared, banked [`sc_mem::L2`] with fair
//! inter-cluster arbitration and a configurable L2↔Dram refill path.
//! Intra-cluster contention stays where PR 2 put it — each cluster's own
//! TCDM crossbar — while the new first-order effect, clusters' DMA beats
//! genuinely contending for the memory level *above* the L1, lives here.
//!
//! ## Lock-step protocol
//!
//! Every system cycle:
//!
//! 1. each unfinished cluster runs its first half-cycle
//!    ([`sc_cluster::Cluster::begin_cycle`]): core phases, doorbells, and
//!    the DMA engine's cycle start — returning the background-memory
//!    side of the engine's beat, if one is ready;
//! 2. the shared L2 arbitrates all clusters' beats in **one** pass
//!    ([`sc_mem::L2::arbitrate`]): at most one beat per bank, rotation
//!    over clusters, missing lines stalled behind the cache core's
//!    MSHRs and refill/write-back channels;
//! 3. each cluster finishes its cycle
//!    ([`sc_cluster::Cluster::end_cycle`]) with its L2 outcome — a
//!    granted beat then contends on the cluster's own TCDM crossbar
//!    exactly as before, moving data against the shared functional
//!    store;
//! 4. the inter-cluster barrier resolves: once every active hart of
//!    every cluster has written CSR 0x7C6, all of them release in the
//!    same cycle;
//! 5. clusters whose cores all halted load their next program *stage*
//!    (the software tile loop), so per-cluster tile pipelines run
//!    independently without global synchronisation.
//!
//! A 1-cluster system behind a pass-through L2
//! ([`sc_mem::L2Config::passthrough`]) performs exactly the same
//! sequence as a stand-alone [`sc_cluster::Cluster`], cycle for cycle —
//! pinned by this crate's tests and `sc-kernels`' system proptests.
//!
//! ## Event-driven scheduling
//!
//! [`System::run`] under [`sc_core::SchedMode::Event`] (selected with
//! [`SystemBuilder::sched_mode`]) fast-forwards windows where every
//! cluster reports a future wake and the shared L2 is quiescent
//! ([`sc_mem::L2::is_quiescent`]) — bit-identical to dense stepping,
//! pinned by the checked-in baseline sweeps and `sc-kernels`'
//! differential proptest. The fluent [`SystemBuilder`] assembles a
//! system (shared memory, watchdog, tracer, scheduling mode) in one
//! expression.
//!
//! ```
//! use sc_isa::{csr, IntReg, ProgramBuilder};
//! use sc_system::{System, SystemConfig};
//!
//! // Every hart stores cluster*16 + hart to its own cluster's TCDM,
//! // rendezvouses on the inter-cluster barrier, halts.
//! let program = |cluster: u32, hart: u32| {
//!     let mut b = ProgramBuilder::new();
//!     b.li(IntReg::new(10), (cluster * 16 + hart) as i32);
//!     b.slli(IntReg::new(11), IntReg::new(10), 2);
//!     b.sw(IntReg::new(10), IntReg::new(11), 0x100);
//!     b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0);
//!     b.ecall();
//!     b.build().unwrap()
//! };
//! let cfg = SystemConfig::new(2, 2);
//! let stages = (0..2)
//!     .map(|c| vec![(0..2).map(|h| program(c, h)).collect()])
//!     .collect();
//! let mut system = System::new(cfg, stages);
//! let summary = system.run(10_000)?;
//! assert_eq!(summary.system_barriers, 1);
//! for c in 0..2u32 {
//!     for h in 0..2u32 {
//!         let addr = 0x100 + (c * 16 + h) * 4;
//!         assert_eq!(system.cluster(c as usize).tcdm().read_u32(addr)?, c * 16 + h);
//!     }
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::VecDeque;
use std::fmt;

use sc_cluster::{
    lint_config, Cluster, ClusterBuilder, ClusterConfig, ClusterError, ClusterSummary,
};
use sc_core::{PerfCounters, SchedMode, Scheduler, Wake};
use sc_isa::Program;
use sc_lint::lint_harts;
use sc_mem::{CacheWake, Dram, L2Config, L2Outcome, L2Request, L2Stats, L2};
use sc_perf::{Attribution, Leaf};
use sc_trace::{HangReport, ResourceState, Tracer, Track, Watchdog};

/// Track the shared L2 traces on: process 0 ("l2"), thread 0; the L2's
/// refill/write-back channels occupy the following thread ids. Cluster
/// `c`'s tracks live under process `c + 1`.
pub const L2_TRACK: Track = Track::new(0, 0);

/// System geometry: how many clusters, their shared per-cluster shape,
/// and the shared memory levels above them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemConfig {
    /// Number of clusters stepped in lock-step.
    pub num_clusters: u32,
    /// Per-cluster configuration (cores, TCDM geometry).
    pub cluster: ClusterConfig,
    /// The shared L2 every cluster's DMA engine moves against.
    pub l2: L2Config,
}

impl SystemConfig {
    /// A system of `num_clusters` default-configured clusters of
    /// `cores_per_cluster` cores each, over the default L2.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(num_clusters: u32, cores_per_cluster: u32) -> Self {
        assert!(num_clusters >= 1, "a system has at least one cluster");
        SystemConfig {
            num_clusters,
            cluster: ClusterConfig::new(cores_per_cluster),
            l2: L2Config::new(),
        }
    }

    /// Replaces the per-cluster configuration.
    #[must_use]
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Replaces the L2 configuration.
    #[must_use]
    pub fn with_l2(mut self, l2: L2Config) -> Self {
        self.l2 = l2;
        self
    }
}

/// Any failure during system simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// A cluster's simulation failed.
    Cluster {
        /// The faulting cluster.
        cluster: u32,
        /// The underlying error.
        source: ClusterError,
    },
    /// The cycle budget ran out before every cluster finished — also
    /// covers inter-cluster barrier deadlocks.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// The watchdog ([`System::set_watchdog`]) saw no architectural
    /// progress anywhere in the system for its limit while clusters
    /// were unfinished: a hang, converted into a diagnostic naming each
    /// blocked resource instead of spinning until the budget runs out.
    Hang(HangReport),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Cluster { cluster, source } => {
                write!(f, "cluster {cluster}: {source}")
            }
            SystemError::MaxCyclesExceeded { max_cycles } => {
                write!(
                    f,
                    "system exceeded {max_cycles} cycles before all clusters finished"
                )
            }
            SystemError::Hang(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Cluster { source, .. } => Some(source),
            SystemError::MaxCyclesExceeded { .. } => None,
            SystemError::Hang(_) => None,
        }
    }
}

/// Aggregated result of a completed system run.
#[derive(Debug, Clone)]
pub struct SystemSummary {
    /// System cycles until the *last* cluster finished its last stage.
    pub cycles: u64,
    /// Each cluster's own summary (its `cycles` freeze when it
    /// finishes; DMA/overlap metrics are per-cluster engines).
    pub per_cluster: Vec<ClusterSummary>,
    /// Element-wise sum of every core's whole-run counters across all
    /// clusters, with `cycles` overwritten by the system cycle count.
    pub aggregate: PerfCounters,
    /// Cycle at which each cluster finished (halted with no stages
    /// left).
    pub cluster_done_at: Vec<u64>,
    /// Inter-cluster barrier episodes completed by the whole system.
    pub system_barriers: u64,
    /// Shared-L2 activity (accesses, conflicts, cache hits/misses,
    /// evictions, MSHR activity), when a shared memory is attached.
    pub l2: Option<L2Stats>,
    /// 64-bit beats the L2 refill channels moved from the Dram — the
    /// expensive end of every cold miss, charged by `sc-energy`.
    pub l2_refill_beats: u64,
    /// 64-bit beats of write-back traffic the L2's dirty evictions
    /// generated towards the Dram (0 unless the L2 has a finite
    /// capacity with write-back on), also charged by `sc-energy`.
    pub l2_writeback_beats: u64,
    /// The subset of [`SystemSummary::l2_refill_beats`] moved by
    /// *prefetch-issued* refills (descriptor-driven L2 prefetching; 0
    /// with [`sc_mem::L2Config::prefetch`] off). Already included in the
    /// refill total — `sc-energy` charges a prefetch beat exactly like a
    /// demand refill beat, so this field is the attribution split, not
    /// an extra charge.
    pub l2_prefetch_beats: u64,
    /// Top-down cycle attribution aggregated over every hart in the
    /// system: each cluster's padded partition plus
    /// [`sc_perf::Leaf::Park`] padding for the window between that
    /// cluster's finish and the system's last cycle, so the whole tree
    /// partitions `total harts × system cycles` exactly (verified as a
    /// hard error when the summary is assembled).
    pub attribution: Attribution,
}

impl SystemSummary {
    /// Aggregate FPU utilisation: compute-issue cycles of all cores over
    /// `total cores × system cycles`.
    #[must_use]
    pub fn system_utilization(&self) -> f64 {
        let cores: u64 = self
            .per_cluster
            .iter()
            .map(|c| c.per_core.len() as u64)
            .sum();
        let peak = self.cycles.saturating_mul(cores);
        if peak == 0 {
            0.0
        } else {
            self.aggregate.fpu_issue_cycles as f64 / peak as f64
        }
    }

    /// Total flops over system cycles.
    #[must_use]
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.aggregate.flops as f64 / self.cycles as f64
        }
    }

    /// Total DMA beats moved by every cluster's engine.
    #[must_use]
    pub fn total_dma_beats(&self) -> u64 {
        self.per_cluster
            .iter()
            .filter_map(|c| c.dma.as_ref())
            .map(|d| d.stats.beats)
            .sum()
    }

    /// The L2 refill-path occupancy split for top-down reports, in beats
    /// (the channel is busy for a fixed time per beat, so beat counts
    /// are exact occupancy ratios): demand-miss service is the refill
    /// traffic that was *not* prefetch-issued, alongside the prefetch
    /// and write-back shares.
    #[must_use]
    pub fn refill_occupancy(&self) -> sc_perf::RefillOccupancy {
        sc_perf::RefillOccupancy {
            demand_cycles: self.l2_refill_beats.saturating_sub(self.l2_prefetch_beats),
            prefetch_cycles: self.l2_prefetch_beats,
            writeback_cycles: self.l2_writeback_beats,
        }
    }
}

/// The system: M lock-stepped clusters, optionally fed through a shared
/// banked L2 from one background memory.
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    clusters: Vec<Cluster>,
    /// Remaining program stages per cluster (the software tile loop):
    /// when a cluster's cores all halt, its next stage loads and the
    /// cluster keeps running — clusters advance independently.
    stages: Vec<VecDeque<Vec<Program>>>,
    /// The shared memory levels, when attached: the L2 timing filter
    /// and the single functional store behind it.
    shared: Option<(L2, Dram)>,
    cycles: u64,
    cluster_done_at: Vec<Option<u64>>,
    system_barriers: u64,
    // Scratch reused across cycles.
    l2_reqs: Vec<L2Request>,
    l2_outcomes: Vec<L2Outcome>,
    l2_req_of: Vec<Option<usize>>,
    /// The cycle's plan ([`System::plan_cycle`]): every unfinished
    /// cluster in index order, each with its local-skip classification —
    /// `true` for a cluster whose wake lies strictly in the future, which
    /// is bulk-advanced one cycle ([`Cluster::skip_quiet`]) while the
    /// dense subset steps.
    stepped: Vec<(usize, bool)>,
    tracer: Tracer,
    watchdog: Option<Watchdog>,
    /// Per-cluster, per-hart attribution snapshots at the system
    /// watchdog's last observed progress change — the baselines a hang
    /// report takes its stalled-window attribution deltas against.
    hang_attr_base: Vec<Vec<Attribution>>,
    hang_attr_sig: u64,
    hang_attr_primed: bool,
    sched: Scheduler,
}

impl System {
    /// Creates a system running `stages[c]` on cluster `c`: a non-empty
    /// sequence of program sets (one program per core each), executed
    /// back to back — the model of each cluster's software tile loop.
    /// Single-stage clusters just run their one program set.
    ///
    /// # Panics
    ///
    /// Panics unless `stages.len() == cfg.num_clusters` and every
    /// cluster has at least one stage of `cfg.cluster.num_cores`
    /// programs.
    #[must_use]
    pub fn new(cfg: SystemConfig, stages: Vec<Vec<Vec<Program>>>) -> Self {
        Self::assemble(cfg, stages, false)
    }

    /// Shared constructor: `with_engines` attaches every cluster's DMA
    /// engine at build time (the [`SystemBuilder`] path, which also
    /// installs the shared L2/Dram pair afterwards).
    fn assemble(cfg: SystemConfig, stages: Vec<Vec<Vec<Program>>>, with_engines: bool) -> Self {
        assert_eq!(
            stages.len(),
            cfg.num_clusters as usize,
            "one stage list per cluster"
        );
        let timing = cfg.l2.engine_timing();
        let mut clusters = Vec::with_capacity(stages.len());
        let mut queues = Vec::with_capacity(stages.len());
        for (c, cluster_stages) in stages.into_iter().enumerate() {
            let mut q: VecDeque<Vec<Program>> = cluster_stages.into();
            let first = q.pop_front().expect("every cluster has at least one stage");
            let mut builder =
                ClusterBuilder::new(cfg.cluster, first).embedded(c as u32, cfg.num_clusters);
            if with_engines {
                builder = builder.shared_dma(timing);
            }
            clusters.push(builder.build());
            queues.push(q);
        }
        let n = clusters.len();
        System {
            cfg,
            clusters,
            stages: queues,
            shared: None,
            cycles: 0,
            cluster_done_at: vec![None; n],
            system_barriers: 0,
            l2_reqs: Vec::new(),
            l2_outcomes: Vec::new(),
            l2_req_of: vec![None; n],
            stepped: Vec::with_capacity(n),
            tracer: Tracer::off(),
            watchdog: None,
            hang_attr_base: vec![Vec::new(); n],
            hang_attr_sig: 0,
            hang_attr_primed: false,
            sched: Scheduler::default(),
        }
    }

    /// Selects how [`System::run`] advances the clock: dense lock-step
    /// (the default) or event-driven fast-forwarding of provably idle
    /// windows. Every embedded cluster takes the same mode, so event
    /// mode also sits parked harts out inside a busy cluster. The two
    /// modes are cycle-count- and stats-identical; event mode is purely
    /// a host-speed optimisation.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched = Scheduler::new(mode);
        for cluster in &mut self.clusters {
            cluster.set_sched_mode(mode);
        }
    }

    /// The scheduling mode [`System::run`] uses.
    #[must_use]
    pub fn sched_mode(&self) -> SchedMode {
        self.sched.mode()
    }

    /// Subscribes the whole system to a trace sink: cluster `c`'s harts,
    /// DMA engine and TCDM become tracks under process `c + 1`, while
    /// the shared L2's refill/write-back channels and sampled metrics
    /// live under process 0 ([`L2_TRACK`]). Attaching the shared memory
    /// later inherits the subscription.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for (c, cluster) in self.clusters.iter_mut().enumerate() {
            cluster.set_tracer(tracer.clone(), c as u32 + 1);
        }
        if let Some((l2, _)) = self.shared.as_mut() {
            l2.set_tracer(tracer.clone(), L2_TRACK);
        }
        self.tracer = tracer;
    }

    /// Arms the hang watchdog: if no architectural state retires
    /// anywhere in the system for `limit` consecutive cycles while
    /// clusters are unfinished, the run aborts with
    /// [`SystemError::Hang`] naming each blocked resource. The watchdog
    /// watches *global* progress — a single cluster legitimately parked
    /// on an uneven inter-cluster barrier never fires it as long as some
    /// other cluster keeps retiring. Disarmed by default.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn set_watchdog(&mut self, limit: u64) {
        self.watchdog = Some(Watchdog::new(limit));
    }

    /// Appends the hang-diagnosis view of every system resource to
    /// `out`: each unfinished cluster's harts and engine, then the
    /// shared L2's miss-handling state.
    pub fn diagnose(&self, out: &mut Vec<ResourceState>) {
        for (c, cluster) in self.clusters.iter().enumerate() {
            if !self.cluster_finished(c) {
                cluster.diagnose(&format!("cluster{c}"), out);
            }
        }
        if let Some((l2, _)) = self.shared.as_ref() {
            let cache = l2.cache();
            if cache.is_busy() {
                out.push(ResourceState::info(
                    "l2",
                    format!(
                        "{} MSHR(s) in flight, {} prefetch(es) queued",
                        cache.mshr_occupancy(),
                        cache.prefetch_backlog()
                    ),
                ));
            }
        }
    }

    fn check_watchdog(&mut self) -> Option<HangReport> {
        if self.watchdog.is_none() || self.is_done() {
            return None;
        }
        let sig: u64 = self.clusters.iter().map(Cluster::progress_signature).sum();
        if !self.hang_attr_primed || sig != self.hang_attr_sig {
            self.hang_attr_primed = true;
            self.hang_attr_sig = sig;
            self.hang_attr_base = self.clusters.iter().map(Cluster::attr_snapshot).collect();
        }
        let cycle = self.cycles;
        let stuck_for = self.watchdog.as_mut()?.observe(cycle, sig)?;
        let mut resources = Vec::new();
        self.diagnose(&mut resources);
        for (c, cluster) in self.clusters.iter().enumerate() {
            if !self.cluster_finished(c) {
                cluster.diagnose_attr_since(
                    &format!("cluster{c}"),
                    &self.hang_attr_base[c],
                    &mut resources,
                );
            }
        }
        Some(HangReport::new(cycle, stuck_for, resources))
    }

    /// Installs the shared L2 + functional store pair (the clusters'
    /// engines must already be attached).
    fn install_shared(&mut self, dram: Dram) {
        let mut l2 = L2::new(self.cfg.l2, self.cfg.num_clusters);
        if self.tracer.is_on() {
            l2.set_tracer(self.tracer.clone(), L2_TRACK);
        }
        self.shared = Some((l2, dram));
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Number of clusters.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// One cluster, by index.
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    #[must_use]
    pub fn cluster(&self, cluster: usize) -> &Cluster {
        &self.clusters[cluster]
    }

    /// Mutable cluster access (test setup: pre-load a cluster's TCDM).
    ///
    /// # Panics
    ///
    /// Panics if `cluster` is out of range.
    pub fn cluster_mut(&mut self, cluster: usize) -> &mut Cluster {
        &mut self.clusters[cluster]
    }

    /// The shared background memory, when attached.
    #[must_use]
    pub fn dram(&self) -> Option<&Dram> {
        self.shared.as_ref().map(|(_, d)| d)
    }

    /// The shared L2, when attached (stats inspection).
    #[must_use]
    pub fn l2(&self) -> Option<&L2> {
        self.shared.as_ref().map(|(l2, _)| l2)
    }

    /// System cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether a cluster has halted with no stages left.
    fn cluster_finished(&self, c: usize) -> bool {
        self.clusters[c].is_done() && self.stages[c].is_empty()
    }

    /// Whether every cluster has finished its last stage.
    #[must_use]
    pub fn is_done(&self) -> bool {
        (0..self.clusters.len()).all(|c| self.cluster_finished(c))
    }

    /// Executes one lock-step system cycle.
    ///
    /// # Errors
    ///
    /// The first cluster error, tagged with its cluster index.
    pub fn step(&mut self) -> Result<(), SystemError> {
        self.plan_cycle();
        self.step_planned()
    }

    /// Plans the coming cycle in one pass over the clusters: lists every
    /// unfinished cluster in `stepped` and, in event mode, classifies it
    /// by its wake and returns the system's merged wake
    /// ([`System::next_wake`]). Dense mode computes no wake, steps every
    /// unfinished cluster and returns [`Wake::EveryCycle`].
    fn plan_cycle(&mut self) -> Wake {
        let mut stepped = std::mem::take(&mut self.stepped);
        stepped.clear();
        let wake = if self.sched.mode() == SchedMode::Event {
            self.merge_wakes(|c| {
                let wake = self.clusters[c].next_wake();
                stepped.push((c, self.sched.local_quiet(self.cycles, wake)));
                wake
            })
        } else {
            stepped.extend(
                (0..self.clusters.len())
                    .filter(|&c| !self.cluster_finished(c))
                    .map(|c| (c, false)),
            );
            Wake::EveryCycle
        };
        self.stepped = stepped;
        wake
    }

    /// [`System::step`] after [`System::plan_cycle`] planned this cycle.
    fn step_planned(&mut self) -> Result<(), SystemError> {
        let tag = |cluster: usize| {
            move |source| SystemError::Cluster {
                cluster: cluster as u32,
                source,
            }
        };

        // All of this cycle's events carry the cycle number (the
        // clusters re-set the same value in their begin_cycle).
        self.tracer.set_cycle(self.cycles);

        // Clusters that finished their last stage sit the cycle out
        // entirely (their cycle counters freeze, like halted cores in a
        // cluster). Of the rest, the plan marks clusters whose wake lies
        // strictly in the future — every hart parked, the engine at most
        // counting down — as quiet: they are *locally* skipped this
        // cycle, bulk-advanced by one cycle while the dense subset
        // steps. A quiet cluster cannot emit an L2 beat or a prefetch
        // hint (its engine owes a countdown, its doorbells are silent),
        // so the dense subset's arbitration is unchanged; its watchdog,
        // samples and barrier census are handled below exactly where
        // dense stepping would.

        // Half-cycle 1 on every densely stepped cluster, collecting the
        // L2-side beats — and the stride hints rung doorbells published
        // (DMA_START), which reach the shared L2's prefetcher *before*
        // this cycle's arbitration so prefetching can start while the
        // engine still pays its startup latency.
        self.l2_reqs.clear();
        self.l2_req_of.fill(None);
        for i in 0..self.stepped.len() {
            let (c, quiet) = self.stepped[i];
            if quiet {
                continue;
            }
            if let Some((addr, kind)) = self.clusters[c].begin_cycle().map_err(tag(c))? {
                self.l2_req_of[c] = Some(self.l2_reqs.len());
                self.l2_reqs.push(L2Request {
                    cluster: c as u32,
                    addr,
                    kind,
                });
            }
            if let Some((l2, _)) = self.shared.as_mut() {
                for mut hint in self.clusters[c].take_prefetch_hints() {
                    hint.requester = c as u32;
                    l2.prefetch_hint(hint);
                }
            }
        }

        // One shared-L2 arbitration pass over all clusters' beats. With
        // no shared memory attached, beats can only come from engines
        // with a private Dram: those move against their own memory with
        // nothing shared to arbitrate, so every beat proceeds (the empty
        // grant vector below reads as all-granted).
        match self.shared.as_mut() {
            Some((l2, _)) => {
                l2.begin_cycle();
                l2.arbitrate_into(&self.l2_reqs, &mut self.l2_outcomes);
            }
            None => self.l2_outcomes.clear(),
        }

        // Half-cycle 2: each densely stepped cluster resumes with its
        // L2 outcome; a granted beat then contends on the cluster's own
        // TCDM crossbar and moves data against the shared store. A
        // quiet cluster bulk-advances one cycle instead, emitting the
        // sample rows its dense end-of-cycle would have (the loop runs
        // in cluster index order, so rows interleave exactly as dense)
        // and polling its watchdog at the same post-advance cycle a
        // dense step observes.
        for i in 0..self.stepped.len() {
            let (c, quiet) = self.stepped[i];
            if quiet {
                self.clusters[c].skip_quiet(1);
                if self.tracer.wants_sample(self.cycles) {
                    self.clusters[c].sample_now();
                }
                if let Some(report) = self.clusters[c].poll_watchdog() {
                    return Err(SystemError::Cluster {
                        cluster: c as u32,
                        source: ClusterError::Hang(report),
                    });
                }
                continue;
            }
            let outcome = match self.l2_req_of[c] {
                Some(r) => self
                    .l2_outcomes
                    .get(r)
                    .copied()
                    .unwrap_or(L2Outcome::Granted),
                None => L2Outcome::Granted,
            };
            let dram = self.shared.as_mut().map(|(_, d)| d);
            self.clusters[c].end_cycle(outcome, dram).map_err(tag(c))?;
        }
        if let Some((l2, _)) = self.shared.as_mut() {
            l2.end_cycle();
        }
        if self.tracer.wants_sample(self.cycles) {
            self.sample_l2_now();
        }
        self.cycles += 1;

        // Stage advance + completion bookkeeping — BEFORE the barrier
        // census: a cluster whose cores just halted with another stage
        // queued still has work, so reloading it first makes its harts
        // count as active in the rendezvous below. (Counting them as
        // halted would release a sibling's barrier without them.)
        for i in 0..self.stepped.len() {
            let (c, _) = self.stepped[i];
            if self.clusters[c].is_done() {
                if let Some(next) = self.stages[c].pop_front() {
                    self.clusters[c].load_programs(next);
                } else if self.cluster_done_at[c].is_none() {
                    self.cluster_done_at[c] = Some(self.cycles);
                }
            }
        }

        // Inter-cluster barrier rendezvous: release once every active
        // hart of every cluster has arrived.
        let (waiting, active) = self
            .clusters
            .iter()
            .map(Cluster::system_barrier_census)
            .fold((0, 0), |(w, a), (cw, ca)| (w + cw, a + ca));
        if waiting > 0 && waiting == active {
            for cluster in &mut self.clusters {
                cluster.release_system_barrier();
            }
            self.system_barriers += 1;
        }
        if let Some(report) = self.check_watchdog() {
            return Err(SystemError::Hang(report));
        }
        Ok(())
    }

    /// The earliest future cycle at which stepping the system could do
    /// anything a skip cannot reproduce in closed form: the merge of
    /// every unfinished cluster's wake (finished clusters freeze, as in
    /// dense stepping), the earliest armed cluster watchdog's firing
    /// point ([`Cluster::watchdog_skip_cap`] — the run loop re-observes
    /// there, reproducing the dense firing cycle), and the shared L2's
    /// own wake — dense while it has runnable refill/write-back/
    /// prefetch work, a future cycle while its only work is in-flight
    /// channel countdowns ([`L2::next_wake`]). A subscribed tracer does
    /// not pin dense stepping — [`System::skip_idle`] synthesizes the
    /// sampled counter rows dense stepping would have emitted.
    #[must_use]
    pub fn next_wake(&self) -> Wake {
        self.merge_wakes(|c| self.clusters[c].next_wake())
    }

    /// [`System::next_wake`] over the cluster wakes `cluster_wake`
    /// reports, called once per unfinished cluster.
    fn merge_wakes(&self, mut cluster_wake: impl FnMut(usize) -> Wake) -> Wake {
        let mut wake = Wake::Idle;
        for c in 0..self.clusters.len() {
            if self.cluster_finished(c) {
                continue;
            }
            if let Some(cap) = self.clusters[c].watchdog_skip_cap() {
                wake = wake.merge(Wake::At(cap));
            }
            wake = wake.merge(cluster_wake(c));
        }
        if let Some((l2, _)) = self.shared.as_ref() {
            wake = wake.merge(match l2.next_wake() {
                CacheWake::EveryCycle => Wake::EveryCycle,
                CacheWake::In(n) => Wake::At(self.cycles + n),
                CacheWake::Quiescent => Wake::Idle,
            });
        }
        wake
    }

    /// Bulk-applies `cycles` idle cycles: every unfinished cluster
    /// skips ([`Cluster::skip_quiet`]) and the system clock advances;
    /// finished clusters stay frozen and a quiescent L2 has nothing to
    /// advance. When a tracer with a sampling cadence is subscribed,
    /// the window is split at each cadence point it owes
    /// ([`Tracer::owed_samples`]) and the carry-forward sample rows dense
    /// stepping would have emitted there are synthesized in dense order
    /// (unfinished clusters in index order, then the shared L2). Callers
    /// must only skip up to the window [`System::next_wake`] allows.
    pub fn skip_idle(&mut self, cycles: u64) {
        let end = self.cycles + cycles;
        for point in self.tracer.owed_samples(self.cycles, cycles) {
            self.skip_quiet(point - self.cycles + 1);
            self.tracer.set_cycle(point);
            for c in 0..self.clusters.len() {
                if !self.cluster_finished(c) {
                    self.clusters[c].sample_now();
                }
            }
            self.sample_l2_now();
        }
        self.skip_quiet(end - self.cycles);
    }

    /// The pure bookkeeping of a skipped window, without sample
    /// synthesis. The shared L2 may carry in-flight channel countdowns
    /// across the window ([`L2::next_wake`] reported how far they
    /// reach); they advance here in closed form.
    fn skip_quiet(&mut self, cycles: u64) {
        for c in 0..self.clusters.len() {
            if !self.cluster_finished(c) {
                self.clusters[c].skip_quiet(cycles);
            }
        }
        if let Some((l2, _)) = self.shared.as_mut() {
            l2.skip(cycles);
        }
        self.cycles += cycles;
    }

    /// Emits the shared L2's sample row set, exactly as the dense loop
    /// does at a sampling point.
    fn sample_l2_now(&self) {
        if let Some((l2, _)) = self.shared.as_ref() {
            let metrics = l2.stats().metric_set(l2.config());
            self.tracer.sample(L2_TRACK, &metrics);
        }
    }

    /// Emits the run-end partial-interval samples — every cluster's
    /// rows, then the shared L2's — when the run owes them
    /// ([`Tracer::owes_final_sample`]).
    fn sample_final(&self) {
        if self.tracer.owes_final_sample(self.cycles) {
            self.tracer.set_cycle(self.cycles);
            for cluster in &self.clusters {
                cluster.sample_now();
            }
            self.sample_l2_now();
        }
    }

    /// Runs until every cluster finishes its last stage, or the cycle
    /// budget is exhausted.
    ///
    /// Under [`SchedMode::Event`] the loop fast-forwards windows where
    /// [`System::next_wake`] is in the future, capping each skip at the
    /// cycle budget and (when armed) the watchdog's next deadline so
    /// [`SystemError::MaxCyclesExceeded`] and [`SystemError::Hang`]
    /// fire at the identical cycle the dense loop reports.
    ///
    /// # Errors
    ///
    /// Cluster errors (tagged) or budget exhaustion — the latter also
    /// covers inter-cluster barrier deadlocks.
    pub fn run(&mut self, max_cycles: u64) -> Result<SystemSummary, SystemError> {
        while !self.is_done() {
            // The plan also classifies the clusters for the dense step
            // that follows when nothing can be skipped (dense mode never
            // skips).
            let wake = self.plan_cycle();
            let caps = self
                .watchdog
                .as_ref()
                .map(|w| w.skip_cap(self.cycles))
                .into_iter()
                .chain(std::iter::once(max_cycles));
            let skip = self.sched.plan(self.cycles, wake, caps);
            if skip > 0 {
                self.skip_idle(skip);
                if let Some(report) = self.check_watchdog() {
                    return Err(SystemError::Hang(report));
                }
                // Cluster-local watchdogs owe one observation per
                // window ([`Cluster::poll_watchdog`]); the window was
                // capped at the earliest firing point
                // ([`System::next_wake`]), so this reproduces the dense
                // loop's per-cycle cadence exactly.
                for c in 0..self.clusters.len() {
                    if !self.cluster_finished(c) {
                        if let Some(report) = self.clusters[c].poll_watchdog() {
                            return Err(SystemError::Cluster {
                                cluster: c as u32,
                                source: ClusterError::Hang(report),
                            });
                        }
                    }
                }
                continue;
            }
            if self.cycles >= max_cycles {
                return Err(SystemError::MaxCyclesExceeded { max_cycles });
            }
            self.step_planned()?;
        }
        self.sample_final();
        Ok(self.summary())
    }

    /// The system summary as of now (meaningful once [`System::is_done`]).
    ///
    /// # Panics
    ///
    /// Panics when the attribution invariant is violated anywhere in the
    /// system — a simulator bug, never a property of the program under
    /// test (see [`Cluster::summary`]).
    #[must_use]
    pub fn summary(&self) -> SystemSummary {
        let per_cluster: Vec<ClusterSummary> = self.clusters.iter().map(Cluster::summary).collect();
        let mut aggregate = PerfCounters::new();
        let mut attribution = Attribution::new();
        let mut harts: u64 = 0;
        for cs in &per_cluster {
            for core in &cs.per_core {
                aggregate.accumulate(&core.counters);
            }
            attribution.accumulate(&cs.attribution);
            // A finished cluster sits out the rest of the run: its
            // harts' gap to the system's last cycle is done-padding.
            let cluster_harts = cs.per_core.len() as u64;
            attribution.record_n(
                Leaf::Park,
                self.cycles.saturating_sub(cs.cycles) * cluster_harts,
            );
            harts += cluster_harts;
        }
        attribution
            .verify(self.cycles.saturating_mul(harts))
            .expect("system attribution must partition harts x system cycles");
        aggregate.cycles = self.cycles;
        let l2 = self.shared.as_ref().map(|(l2, _)| l2.stats());
        let (l2_refill_beats, l2_writeback_beats, l2_prefetch_beats) = self
            .shared
            .as_ref()
            .zip(l2.as_ref())
            .map_or((0, 0, 0), |((shared_l2, _), stats)| {
                let cfg = shared_l2.config();
                (
                    stats.refill_beats(cfg),
                    stats.writeback_beats(cfg),
                    stats.prefetch_beats(cfg),
                )
            });
        SystemSummary {
            cycles: self.cycles,
            per_cluster,
            aggregate,
            cluster_done_at: self
                .cluster_done_at
                .iter()
                .map(|d| d.unwrap_or(self.cycles))
                .collect(),
            system_barriers: self.system_barriers,
            l2,
            l2_refill_beats,
            l2_writeback_beats,
            l2_prefetch_beats,
            attribution,
        }
    }
}

/// Fluent construction of a [`System`]: options accumulate in any order
/// and [`SystemBuilder::build`] wires clusters,
/// DMA engines, the shared L2 and the trace subscription in the one
/// correct order.
///
/// ```
/// use sc_isa::ProgramBuilder;
/// use sc_mem::{Dram, DramConfig};
/// use sc_system::{SystemBuilder, SystemConfig};
///
/// let program = || {
///     let mut b = ProgramBuilder::new();
///     b.ecall();
///     b.build().unwrap()
/// };
/// let stages = (0..2).map(|_| vec![vec![program(), program()]]).collect();
/// let system = SystemBuilder::new(SystemConfig::new(2, 2), stages)
///     .dram(Dram::new(DramConfig::new()))
///     .watchdog(10_000)
///     .build();
/// assert!(system.l2().is_some());
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    cfg: SystemConfig,
    stages: Vec<Vec<Vec<Program>>>,
    dram: Option<Dram>,
    watchdog: Option<u64>,
    sched: SchedMode,
    tracer: Option<Tracer>,
    lint_strict: bool,
}

impl SystemBuilder {
    /// Starts a builder for a system running `stages[c]` on cluster `c`
    /// (a non-empty sequence of program sets, one program per core
    /// each).
    #[must_use]
    pub fn new(cfg: SystemConfig, stages: Vec<Vec<Vec<Program>>>) -> Self {
        SystemBuilder {
            cfg,
            stages,
            dram: None,
            watchdog: None,
            sched: SchedMode::Dense,
            tracer: None,
            lint_strict: false,
        }
    }

    /// Refuses to build a system when the static verifier (`sc-lint`)
    /// diagnoses any cluster's program set — the loaded stage *or* any
    /// queued tile stage — with error-severity findings. Warning-tier
    /// findings still build; they stay visible through each cluster's
    /// [`Cluster::lint_report`] and in hang diagnoses.
    #[must_use]
    pub fn lint_strict(mut self) -> Self {
        self.lint_strict = true;
        self
    }

    /// Attaches the shared memory: every cluster gets a DMA engine
    /// moving against `dram` through the configured L2, paying the L2's
    /// timing ([`sc_mem::L2Config::engine_timing`]) per transfer/beat.
    #[must_use]
    pub fn dram(mut self, dram: Dram) -> Self {
        self.dram = Some(dram);
        self
    }

    /// Arms the system-wide hang watchdog with `limit` progress-free
    /// cycles.
    #[must_use]
    pub fn watchdog(mut self, limit: u64) -> Self {
        self.watchdog = Some(limit);
        self
    }

    /// Selects dense or event-driven clock advancement for
    /// [`System::run`] and every embedded cluster
    /// ([`System::set_sched_mode`]).
    #[must_use]
    pub fn sched_mode(mut self, mode: SchedMode) -> Self {
        self.sched = mode;
        self
    }

    /// Subscribes the whole system to a trace sink (clusters under
    /// processes `c + 1`, the shared L2 under [`L2_TRACK`]).
    #[must_use]
    pub fn tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Builds the system, applying the accumulated options in wiring
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration: a stage list count that does
    /// not match the cluster count, an empty stage list, a program
    /// count that does not match the core count, a zero watchdog
    /// limit, or — with [`SystemBuilder::lint_strict`] — programs the
    /// static verifier diagnoses with errors.
    #[must_use]
    pub fn build(self) -> System {
        match self.try_build() {
            Ok(system) => system,
            Err(err) => panic!("{err}"),
        }
    }

    /// Builds the system like [`SystemBuilder::build`], but returns an
    /// error instead of panicking when [`SystemBuilder::lint_strict`]
    /// was requested and the verifier found errors.
    ///
    /// # Errors
    ///
    /// [`SystemError::Cluster`] wrapping [`ClusterError::Lint`] with
    /// the full report for the first refused cluster.
    ///
    /// # Panics
    ///
    /// Same structural panics as [`SystemBuilder::build`] (stage/core
    /// count mismatches, zero watchdog limit).
    pub fn try_build(self) -> Result<System, SystemError> {
        let lint_strict = self.lint_strict;
        let mut system = System::assemble(self.cfg, self.stages, self.dram.is_some());
        if lint_strict {
            let lint_cfg = lint_config(&system.cfg.cluster);
            for (c, cluster) in system.clusters.iter().enumerate() {
                // The loaded stage was linted by the cluster itself;
                // queued tile stages are linted with the same
                // hardware-derived model before they ever load.
                let mut report = cluster.lint_report().clone();
                for programs in &system.stages[c] {
                    report.merge(lint_harts(programs, &lint_cfg));
                }
                if report.has_errors() {
                    return Err(SystemError::Cluster {
                        cluster: c as u32,
                        source: ClusterError::Lint(report),
                    });
                }
            }
        }
        if let Some(dram) = self.dram {
            system.install_shared(dram);
        }
        if let Some(tracer) = self.tracer {
            system.set_tracer(tracer);
        }
        if let Some(limit) = self.watchdog {
            system.set_watchdog(limit);
        }
        system.set_sched_mode(self.sched);
        Ok(system)
    }
}
