//! # sc-cluster — multi-core simulation over a shared banked TCDM
//!
//! A Snitch-style *cluster*: N compute cores ([`sc_core::Core`]) stepped
//! cycle by cycle in lock-step against one shared multi-banked TCDM.
//! Inter-core bank contention — each core brings its LSU port plus one
//! port per stream data mover — is the first-order effect a single-core
//! model cannot express, and the quantity the cluster counters break
//! down.
//!
//! ## Lock-step protocol
//!
//! Every cluster cycle:
//!
//! 1. each active core runs its writeback/issue/execute phases
//!    ([`sc_core::Core::begin_cycle`]),
//! 2. all cores' TCDM requests are gathered (ports are namespaced
//!    `hart × ports_per_core`) and arbitrated in **one** crossbar pass,
//!    with inter-core fair round-robin
//!    ([`sc_mem::Tcdm::set_port_group_size`]),
//! 3. grants are applied per core, then every core advances its
//!    pipelines,
//! 4. barrier rendezvous resolves: once every active hart has written the
//!    barrier CSR, all of them release in the same cycle.
//!
//! A 1-core cluster performs exactly the same sequence as the single-core
//! [`sc_core::Simulator`], cycle for cycle — the equivalence tests in
//! `sc-kernels` pin this.
//!
//! ## Barrier semantics
//!
//! A hart arrives at the barrier by writing CSR 0x7C5 (after draining its
//! FP subsystem and streams; see `sc-core`). The cluster releases all
//! waiting harts in the cycle in which the *last active* hart arrives.
//! Harts that have already halted (`ecall`) no longer participate: a
//! barrier among the remaining active harts still releases. A program in
//! which some hart never reaches a barrier the others wait on is a
//! software bug; the run loop reports it as an exhausted cycle budget
//! (`sc_system::SystemError::MaxCyclesExceeded`).
//!
//! ## Who drives the clock
//!
//! A cluster has no run loop of its own. It is always stepped by an
//! owner — `sc_system::System`, where a stand-alone cluster is the
//! 1-cluster system — through the phase API: [`Cluster::begin_cycle`],
//! the owner's shared-memory arbitration, [`Cluster::end_cycle`], and
//! the owner's inter-cluster barrier rendezvous
//! ([`Cluster::system_barrier_census`] /
//! [`Cluster::release_system_barrier`]). The owner's event-driven
//! scheduler reads [`Cluster::next_wake`] and bulk-advances windows it
//! may skip with [`Cluster::skip_quiet`]; under
//! [`sc_core::SchedMode::Event`] ([`Cluster::set_sched_mode`]) the
//! cluster itself sits parked harts out of a dense cycle. The budget,
//! the hang watchdog and trace sample synthesis live in the owner's
//! loop.
//!
//! ```
//! use sc_cluster::{ClusterBuilder, ClusterConfig};
//! use sc_isa::{csr, IntReg, ProgramBuilder};
//! use sc_mem::L2Outcome;
//!
//! // Every hart stores its ID to TCDM word 0x100 + hart*4, rendezvous,
//! // halts.
//! let program = |_hart: u32| {
//!     let mut b = ProgramBuilder::new();
//!     b.csrrs(IntReg::new(10), csr::MHARTID, IntReg::ZERO);
//!     b.slli(IntReg::new(11), IntReg::new(10), 2);
//!     b.sw(IntReg::new(10), IntReg::new(11), 0x100);
//!     b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0);
//!     b.ecall();
//!     b.build().unwrap()
//! };
//! let mut cluster = ClusterBuilder::new(ClusterConfig::new(4), (0..4).map(program).collect())
//!     .build();
//! // The dense core of an owner's loop. Without a DMA engine nothing
//! // reaches the shared memory, so every second half-cycle is granted.
//! while !cluster.is_done() {
//!     assert!(cluster.begin_cycle()?.is_none());
//!     cluster.end_cycle(L2Outcome::Granted, None)?;
//! }
//! for hart in 0..4u32 {
//!     assert_eq!(cluster.tcdm().read_u32(0x100 + hart * 4)?, hart);
//! }
//! assert_eq!(cluster.summary().barriers, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;

use sc_core::{
    Core, CoreConfig, DmaCommand, PerfCounters, RunSummary, SchedMode, Scheduler, SimError, Wake,
};
use sc_dma::{DmaEngine, DmaError, DmaStats, Transfer};
use sc_isa::Program;
use sc_lint::{lint_harts, LintConfig, LintReport};
use sc_mem::{AccessKind, Dram, DramConfig, L2Outcome, PortId, PrefetchHint, Request, Tcdm};
use sc_perf::{Attribution, Leaf};
use sc_trace::{ResourceState, Tracer, Track};

/// Thread id the DMA engine's trace track uses within a cluster's
/// process (hart tracks occupy the low ids).
pub const DMA_TRACK_TID: u32 = 100;

/// Thread id the shared TCDM's sampled metrics use.
pub const TCDM_TRACK_TID: u32 = 98;

/// Cluster geometry: how many cores share the TCDM, and their per-core
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of compute cores.
    pub num_cores: u32,
    /// Per-core configuration; `core.tcdm` describes the *shared* TCDM.
    pub core: CoreConfig,
}

impl ClusterConfig {
    /// A cluster of `num_cores` default-configured cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    #[must_use]
    pub fn new(num_cores: u32) -> Self {
        assert!(num_cores >= 1, "a cluster has at least one core");
        ClusterConfig {
            num_cores,
            core: CoreConfig::new(),
        }
    }

    /// Replaces the per-core configuration.
    #[must_use]
    pub fn with_core(mut self, core: CoreConfig) -> Self {
        self.core = core;
        self
    }

    /// TCDM crossbar ports each core occupies (LSU + stream movers).
    #[must_use]
    pub fn ports_per_core(&self) -> u8 {
        1 + self.core.num_ssrs
    }
}

/// A fault raised while stepping a cluster cycle, located at the hart
/// (or engine) that raised it. Run-level failures — an exhausted cycle
/// budget, a hang, a lint refusal — belong to the owner's run loop
/// (`sc_system::SystemError`).
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A core's simulation failed.
    Core {
        /// The faulting hart.
        hart: u32,
        /// The underlying error.
        source: SimError,
    },
    /// The DMA engine rejected a descriptor or faulted on a beat.
    Dma {
        /// The hart whose doorbell ring enqueued the transfer, if the
        /// failure is attributable (descriptor rejection); beat faults
        /// mid-transfer are reported without a hart.
        hart: Option<u32>,
        /// The underlying error.
        source: DmaError,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Core { hart, source } => write!(f, "hart {hart}: {source}"),
            ClusterError::Dma {
                hart: Some(hart),
                source,
            } => write!(f, "hart {hart}: {source}"),
            ClusterError::Dma { hart: None, source } => write!(f, "dma engine: {source}"),
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Core { source, .. } => Some(source),
            ClusterError::Dma { source, .. } => Some(source),
        }
    }
}

/// Aggregated result of a completed cluster run. Comparable as a whole,
/// so identity tests (a 1-cluster system against the bare phase
/// protocol, event against dense stepping) pin every field at once.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSummary {
    /// Cluster cycles until the *last* core halted.
    pub cycles: u64,
    /// Each core's own run summary (counters, measured region, trace).
    pub per_core: Vec<RunSummary>,
    /// Element-wise sum of all cores' whole-run counters, with `cycles`
    /// overwritten by the cluster cycle count (so utilisation-style
    /// ratios use wall-clock cycles, not core-cycle sums).
    pub aggregate: PerfCounters,
    /// Cycle at which each core halted.
    pub core_done_at: Vec<u64>,
    /// Lost TCDM arbitrations per core (inter- plus intra-core).
    pub core_conflicts: Vec<u64>,
    /// Granted TCDM accesses per core.
    pub core_accesses: Vec<u64>,
    /// Lost arbitrations per TCDM bank.
    pub conflicts_by_bank: Vec<u64>,
    /// Granted accesses per TCDM bank.
    pub accesses_by_bank: Vec<u64>,
    /// Barrier episodes completed by the whole cluster.
    pub barriers: u64,
    /// Inter-cluster (system) barrier episodes this cluster's harts
    /// completed, as released by the owner's rendezvous.
    pub system_barriers: u64,
    /// DMA activity and compute–transfer overlap, when an engine is
    /// attached ([`ClusterBuilder::shared_dma`]).
    pub dma: Option<DmaSummary>,
    /// Top-down cycle attribution aggregated over every hart: each
    /// core's own partition plus [`sc_perf::Leaf::Park`] padding for the
    /// window between that core's halt and the cluster's last cycle, so
    /// the whole tree partitions `harts × cluster cycles` exactly
    /// (verified as a hard error when the summary is assembled).
    pub attribution: Attribution,
}

/// DMA activity of a cluster run, including the overlap metrics that
/// quantify how well double-buffered tiling hides transfer time behind
/// compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaSummary {
    /// Engine counters (beats, bytes, conflicts, wait cycles).
    pub stats: DmaStats,
    /// Cycles the engine had a transfer in flight.
    pub busy_cycles: u64,
    /// Busy cycles during which at least one core simultaneously issued
    /// an FPU compute op — transfer time hidden behind compute.
    pub overlap_cycles: u64,
    /// The crossbar port the engine's beats arbitrate on (index into the
    /// per-port TCDM statistics).
    pub port: u8,
}

impl DmaSummary {
    /// Fraction of DMA-busy cycles overlapped with compute (0 when the
    /// engine never ran).
    #[must_use]
    pub fn overlap_fraction(&self) -> f64 {
        if self.busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.busy_cycles as f64
        }
    }

    /// The uncore transfer split for top-down reports: busy cycles
    /// divided into compute-overlapped vs exposed.
    #[must_use]
    pub fn transfer_attribution(&self) -> sc_perf::TransferAttribution {
        sc_perf::TransferAttribution {
            busy_cycles: self.busy_cycles,
            overlap_cycles: self.overlap_cycles,
        }
    }
}

impl ClusterSummary {
    /// Aggregate FPU utilisation: compute-issue cycles of all cores over
    /// `num_cores × cluster cycles` — the cluster's peak-relative
    /// throughput.
    #[must_use]
    pub fn cluster_utilization(&self) -> f64 {
        let peak = self.cycles.saturating_mul(self.per_core.len() as u64);
        if peak == 0 {
            0.0
        } else {
            self.aggregate.fpu_issue_cycles as f64 / peak as f64
        }
    }

    /// Total flops over cluster cycles.
    #[must_use]
    pub fn flops_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.aggregate.flops as f64 / self.cycles as f64
        }
    }
}

/// The attached DMA subsystem: the engine and the overlap bookkeeping.
/// The background memory it moves against is owned by the system and
/// passed into every [`Cluster::end_cycle`].
#[derive(Debug)]
struct DmaAttachment {
    engine: DmaEngine,
    /// The per-transfer/per-beat timing the engine pays (the system
    /// L2's engine-side timing).
    timing: DramConfig,
    busy_cycles: u64,
    overlap_cycles: u64,
    /// Whether any stepped hart issued an FPU compute op this cycle (set
    /// by [`Cluster::begin_cycle`], consumed by [`Cluster::end_cycle`]).
    /// Parked and halted harts cannot issue, so the stepped harts decide
    /// it alone.
    fpu_issued: bool,
    /// Whether the engine had a transfer in flight at this cycle's start
    /// (set by [`Cluster::begin_cycle`], consumed by
    /// [`Cluster::end_cycle`]).
    busy_this_cycle: bool,
    /// Whether the engine had an issuable beat this cycle (so an
    /// external denial is attributed to the right cycle).
    beat_ready: bool,
}

/// How many harts sit in each state that is not runnable. A hart is
/// counted once: halted first, then by the wait it is parked on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Census {
    halted: usize,
    barrier: usize,
    system_barrier: usize,
    dma_wait: usize,
}

impl Census {
    fn count(&mut self, core: &Core) {
        if core.is_halted() {
            self.halted += 1;
        } else if core.in_barrier() {
            self.barrier += 1;
        } else if core.in_system_barrier() {
            self.system_barrier += 1;
        } else if core.dma_wait_target().is_some() {
            self.dma_wait += 1;
        }
    }

    fn of(cores: &[Core]) -> Census {
        let mut census = Census::default();
        for core in cores {
            census.count(core);
        }
        census
    }

    fn parked(&self) -> usize {
        self.barrier + self.system_barrier + self.dma_wait
    }
}

/// The cluster: N lock-stepped cores over one shared banked TCDM,
/// optionally fed by a DMA engine from the system's background memory.
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    cores: Vec<Core>,
    /// The harts' states as of the last cycle end, program load or
    /// barrier release — the only points outside a cycle where a hart's
    /// state can change. `None` from [`Cluster::begin_cycle`] until
    /// [`Cluster::end_cycle`] recounts, so a cycle cut short by an error
    /// is read live ([`Cluster::census`]).
    census: Option<Census>,
    tcdm: Tcdm,
    cycles: u64,
    core_done_at: Vec<Option<u64>>,
    barriers: u64,
    system_barriers: u64,
    dma: Option<DmaAttachment>,
    /// Stride hints the engine published this cycle (doorbells rung at
    /// this [`Cluster::begin_cycle`]); the system collects them between
    /// the two half-cycles and feeds the shared L2's prefetcher, or
    /// lets them lapse when the L2 does not prefetch.
    prefetch_hints: Vec<PrefetchHint>,
    // Scratch reused across cycles to keep the hot loop allocation-free.
    requests: Vec<Request>,
    grants: Vec<bool>,
    active: Vec<usize>,
    ranges: Vec<(usize, usize, usize)>,
    tracer: Tracer,
    /// Perfetto process id this cluster's tracks live under.
    pid: u32,
    sched: Scheduler,
    /// Static-verification findings for the currently loaded programs
    /// (computed at construction and on every [`Cluster::load_programs`];
    /// cross-referenced into hang diagnoses).
    lint: LintReport,
}

impl Cluster {
    /// Creates a cluster running one program per core.
    ///
    /// # Panics
    ///
    /// Panics unless `programs.len() == cfg.num_cores`.
    fn new(cfg: ClusterConfig, programs: Vec<Program>) -> Self {
        assert_eq!(
            programs.len(),
            cfg.num_cores as usize,
            "one program per core"
        );
        let mut tcdm = Tcdm::new(cfg.core.tcdm);
        tcdm.set_port_group_size(cfg.ports_per_core());
        let lint = lint_harts(&programs, &lint_config(&cfg));
        let cores: Vec<Core> = programs
            .into_iter()
            .enumerate()
            .map(|(hart, program)| Core::with_hart(cfg.core, program, hart as u32, cfg.num_cores))
            .collect();
        let n = cores.len();
        Cluster {
            cfg,
            census: Some(Census::of(&cores)),
            cores,
            tcdm,
            cycles: 0,
            core_done_at: vec![None; n],
            barriers: 0,
            system_barriers: 0,
            dma: None,
            prefetch_hints: Vec::new(),
            requests: Vec::new(),
            grants: Vec::new(),
            active: Vec::new(),
            ranges: Vec::new(),
            tracer: Tracer::off(),
            pid: 0,
            sched: Scheduler::default(),
            lint,
        }
    }

    /// Static-verification findings (`sc-lint`) for the currently loaded
    /// programs. Computed once per program load — simulation never
    /// consults it, but hang diagnoses cross-reference it and a strict
    /// system build (`sc_system::SystemBuilder::lint_strict`) refuses
    /// clusters whose report has errors.
    #[must_use]
    pub fn lint_report(&self) -> &LintReport {
        &self.lint
    }

    /// Selects how this cluster steps a dense cycle: every unhalted hart
    /// (the default), or — under [`SchedMode::Event`] — only the harts
    /// that are not parked, bulk-advancing the parked ones
    /// ([`Scheduler::local_quiet`]). The owner sets the same mode on its
    /// own scheduler; the two modes are cycle-count- and
    /// stats-identical, event mode is purely a host-speed optimisation.
    pub fn set_sched_mode(&mut self, mode: SchedMode) {
        self.sched = Scheduler::new(mode);
    }

    /// The scheduling mode this cluster steps its harts in.
    #[must_use]
    pub fn sched_mode(&self) -> SchedMode {
        self.sched.mode()
    }

    /// Subscribes the cluster to a trace sink: every core becomes one
    /// thread track under process `pid` (tid = hart id), the DMA engine
    /// rides [`DMA_TRACK_TID`], and the shared TCDM's counters are
    /// sampled on [`TCDM_TRACK_TID`]. Attaching a DMA engine later
    /// inherits the subscription.
    pub fn set_tracer(&mut self, tracer: Tracer, pid: u32) {
        if tracer.is_on() {
            let cid = self.cores[0].cluster_id();
            tracer.name_process(pid, &format!("cluster{cid}"));
            tracer.name_thread(Track::new(pid, TCDM_TRACK_TID), "tcdm");
        }
        for (h, core) in self.cores.iter_mut().enumerate() {
            core.set_tracer(tracer.clone(), Track::new(pid, h as u32));
        }
        if let Some(dma) = &mut self.dma {
            dma.engine
                .set_tracer(tracer.clone(), Track::new(pid, DMA_TRACK_TID));
        }
        self.tracer = tracer;
        self.pid = pid;
    }

    /// The sum the watchdog samples: strictly grows whenever any hart
    /// retires an instruction, a stream moves an element, a barrier
    /// completes, or the DMA engine moves a beat. The system sums these
    /// across clusters for its watchdog.
    #[must_use]
    pub fn progress_signature(&self) -> u64 {
        let cores: u64 = self.cores.iter().map(Core::progress_signature).sum();
        let dma = self.dma.as_ref().map_or(0, |d| {
            d.engine.stats().beats + d.engine.stats().transfers_completed
        });
        cores + dma
    }

    /// Appends the hang-diagnosis view of every cluster resource to
    /// `out`, paths prefixed with `path` (e.g. `cluster0`).
    pub fn diagnose(&self, path: &str, out: &mut Vec<ResourceState>) {
        for (h, core) in self.cores.iter().enumerate() {
            if !core.is_halted() {
                core.diagnose(&format!("{path}.hart{h}"), out);
                // Cross-reference static findings for the wedged hart: a
                // hang whose program the linter already flagged is almost
                // certainly that bug, and the rule id names the class.
                for d in self.lint.for_hart(h as u32) {
                    out.push(ResourceState::info(
                        format!("{path}.hart{h}.lint"),
                        format!("{d}"),
                    ));
                }
            }
        }
        if let Some(dma) = &self.dma {
            if !dma.engine.is_idle() {
                out.push(ResourceState::info(
                    format!("{path}.dma"),
                    format!(
                        "{} transfer(s) outstanding, engine {}",
                        dma.engine.outstanding(),
                        if dma.engine.is_busy() { "busy" } else { "idle" }
                    ),
                ));
            }
        }
    }

    /// Appends each wedged hart's stalled-window attribution — where its
    /// cycles went since the snapshot in `base` — next to the structural
    /// diagnoses of a hang report. The system passes the baselines it
    /// took at its watchdog's last progress change.
    pub fn diagnose_attr_since(
        &self,
        path: &str,
        base: &[Attribution],
        out: &mut Vec<ResourceState>,
    ) {
        for (h, core) in self.cores.iter().enumerate() {
            if core.is_halted() {
                continue;
            }
            let start = base.get(h).copied().unwrap_or_default();
            let window = core.counters().attr.delta_since(&start);
            out.push(ResourceState::info(
                format!("{path}.hart{h}.attr"),
                format!("stalled-window attribution: {}", window.render_compact(3)),
            ));
        }
    }

    /// Per-hart whole-run attribution snapshots, in hart order — the
    /// baselines a system-level watchdog records at each progress change
    /// so its hang reports can show stalled-window deltas.
    #[must_use]
    pub fn attr_snapshot(&self) -> Vec<Attribution> {
        self.cores.iter().map(|c| c.counters().attr).collect()
    }

    /// Attaches a DMA engine moving against the system-owned store the
    /// owner passes into every [`Cluster::end_cycle`]. The engine pays
    /// `timing` per transfer/beat and arbitrates on the first
    /// crossbar port *after* every core's namespace
    /// (`num_cores × ports_per_core`), forming its own arbitration group
    /// — inter-group fairness treats the mover like one more core, so
    /// DMA beats neither starve nor are starved by compute traffic. An
    /// attached-but-idle engine leaves the cluster's cycle-by-cycle
    /// behaviour bit-identical to a cluster without one.
    ///
    /// # Panics
    ///
    /// Panics if the engine's port would overflow the 8-bit port space.
    fn attach_dma(&mut self, timing: DramConfig) {
        let port = self.cfg.num_cores * u32::from(self.cfg.ports_per_core());
        assert!(port < 256, "DMA port overflows the 8-bit port namespace");
        let mut engine = DmaEngine::new(PortId(port as u8));
        if self.tracer.is_on() {
            engine.set_tracer(self.tracer.clone(), Track::new(self.pid, DMA_TRACK_TID));
        }
        self.dma = Some(DmaAttachment {
            engine,
            timing,
            busy_cycles: 0,
            overlap_cycles: 0,
            fpu_issued: false,
            busy_this_cycle: false,
            beat_ready: false,
        });
    }

    /// The DMA engine, when attached (queue inspection in tests).
    #[must_use]
    pub fn dma_engine(&self) -> Option<&DmaEngine> {
        self.dma.as_ref().map(|d| &d.engine)
    }

    /// Replaces every halted core's program and restarts them at
    /// instruction 0, preserving all architectural and counter state —
    /// the model of a software outer loop (the double-buffered tile
    /// loop) starting its next iteration. Cycle and counter accumulation
    /// continue seamlessly; an attached DMA engine keeps draining its
    /// queue across the switch.
    ///
    /// # Panics
    ///
    /// Panics unless every core has halted, or if the program count does
    /// not match the core count.
    pub fn load_programs(&mut self, programs: Vec<Program>) {
        assert!(
            self.is_done(),
            "load_programs requires every core to have halted"
        );
        assert_eq!(programs.len(), self.cores.len(), "one program per core");
        self.lint = lint_harts(&programs, &lint_config(&self.cfg));
        for (core, program) in self.cores.iter_mut().zip(programs) {
            core.load_program(program);
        }
        self.census = Some(Census::of(&self.cores));
        self.core_done_at.fill(None);
    }

    /// The cluster configuration.
    #[must_use]
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of cores.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// The shared TCDM (pre-load inputs / read back results).
    #[must_use]
    pub fn tcdm(&self) -> &Tcdm {
        &self.tcdm
    }

    /// Mutable shared-TCDM access.
    pub fn tcdm_mut(&mut self) -> &mut Tcdm {
        &mut self.tcdm
    }

    /// One core, by hart ID.
    ///
    /// # Panics
    ///
    /// Panics if `hart` is out of range.
    #[must_use]
    pub fn core(&self, hart: usize) -> &Core {
        &self.cores[hart]
    }

    /// Cluster cycles simulated so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Whether every core has halted.
    #[must_use]
    #[inline]
    pub fn is_done(&self) -> bool {
        self.census().halted == self.cores.len()
    }

    /// The harts' state counts: the cached census between cycles, a live
    /// recount inside a cycle that did not finish.
    #[inline]
    fn census(&self) -> Census {
        match self.census {
            Some(census) => {
                debug_assert_eq!(census, Census::of(&self.cores), "stale hart census");
                census
            }
            None => Census::of(&self.cores),
        }
    }

    /// Marks this cluster as cluster `cluster_id` of a
    /// `num_clusters`-cluster system: every core's cluster-id /
    /// system-size CSRs read the position.
    fn embed(&mut self, cluster_id: u32, num_clusters: u32) {
        for core in &mut self.cores {
            core.set_cluster_pos(cluster_id, num_clusters);
        }
    }

    /// First half of a cluster cycle: core phases 1–2 (writeback, issue,
    /// integer execute), doorbell draining into the DMA engine, and the
    /// engine's own cycle start. Returns the background-memory side of
    /// the engine's beat, if one is ready this cycle — a multi-cluster
    /// system arbitrates these across clusters at the shared L2, then
    /// resumes each cluster with [`Cluster::end_cycle`]. The name
    /// matches the `begin_cycle`/`arbitrate`/`end_cycle` convention the
    /// memory-side components (`sc-mem`, `sc-cache`) already use.
    ///
    /// # Errors
    ///
    /// The first core error, tagged with its hart ID.
    pub fn begin_cycle(&mut self) -> Result<Option<(u32, AccessKind)>, ClusterError> {
        let tag = |hart: usize| {
            move |source| ClusterError::Core {
                hart: hart as u32,
                source,
            }
        };

        // All of this cycle's events carry the cycle number as their
        // timestamp (the system sets the same value when it owns the
        // clock — the clusters advance in lock-step with it).
        self.tracer.set_cycle(self.cycles);
        self.census = None;

        // Cores already halted at cycle start sit the cycle out entirely
        // (their counters freeze at their own completion). Under
        // event-driven stepping, parked harts (barrier / system-barrier
        // / blocking DMA waits) sit *this* cycle out too — the local
        // skip for partially-idle windows: a parked hart is drained, so
        // its dense cycle is exactly [`sc_core::Core::skip_cycles`] of
        // one cycle, and release remains a collective event the
        // end-of-cycle rendezvous applies to every core regardless of
        // membership in `active`. In dense mode
        // ([`Scheduler::local_quiet`] is constantly false) the
        // reference behaviour is untouched.
        self.active.clear();
        for h in 0..self.cores.len() {
            if self.cores[h].is_halted() {
                continue;
            }
            if self.sched.local_quiet(self.cycles, self.cores[h].wake()) {
                self.cores[h].skip_cycles(1);
            } else {
                self.active.push(h);
            }
        }

        // Mirror the DMA engine's state into the cores so this cycle's
        // status-CSR reads see the queue as of cycle start.
        if let Some(dma) = &self.dma {
            let (outstanding, completed) = (dma.engine.outstanding(), dma.engine.completed());
            for &h in &self.active {
                self.cores[h].set_dma_status(outstanding, completed);
            }
        }

        // Phases 1–2 on every active core. FPU compute issues only here,
        // so comparing each stepped hart's issue count across its phases
        // tells the DMA overlap detector whether anything computed.
        let mut fpu_issued = false;
        for &h in &self.active {
            let issued = self.cores[h].counters().fpu_issue_cycles;
            self.cores[h].begin_cycle().map_err(tag(h))?;
            fpu_issued |= self.cores[h].counters().fpu_issue_cycles != issued;
        }

        // Doorbells rung this cycle enter the engine's FIFO; the engine
        // picks up new work at its own cycle start below.
        let mut beat = None;
        if let Some(dma) = &mut self.dma {
            for &h in &self.active {
                if self.cores[h].has_dma_commands() {
                    for cmd in self.cores[h].take_dma_commands() {
                        dma.engine.enqueue(command_to_transfer(&cmd)).map_err(|e| {
                            ClusterError::Dma {
                                hart: Some(h as u32),
                                source: e,
                            }
                        })?;
                    }
                }
            }
            // A fully idle engine (nothing queued, nothing in flight —
            // no doorbell rang above) sits the cycle out: every one of
            // the calls below is a no-op on it, so the local skip is
            // exact in both scheduling modes. Enqueued hints cannot go
            // stale here — an enqueue leaves the engine non-idle until
            // its transfer completes, and its hints were drained the
            // same cycle.
            dma.fpu_issued = fpu_issued;
            if dma.engine.is_idle() {
                dma.busy_this_cycle = false;
                dma.beat_ready = false;
                self.prefetch_hints.clear();
            } else {
                dma.engine.begin_cycle(dma.timing);
                dma.busy_this_cycle = dma.engine.is_busy();
                beat = dma.engine.dram_request();
                dma.beat_ready = beat.is_some();
                // This cycle's DMA_START hints replace last cycle's
                // (which the system either forwarded to the L2 or let
                // lapse).
                self.prefetch_hints.clear();
                self.prefetch_hints.extend(dma.engine.take_prefetch_hints());
            }
        }
        Ok(beat)
    }

    /// The stride hints this cycle's doorbells published (valid between
    /// [`Cluster::begin_cycle`] and [`Cluster::end_cycle`]): a system
    /// owner forwards them to the shared L2's prefetcher, rewriting each
    /// hint's `requester` to this cluster's id.
    pub fn take_prefetch_hints(&mut self) -> std::vec::Drain<'_, PrefetchHint> {
        self.prefetch_hints.drain(..)
    }

    /// Second half of a cluster cycle: the TCDM crossbar pass (the DMA
    /// beat participates only when `dma_mem` granted it), grant
    /// application, core/engine cycle end, and barrier rendezvous.
    ///
    /// `dma_mem` is the shared-memory-side arbitration outcome for the
    /// beat [`Cluster::begin_cycle`] returned
    /// ([`sc_mem::L2Outcome::Granted`] when there was none); a denial's
    /// kind decides whether the engine books a bank-conflict or a
    /// miss/refill wait. `ext_mem` supplies the system-owned functional
    /// store the engine of a [`ClusterBuilder::shared_dma`] cluster
    /// moves against; `None` for a cluster without an engine.
    ///
    /// # Errors
    ///
    /// Core errors (hart-tagged) or DMA beat faults.
    ///
    /// # Panics
    ///
    /// Panics if the engine moves a beat without `ext_mem`.
    pub fn end_cycle(
        &mut self,
        dma_mem: L2Outcome,
        ext_mem: Option<&mut Dram>,
    ) -> Result<(), ClusterError> {
        let tag = |hart: usize| {
            move |source| ClusterError::Core {
                hart: hart as u32,
                source,
            }
        };

        // Phase 3: one crossbar pass over all cores' *and* the DMA
        // engine's requests — DMA beats contend for bank ports exactly
        // like compute traffic and show up in the per-bank stats. A beat
        // denied at the shared memory never reaches the crossbar: the
        // engine retries the whole beat next cycle.
        self.requests.clear();
        self.ranges.clear();
        for &h in &self.active {
            let start = self.requests.len();
            self.cores[h].mem_requests(&mut self.requests);
            self.ranges.push((h, start, self.requests.len()));
        }
        let mut dma_req = false;
        if let Some(dma) = &mut self.dma {
            if dma.beat_ready {
                if dma_mem.granted() {
                    if let Some(req) = dma.engine.request() {
                        self.requests.push(req);
                        dma_req = true;
                    }
                } else {
                    dma.engine.note_l2_denied(dma_mem.refill_related());
                }
            }
        }
        if self.requests.is_empty() {
            for &h in &self.active {
                self.cores[h]
                    .apply_grants(&[], &mut self.tcdm)
                    .map_err(tag(h))?;
            }
        } else {
            self.tcdm.arbitrate_into(&self.requests, &mut self.grants);
            for &(h, start, end) in &self.ranges {
                self.cores[h]
                    .apply_grants(&self.grants[start..end], &mut self.tcdm)
                    .map_err(tag(h))?;
            }
            if dma_req {
                let dma = self.dma.as_mut().expect("dma_req implies attachment");
                let timing = dma.timing;
                let mem = ext_mem.expect("a DMA engine moves against the system-owned store");
                dma.engine
                    .apply_grant(
                        self.grants[self.grants.len() - 1],
                        &mut self.tcdm,
                        mem,
                        timing,
                    )
                    .map_err(|e| ClusterError::Dma {
                        hart: None,
                        source: e,
                    })?;
            }
        }

        // Phase 4.
        for &h in &self.active {
            self.cores[h].end_cycle();
        }
        if let Some(dma) = &mut self.dma {
            dma.engine.end_cycle();
            // One increment per cluster cycle, however many descriptors
            // were queued or completed within it — `overlap_cycles` can
            // therefore never exceed `busy_cycles` and the overlap
            // fraction stays in [0, 1] (asserted by the sweep
            // validators).
            if dma.busy_this_cycle {
                dma.busy_cycles += 1;
            }
            // Compute–transfer overlap: did any core issue an FPU compute
            // op while the engine was busy?
            if dma.busy_this_cycle && dma.fpu_issued {
                dma.overlap_cycles += 1;
            }
            dma.busy_this_cycle = false;
            dma.beat_ready = false;
        }
        if self.tracer.wants_sample(self.cycles) {
            self.sample_now();
        }
        self.cycles += 1;

        // The cycle's one pass over every hart: release each blocking DMA
        // wait whose target the engine's wrapping completion counter has
        // reached (transfers complete in the crossbar phase above, so a
        // hart resumes the cycle after its transfer lands), and count the
        // states the rendezvous below and every census reader need.
        // Releasing DMA waits before the barriers resolve is exact: a
        // barrier releases only when every unhalted hart waits on it, so
        // a cycle that releases a DMA wait never releases a barrier.
        let completed = self.dma.as_ref().map(|d| d.engine.completed());
        let mut census = Census::default();
        for core in &mut self.cores {
            if let (Some(target), Some(completed)) = (core.dma_wait_target(), completed) {
                if (completed.wrapping_sub(target) as i32) >= 0 {
                    core.release_dma_wait(completed);
                }
            }
            census.count(core);
        }

        // Barrier rendezvous: release once every active hart has arrived.
        let still_active = self.cores.len() - census.halted;
        if census.barrier > 0 && census.barrier == still_active {
            for core in &mut self.cores {
                core.release_barrier();
            }
            self.barriers += 1;
            census.barrier = 0;
        }
        self.census = Some(census);

        for &h in &self.active {
            if self.cores[h].is_halted() && self.core_done_at[h].is_none() {
                self.core_done_at[h] = Some(self.cycles);
            }
        }
        Ok(())
    }

    /// How many of this cluster's harts are parked on the inter-cluster
    /// barrier, and how many are still active (not halted) — the
    /// system's rendezvous census.
    #[must_use]
    #[inline]
    pub fn system_barrier_census(&self) -> (usize, usize) {
        let census = self.census();
        (census.system_barrier, self.cores.len() - census.halted)
    }

    /// Releases every hart parked on the inter-cluster barrier and
    /// counts the episode (system use; the caller must have verified
    /// that every active hart across *all* clusters has arrived). A
    /// cluster with no waiting hart — e.g. one that halted before a
    /// system-wide episode it never participated in — is left untouched
    /// and does not count the episode.
    pub fn release_system_barrier(&mut self) {
        if self.census().system_barrier == 0 {
            return;
        }
        for core in &mut self.cores {
            core.release_system_barrier();
        }
        self.system_barriers += 1;
        if let Some(census) = &mut self.census {
            census.system_barrier = 0;
        }
    }

    /// The earliest future cycle at which stepping this cluster could do
    /// anything a skip cannot reproduce in closed form. Merges every
    /// core's wake ([`sc_core::Core::wake`]) with the DMA engine's: an
    /// idle engine sleeps, an engine mid-countdown wakes when its wait
    /// elapses, anything else (a queued transfer waiting to start, a
    /// beat ready to arbitrate) needs dense stepping. A subscribed
    /// tracer does *not* pin the cluster to dense stepping: a skippable
    /// window emits no timeline transitions by construction (state
    /// labels coalesce), and the owner synthesizes the sampled counter
    /// rows dense stepping would have produced ([`Cluster::sample_now`]
    /// at each owed cadence point).
    #[must_use]
    pub fn next_wake(&self) -> Wake {
        // A core's wake is `Idle` when it is halted, or parked and not
        // tracing; any other core needs every cycle.
        let census = self.census();
        let unhalted = self.cores.len() - census.halted;
        let cores = if unhalted > census.parked() || (unhalted > 0 && self.cfg.core.trace) {
            Wake::EveryCycle
        } else {
            Wake::Idle
        };
        debug_assert_eq!(cores, Wake::earliest(self.cores.iter().map(Core::wake)));
        let dma = self.dma.as_ref().map_or(Wake::Idle, |d| {
            match d.engine.stalled_for() {
                // No transfer in flight: an empty queue means the
                // engine's cycle is a total no-op; a non-empty queue
                // pops at the next cycle start.
                None if d.engine.is_idle() => Wake::Idle,
                None | Some(0) => Wake::EveryCycle,
                Some(wait) => Wake::At(self.cycles + u64::from(wait)),
            }
        });
        cores.merge(dma)
    }

    /// Bulk-applies `cycles` idle cycles: exactly the bookkeeping that
    /// many dense steps would have performed while every component was
    /// in a skippable state — cycle counters advance (non-halted cores
    /// and the cluster clock), the DMA engine's countdown and busy time
    /// progress. No sample rows: the owner interleaves these skips with
    /// its own sampling so synthesized rows keep dense emission order
    /// (clusters in index order, then the shared L2, per cadence
    /// point). Callers must only skip up to the window
    /// [`Cluster::next_wake`] allows.
    pub fn skip_quiet(&mut self, cycles: u64) {
        if cycles == 0 {
            return;
        }
        for core in &mut self.cores {
            if !core.is_halted() {
                core.skip_cycles(cycles);
            }
        }
        if let Some(dma) = &mut self.dma {
            if dma.engine.is_busy() {
                // A skippable window means every hart is parked or
                // halted, so no FPU op can issue inside it: the dense
                // loop would book each of these cycles as busy and
                // *never* as overlap — the bulk charge must stay
                // exposed-only ([`TransferAttribution::exposed_cycles`]).
                debug_assert!(
                    self.cores
                        .iter()
                        .all(|c| c.is_halted() || matches!(c.wake(), Wake::Idle)),
                    "bulk DMA busy charge while a hart can still compute"
                );
                dma.busy_cycles += cycles;
                dma.engine.skip(cycles);
            }
        }
        self.cycles += cycles;
    }

    /// Emits one sample row set — exactly what the dense loop emits at a
    /// sampling point: every core's counters (hart order), the TCDM's
    /// stats, then the DMA engine's. The caller owns the sink clock
    /// ([`sc_trace::Tracer::set_cycle`]).
    pub fn sample_now(&self) {
        for (h, core) in self.cores.iter().enumerate() {
            self.tracer
                .sample(Track::new(self.pid, h as u32), core.counters());
        }
        self.tracer
            .sample(Track::new(self.pid, TCDM_TRACK_TID), self.tcdm.stats());
        if let Some(dma) = &self.dma {
            self.tracer
                .sample(Track::new(self.pid, DMA_TRACK_TID), dma.engine.stats());
        }
    }

    /// The cluster summary as of now (meaningful once [`Self::is_done`]).
    ///
    /// # Panics
    ///
    /// Panics when the attribution invariant is violated — any hart
    /// whose leaf counts do not sum to its cycle count, or an aggregate
    /// that does not partition `harts × cluster cycles`. Either is a
    /// simulator bug, never a property of the program under test.
    #[must_use]
    pub fn summary(&self) -> ClusterSummary {
        let per_core: Vec<RunSummary> = self.cores.iter().map(Core::summary).collect();
        let mut aggregate = PerfCounters::new();
        let mut attribution = Attribution::new();
        for s in &per_core {
            aggregate.accumulate(&s.counters);
            s.counters
                .attr
                .verify(s.counters.cycles)
                .expect("per-hart attribution must partition the hart's cycles");
            attribution.accumulate(&s.counters.attr);
            // A halted core sits out the rest of the run: the dense loop
            // freezes its counters, so the gap to the cluster's last
            // cycle is done-padding, attributed to Park.
            attribution.record_n(Leaf::Park, self.cycles.saturating_sub(s.counters.cycles));
        }
        attribution
            .verify(self.cycles.saturating_mul(per_core.len() as u64))
            .expect("cluster attribution must partition harts x cluster cycles");
        aggregate.cycles = self.cycles;
        let stats = self.tcdm.stats();
        let ppc = self.cfg.ports_per_core();
        let mut core_conflicts = Vec::with_capacity(self.cores.len());
        let mut core_accesses = Vec::with_capacity(self.cores.len());
        for core in &self.cores {
            let base = core.port_base();
            let (accesses, conflicts) = stats.totals_of_port_range(base..base + ppc);
            core_accesses.push(accesses);
            core_conflicts.push(conflicts);
        }
        let dma_accesses = self.dma.as_ref().map_or(0, |d| {
            let port = d.engine.port().0;
            stats.totals_of_port_range(port..port + 1).0
        });
        debug_assert_eq!(
            core_accesses.iter().sum::<u64>() + dma_accesses,
            stats.total_accesses(),
            "per-core port ranges plus the DMA port must partition the crossbar"
        );
        ClusterSummary {
            cycles: self.cycles,
            aggregate,
            core_done_at: self
                .core_done_at
                .iter()
                .map(|d| d.unwrap_or(self.cycles))
                .collect(),
            core_conflicts,
            core_accesses,
            conflicts_by_bank: stats.conflicts_by_bank().to_vec(),
            accesses_by_bank: stats.accesses_by_bank().to_vec(),
            barriers: self.barriers,
            system_barriers: self.system_barriers,
            dma: self.dma.as_ref().map(|d| DmaSummary {
                stats: *d.engine.stats(),
                busy_cycles: d.busy_cycles,
                overlap_cycles: d.overlap_cycles,
                port: d.engine.port().0,
            }),
            attribution,
            per_core,
        }
    }
}

/// Fluent construction of a [`Cluster`] for an owner that steps it
/// (`sc_system::SystemBuilder` builds every cluster it runs this way):
/// options accumulate in any order and [`ClusterBuilder::build`] applies
/// them in the one order that wires everything correctly (embedding
/// before the engine attachment).
///
/// ```
/// use sc_cluster::ClusterBuilder;
/// use sc_cluster::ClusterConfig;
/// use sc_isa::ProgramBuilder;
/// use sc_mem::DramConfig;
///
/// let mut b = ProgramBuilder::new();
/// b.ecall();
/// let cluster = ClusterBuilder::new(ClusterConfig::new(1), vec![b.build()?])
///     .embedded(0, 1)
///     .shared_dma(DramConfig::new())
///     .build();
/// assert!(cluster.dma_engine().is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
    programs: Vec<Program>,
    dma: Option<DramConfig>,
    embedded: Option<(u32, u32)>,
}

impl ClusterBuilder {
    /// Starts a builder for a cluster running one program per core.
    #[must_use]
    pub fn new(cfg: ClusterConfig, programs: Vec<Program>) -> Self {
        ClusterBuilder {
            cfg,
            programs,
            dma: None,
            embedded: None,
        }
    }

    /// Attaches a DMA engine moving against the system-owned store
    /// (the shared L2/Dram passed into [`Cluster::end_cycle`]), paying
    /// `timing` per transfer/beat.
    #[must_use]
    pub fn shared_dma(mut self, timing: DramConfig) -> Self {
        self.dma = Some(timing);
        self
    }

    /// Marks the cluster as cluster `cluster_id` of a
    /// `num_clusters`-cluster system (cluster-position CSRs; the system
    /// owns the inter-cluster barrier rendezvous).
    #[must_use]
    pub fn embedded(mut self, cluster_id: u32, num_clusters: u32) -> Self {
        self.embedded = Some((cluster_id, num_clusters));
        self
    }

    /// Builds the cluster, applying the accumulated options in wiring
    /// order.
    ///
    /// # Panics
    ///
    /// Panics on invalid configuration: a program count that does not
    /// match the core count, a DMA port overflowing the 8-bit port
    /// space, or `cluster_id >= num_clusters`.
    #[must_use]
    pub fn build(self) -> Cluster {
        let mut cluster = Cluster::new(self.cfg, self.programs);
        if let Some((cluster_id, num_clusters)) = self.embedded {
            assert!(
                cluster_id < num_clusters,
                "cluster id {cluster_id} outside the {num_clusters}-cluster system"
            );
            cluster.embed(cluster_id, num_clusters);
        }
        if let Some(timing) = self.dma {
            cluster.attach_dma(timing);
        }
        cluster
    }
}

/// Derives the lint model from the hardware configuration: the chained
/// FIFO holds `addmul_latency + 1` entries (every pipeline stage plus
/// the held writeback) and the TCDM footprint cap is the configured
/// TCDM size. This is the exact configuration every built cluster
/// verifies its programs against ([`Cluster::lint_report`]); exported
/// so system-level code can lint queued tile stages with the same model
/// before they are loaded.
#[must_use]
pub fn lint_config(cfg: &ClusterConfig) -> LintConfig {
    LintConfig::new()
        .with_fifo_capacity(cfg.core.fpu.addmul_latency + 1)
        .with_tcdm_cap_bytes(u64::from(cfg.core.tcdm.size))
}

/// Converts a core's doorbell snapshot into an engine transfer
/// descriptor. The CSR naming is direction-relative (`src` = Dram side,
/// `dst` = TCDM side, in the Dram→TCDM sense) regardless of direction.
fn command_to_transfer(cmd: &DmaCommand) -> Transfer {
    Transfer {
        dram_addr: cmd.src,
        tcdm_addr: cmd.dst,
        row_bytes: cmd.len,
        dram_stride: cmd.src_stride,
        tcdm_stride: cmd.dst_stride,
        reps: cmd.reps,
        to_tcdm: cmd.to_tcdm,
    }
}
