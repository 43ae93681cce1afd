//! The system kernel harnesses: running a workload partitioned across
//! the clusters of an [`sc_system::System`], in both memory regimes.
//!
//! * [`SystemKernel`] — the unbounded regime: every cluster's TCDM holds
//!   the whole problem (the legacy capacity cheat, scaled out), each
//!   cluster computes its own contiguous z-slab, and all harts
//!   rendezvous on the **inter-cluster barrier** (CSR 0x7C6) before
//!   halting, so cycles-to-done covers every cluster's writeback.
//! * [`TiledSystemKernel`] — the real memory system: the problem lives
//!   once in the shared background memory; each cluster double-buffers
//!   its slab's tiles through its own 128 KiB TCDM with its own DMA
//!   engine, and every engine's beats contend at the shared banked
//!   [`sc_mem::L2`] (with its Dram refill path). Clusters run their tile
//!   pipelines independently — no global synchronisation until the
//!   system simply ends when the last cluster drains its epilogue.
//!
//! A cluster run is the one-cluster point of either harness: a
//! 1-cluster system is cycle- and counter-identical to a stand-alone
//! [`sc_cluster::Cluster`] (behind [`L2Config::passthrough`] when
//! tiled), pinned by the system proptests. Both regimes verify
//! bit-exactly against the same golden model, so multi-cluster runs are
//! bit-identical in results to single-cluster runs of the same problem.
//!
//! Each harness has one entry point, `run_with`, whose `configure`
//! closure receives the [`SystemBuilder`] before it builds — the one
//! way to choose the scheduling mode, subscribe a tracer or arm a
//! watchdog (`|b| b.sched_mode(SchedMode::Event)`); `run` is
//! `run_with` with the builder's defaults.

use sc_cluster::ClusterConfig;
use sc_core::{CoreConfig, PerfCounters};
use sc_isa::Program;
use sc_mem::{Dram, DramConfig, L2Config, MemError, Tcdm, TcdmConfig};
use sc_system::{SystemBuilder, SystemConfig, SystemSummary};

use crate::kernel::{KernelError, VerifyError};
use crate::tiling::{DramCheckFn, DramSetupFn, WorkingSet};

/// Writes one cluster's share of a system kernel's input data into that
/// cluster's TCDM (the unbounded regime replicates the input).
pub type SystemSetupFn = Box<dyn Fn(u32, &mut Tcdm) -> Result<(), MemError> + Send + Sync>;
/// Checks one cluster's TCDM against the kernel's golden model.
pub type SystemCheckFn = Box<dyn Fn(u32, &Tcdm) -> Result<(), VerifyError> + Send + Sync>;

/// A runnable unbounded-regime system kernel: per-cluster per-hart
/// programs plus per-cluster data setup and verification.
pub struct SystemKernel {
    name: String,
    programs: Vec<Vec<Program>>,
    flops: u64,
    setup: SystemSetupFn,
    check: SystemCheckFn,
}

impl SystemKernel {
    /// Assembles a system kernel from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `programs` is empty or ragged.
    #[must_use]
    pub(crate) fn new(
        name: String,
        programs: Vec<Vec<Program>>,
        flops: u64,
        setup: SystemSetupFn,
        check: SystemCheckFn,
    ) -> Self {
        assert!(!programs.is_empty(), "a system kernel has clusters");
        let harts = programs[0].len();
        assert!(
            harts >= 1 && programs.iter().all(|p| p.len() == harts),
            "every cluster partitions over the same harts"
        );
        for cluster in &programs {
            crate::debug_lint_harts(&name, cluster);
        }
        SystemKernel {
            name,
            programs,
            flops,
            setup,
            check,
        }
    }

    /// The kernel's display name (e.g. `"box3d1r/Chaining+ m2x4"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clusters the kernel is partitioned over.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.programs.len()
    }

    /// Harts per cluster.
    #[must_use]
    pub fn harts_per_cluster(&self) -> usize {
        self.programs[0].len()
    }

    /// The per-cluster per-hart programs — the surface external
    /// verifiers (the `lint_sweep` CI bin) lint.
    #[must_use]
    pub fn programs(&self) -> &[Vec<Program>] {
        &self.programs
    }

    /// Double-precision flops the whole problem performs.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Runs the kernel on a system of `num_clusters()` clusters of
    /// `harts_per_cluster()` cores each, verifying every cluster's TCDM
    /// image afterwards.
    ///
    /// # Errors
    ///
    /// System simulation errors, setup errors and verification
    /// mismatches are all reported as [`KernelError`].
    pub fn run(&self, cfg: CoreConfig, max_cycles: u64) -> Result<SystemKernelRun, KernelError> {
        self.run_with(cfg, max_cycles, |b| b)
    }

    /// [`SystemKernel::run`] with the [`SystemBuilder`] passed through
    /// `configure` before it builds (scheduling mode, tracer, watchdog).
    /// `|b| b` is exactly `run`; `SchedMode::Event` must be cycle- and
    /// stats-identical to the default dense mode (pinned by the
    /// scheduler differential tests).
    ///
    /// # Errors
    ///
    /// See [`SystemKernel::run`].
    pub fn run_with(
        &self,
        cfg: CoreConfig,
        max_cycles: u64,
        configure: impl FnOnce(SystemBuilder) -> SystemBuilder,
    ) -> Result<SystemKernelRun, KernelError> {
        let scfg = SystemConfig::new(self.num_clusters() as u32, self.harts_per_cluster() as u32)
            .with_cluster(ClusterConfig::new(self.harts_per_cluster() as u32).with_core(cfg));
        let stages = self.programs.iter().map(|p| vec![p.clone()]).collect();
        let mut system = configure(SystemBuilder::new(scfg, stages)).build();
        for c in 0..self.num_clusters() {
            (self.setup)(c as u32, system.cluster_mut(c).tcdm_mut())?;
        }
        let summary = system.run(max_cycles)?;
        for c in 0..self.num_clusters() {
            (self.check)(c as u32, system.cluster(c).tcdm())?;
        }
        Ok(SystemKernelRun { summary })
    }
}

impl std::fmt::Debug for SystemKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SystemKernel")
            .field("name", &self.name)
            .field("clusters", &self.num_clusters())
            .field("harts_per_cluster", &self.harts_per_cluster())
            .finish_non_exhaustive()
    }
}

/// The outcome of a verified system-kernel run.
#[derive(Debug, Clone)]
pub struct SystemKernelRun {
    /// The system's aggregated summary.
    pub summary: SystemSummary,
}

impl SystemKernelRun {
    /// Sum of each hart's *measured-region* counters across all
    /// clusters, with `cycles` set to the longest per-hart measured
    /// region — the multi-hart analogue of
    /// [`sc_core::RunSummary::measured`].
    ///
    /// Harts that did no measured work (surplus harts with an empty
    /// slab never open a region) are excluded, so an 8-hart run over a
    /// 4-plane grid is not skewed by idle harts' whole-run counters;
    /// only when *no* hart marked a region does this fall back to
    /// whole-run counters for every hart.
    #[must_use]
    pub fn measured(&self) -> PerfCounters {
        let any_region = self
            .summary
            .per_cluster
            .iter()
            .flat_map(|c| &c.per_core)
            .any(|c| c.region.is_some());
        let mut total = PerfCounters::new();
        let mut max_cycles = 0;
        for core in self.summary.per_cluster.iter().flat_map(|c| &c.per_core) {
            if any_region && core.region.is_none() {
                continue;
            }
            let m = core.measured();
            total.accumulate(m);
            max_cycles = max_cycles.max(m.cycles);
        }
        total.cycles = max_cycles;
        total
    }
}

/// A kernel tiled through capacity-bounded per-cluster TCDMs on a
/// multi-cluster system: per-cluster stage sequences (tiles + epilogue),
/// the shared background-memory data closures, and the TCDM geometry the
/// tiles were sized for.
pub struct TiledSystemKernel {
    name: String,
    tcdm: TcdmConfig,
    stages: Vec<Vec<Vec<Program>>>,
    harts_per_cluster: u32,
    flops: u64,
    working_set: WorkingSet,
    setup: DramSetupFn,
    check: DramCheckFn,
}

impl TiledSystemKernel {
    /// Assembles a tiled system kernel from its parts.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty or any cluster has no stages.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        name: String,
        tcdm: TcdmConfig,
        stages: Vec<Vec<Vec<Program>>>,
        harts_per_cluster: u32,
        flops: u64,
        working_set: WorkingSet,
        setup: DramSetupFn,
        check: DramCheckFn,
    ) -> Self {
        assert!(!stages.is_empty(), "a tiled system kernel has clusters");
        assert!(
            stages.iter().all(|s| !s.is_empty()),
            "every cluster has at least one stage"
        );
        for cluster in &stages {
            for stage in cluster {
                crate::debug_lint_harts(&name, stage);
            }
        }
        TiledSystemKernel {
            name,
            tcdm,
            stages,
            harts_per_cluster,
            flops,
            working_set,
            setup,
            check,
        }
    }

    /// The kernel's display name (e.g. `"box3d1r/Chaining+ m2x4 tiled"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Clusters the kernel is partitioned over.
    #[must_use]
    pub fn num_clusters(&self) -> usize {
        self.stages.len()
    }

    /// Harts per cluster.
    #[must_use]
    pub fn harts_per_cluster(&self) -> u32 {
        self.harts_per_cluster
    }

    /// Total compute tiles across all clusters (epilogues excluded).
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.stages.iter().map(|s| s.len().saturating_sub(1)).sum()
    }

    /// Every cluster's full stage sequence (tiles + epilogue) — the
    /// surface external verifiers (the `lint_sweep` CI bin) lint.
    #[must_use]
    pub fn stages(&self) -> &[Vec<Vec<Program>>] {
        &self.stages
    }

    /// The capacity-capped TCDM geometry the tiles were planned for.
    #[must_use]
    pub fn tcdm_config(&self) -> TcdmConfig {
        self.tcdm
    }

    /// The combined background-memory working set of every cluster's
    /// plan (footprints union — the shared coefficient table counts
    /// once; traffic adds up). Size the shared L2 against it to
    /// deliberately over- or under-fit.
    #[must_use]
    pub fn working_set(&self) -> &WorkingSet {
        &self.working_set
    }

    /// Double-precision flops the whole problem performs.
    #[must_use]
    pub fn flops(&self) -> u64 {
        self.flops
    }

    /// Runs every cluster's tile pipeline on a DMA-equipped system over
    /// the given shared L2, verifying the background-memory image
    /// afterwards. The `cfg.tcdm` geometry is overridden by the
    /// planner's capacity-capped one; the background store uses
    /// `dram_cfg`'s allocation cap (the DMA engines pay the *L2's*
    /// timing, and the refill channel the L2's refill timing).
    ///
    /// # Errors
    ///
    /// System/DMA simulation errors, setup errors and verification
    /// mismatches are all reported as [`KernelError`].
    pub fn run(
        &self,
        cfg: CoreConfig,
        l2_cfg: L2Config,
        dram_cfg: DramConfig,
        max_cycles: u64,
    ) -> Result<TiledSystemRun, KernelError> {
        self.run_with(cfg, l2_cfg, dram_cfg, max_cycles, |b| b)
    }

    /// [`TiledSystemKernel::run`] with the [`SystemBuilder`] passed
    /// through `configure` before it builds: the scheduling mode, a
    /// trace subscription (every hart, DMA engine, TCDM and the shared
    /// L2 emit onto it for the whole run) or a watchdog. `|b| b` is
    /// exactly `run`; an event-driven run, traced or not, must be
    /// cycle- and stats-identical to a dense one and export the same
    /// timeline and sampled counters (pinned by the scheduler and
    /// trace-identity tests).
    ///
    /// # Errors
    ///
    /// See [`TiledSystemKernel::run`].
    pub fn run_with(
        &self,
        cfg: CoreConfig,
        l2_cfg: L2Config,
        dram_cfg: DramConfig,
        max_cycles: u64,
        configure: impl FnOnce(SystemBuilder) -> SystemBuilder,
    ) -> Result<TiledSystemRun, KernelError> {
        let core_cfg = CoreConfig {
            tcdm: self.tcdm,
            ..cfg
        };
        let scfg = SystemConfig::new(self.num_clusters() as u32, self.harts_per_cluster)
            .with_cluster(ClusterConfig::new(self.harts_per_cluster).with_core(core_cfg))
            .with_l2(l2_cfg);
        let mut dram = Dram::new(dram_cfg);
        (self.setup)(&mut dram)?;
        let mut system =
            configure(SystemBuilder::new(scfg, self.stages.clone()).dram(dram)).build();
        let summary = system.run(max_cycles)?;
        debug_assert!(
            (0..self.num_clusters())
                .all(|c| system.cluster(c).dma_engine().is_some_and(|e| e.is_idle())),
            "every epilogue must drain its DMA queue"
        );
        (self.check)(system.dram().expect("dram attached"))?;
        Ok(TiledSystemRun {
            summary,
            num_tiles: self.num_tiles(),
        })
    }
}

impl std::fmt::Debug for TiledSystemKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TiledSystemKernel")
            .field("name", &self.name)
            .field("clusters", &self.num_clusters())
            .field("harts_per_cluster", &self.harts_per_cluster)
            .field("tiles", &self.num_tiles())
            .finish_non_exhaustive()
    }
}

/// The outcome of a verified tiled system run.
#[derive(Debug, Clone)]
pub struct TiledSystemRun {
    /// The system's aggregated summary (cycles span the whole pipeline;
    /// per-cluster `dma` entries carry traffic and overlap metrics, the
    /// `l2` entry the shared-level contention).
    pub summary: SystemSummary,
    /// Compute tiles the pipelines executed across all clusters.
    pub num_tiles: usize,
}
