//! The core model and the single-core simulator driver.
//!
//! [`Core`] is one Snitch-like compute core — integer pipeline, FP
//! subsystem, CSRs, counters — stepped cycle by cycle against an
//! *externally owned* [`Tcdm`]. [`Simulator`] pairs one core with its own
//! TCDM and keeps the original single-core API; `sc-cluster` instantiates
//! many cores over one shared TCDM.
//!
//! ## Cycle structure
//!
//! Each simulated cycle runs four phases:
//!
//! 1. **FP writeback** — one completion commits (chained pushes may hold).
//! 2. **Issue** — the FP issue stage tries the next sequencer instruction;
//!    then the integer core executes one instruction (pseudo dual-issue:
//!    FP instructions are *offloaded* into the sequencer queue in a single
//!    integer cycle, becoming issueable from the next cycle).
//! 3. **Memory** — the integer LSU, the FP LSU (shared first port, integer
//!    priority) and every stream data mover place requests; the banked
//!    TCDM arbitrates; grants move data.
//! 4. **Advance** — pipelines shift, landed stream data becomes poppable.
//!
//! A lone core drives all four phases through [`Core::step`]. In a
//! cluster the memory phase must see *every* core's requests at once, so
//! the phases are also exposed separately: [`Core::begin_cycle`] (1+2),
//! [`Core::mem_requests`]/[`Core::apply_grants`] (3) and
//! [`Core::end_cycle`] (4). `Core::step` is exactly the composition of
//! those four calls, which is what makes a 1-core cluster cycle-identical
//! to the plain simulator.
//!
//! ## Synchronising instructions
//!
//! Writes to the chaining CSR wait for the FP subsystem to drain; writes to
//! the SSR-enable CSR and the region-marker CSR additionally wait for all
//! streams to complete; `scfgwi` to a stream *pointer* register waits only
//! until that data mover has finished its previous stream. `ecall` waits
//! for full quiescence. These rules make the extension CSRs safe without
//! modelling Snitch's explicit fence idioms.
//!
//! ## Cluster primitives
//!
//! * Reading `mhartid` (0xF14) returns the core's hart ID; reading the
//!   custom cluster-size CSR (0x7C9) returns the number of harts; the
//!   cluster-id CSR (0x7C7) and system-size CSR (0x7C8) place the core
//!   within a multi-cluster system.
//! * Writing the barrier CSR (0x7C5) first waits for the FP subsystem to
//!   drain and all streams to complete (like the other synchronising
//!   CSRs), then parks the hart in a barrier-wait state. The owner of the
//!   cores — the cluster, or [`Simulator`] for the 1-hart case — releases
//!   all waiting harts in the same cycle once every active hart has
//!   arrived; the CSR read value delivered on release is the number of
//!   barrier episodes completed before this one. The system barrier CSR
//!   (0x7C6) works the same way across every cluster of a system.

use sc_isa::{csr, CsrFile, CsrOp, CsrSrc, FpReg, Instruction, IntReg, LoadOp, Program, StoreOp};
use sc_mem::{AccessKind, PortId, Request, Tcdm};
use sc_perf::{Leaf, PhaseMark};
use sc_ssr::CfgAddr;
use sc_trace::{ResourceState, Tracer, Track};

use crate::config::CoreConfig;
use crate::counters::{PerfCounters, StallCause};
use crate::error::SimError;
use crate::fp_subsys::{FpSubsystem, IssueOutcome};
use crate::sched::Wake;
use crate::sequencer::{OffloadedFp, SeqItem};
use crate::trace::{FpSlot, IssueTrace, TraceCycle};

/// Result of a completed simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Counters over the whole run.
    pub counters: PerfCounters,
    /// Counters over the marked region (between PERF_REGION writes), if
    /// the program marked one.
    pub region: Option<PerfCounters>,
    /// Issue trace (empty unless [`CoreConfig::trace`] was set).
    pub trace: IssueTrace,
    /// Offload-queue high-water mark (sizing diagnostics).
    pub offload_queue_high_water: usize,
    /// Phase boundaries the program marked by writing the `PHASE_MARK`
    /// CSR (0x7CA), each with a timestamped attribution snapshot —
    /// `sc_perf::segment_phases` turns them into prologue / steady-state
    /// / drain profiles. Empty unless the kernel emits markers.
    pub phase_marks: Vec<PhaseMark>,
}

impl RunSummary {
    /// Counters of the measured region, falling back to the whole run.
    #[must_use]
    pub fn measured(&self) -> &PerfCounters {
        self.region.as_ref().unwrap_or(&self.counters)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IntState {
    Running,
    /// Fixed bubbles (branch penalty, load writeback).
    Bubble(u32),
    /// Integer load waiting for its TCDM grant.
    LoadWait {
        op: LoadOp,
        rd: IntReg,
        addr: u32,
    },
    /// Integer store waiting for its TCDM grant.
    StoreWait {
        op: StoreOp,
        addr: u32,
        value: u32,
    },
    /// Parked on the cluster barrier CSR; released externally.
    BarrierWait {
        rd: IntReg,
    },
    /// Parked on the inter-cluster (system) barrier CSR; released
    /// externally once every active hart in the whole system arrived.
    SystemBarrierWait {
        rd: IntReg,
    },
    /// Parked on the blocking DMA-completion CSR (`DMA_WAIT`); released
    /// externally once the engine's wrapping completion counter reaches
    /// `target`.
    DmaWait {
        rd: IntReg,
        target: u32,
    },
    /// `ecall` executed; waiting for quiescence.
    Halting,
    Halted,
}

/// What the memory phase queued this cycle (bookkeeping between
/// [`Core::mem_requests`] and [`Core::apply_grants`]).
#[derive(Debug, Clone, Copy, Default)]
struct MemPlan {
    int_req: bool,
    fp_lsu: bool,
    n_dm: usize,
}

/// A DMA transfer descriptor, snapshotted from the DMA CSRs when a
/// program rings the `DMA_START` doorbell.
///
/// The core itself does not own a DMA engine: commands accumulate in a
/// per-core outbox the cluster drains each cycle
/// ([`Core::take_dma_commands`]) into the shared engine, and the engine's
/// status is mirrored back ([`Core::set_dma_status`]) for the status
/// CSRs to read. On a lone [`Simulator`] the outbox is never drained and
/// the doorbell is inert (status reads stay zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCommand {
    /// Byte address on the background-memory (Dram) side.
    pub src: u32,
    /// Byte address on the TCDM side.
    pub dst: u32,
    /// Bytes per row.
    pub len: u32,
    /// Byte stride between row starts on the Dram side.
    pub src_stride: u32,
    /// Byte stride between row starts on the TCDM side.
    pub dst_stride: u32,
    /// Row count (0 is treated as 1).
    pub reps: u32,
    /// Direction: `true` = Dram → TCDM.
    pub to_tcdm: bool,
}

/// One steppable compute core, memory-system agnostic.
///
/// The core owns everything *private* to a hart — register files, FP
/// subsystem, sequencer, CSRs, counters — but not the TCDM, which is
/// passed into each cycle. See the module docs for the phase protocol.
///
/// # Examples
///
/// ```
/// use sc_core::{Core, CoreConfig};
/// use sc_isa::{IntReg, ProgramBuilder};
/// use sc_mem::Tcdm;
///
/// let mut b = ProgramBuilder::new();
/// b.li(IntReg::new(5), 7);
/// b.ecall();
/// let cfg = CoreConfig::new();
/// let mut tcdm = Tcdm::new(cfg.tcdm);
/// let mut core = Core::new(cfg, b.build()?);
/// while !core.is_halted() {
///     core.step(&mut tcdm)?;
/// }
/// assert_eq!(core.int_reg(IntReg::new(5)), 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    program: Program,
    fp: FpSubsystem,
    regs: [u32; 32],
    /// Integer registers an in-flight FP instruction will write (bit `i`
    /// = `x{i}`; comparisons and fp→int moves).
    int_pending: u32,
    pc: u32,
    state: IntState,
    csrs: CsrFile,
    counters: PerfCounters,
    region_start: Option<PerfCounters>,
    region: Option<PerfCounters>,
    trace: IssueTrace,
    hart_id: u32,
    num_harts: u32,
    cluster_id: u32,
    num_clusters: u32,
    port_base: u8,
    barriers_completed: u32,
    system_barriers_completed: u32,
    plan: MemPlan,
    dm_plan: Vec<u8>,
    trace_int_slot: Option<Instruction>,
    trace_fp_slot: FpSlot,
    dma_outbox: Vec<DmaCommand>,
    /// Cumulative doorbell rings (the `DMA_START` read-back value — the
    /// outbox itself is drained by the cluster every cycle).
    dma_rung: u32,
    dma_outstanding: u32,
    dma_completed: u32,
    phase_marks: Vec<PhaseMark>,
    tracer: Tracer,
    track: Track,
    /// [`Core::step`]'s reused request and grant buffers.
    step_requests: Vec<Request>,
    step_grants: Vec<bool>,
}

impl Core {
    /// Creates a lone core (hart 0 of 1) for `program` under `cfg`.
    #[must_use]
    pub fn new(cfg: CoreConfig, program: Program) -> Self {
        Self::with_hart(cfg, program, 0, 1)
    }

    /// Creates hart `hart_id` of a `num_harts`-core cluster.
    ///
    /// The core's TCDM requests use the port namespace
    /// `hart_id * (1 + num_ssrs) ..`: first the LSU port, then one port
    /// per stream data mover.
    ///
    /// # Panics
    ///
    /// Panics if `hart_id >= num_harts` or the port namespace overflows
    /// the 8-bit port space.
    #[must_use]
    pub fn with_hart(cfg: CoreConfig, program: Program, hart_id: u32, num_harts: u32) -> Self {
        assert!(num_harts >= 1, "a cluster has at least one hart");
        assert!(
            hart_id < num_harts,
            "hart {hart_id} outside cluster of {num_harts}"
        );
        let ports_per_core = 1 + u32::from(cfg.num_ssrs);
        let port_base = hart_id * ports_per_core;
        assert!(
            port_base + ports_per_core <= 256,
            "port namespace overflow: hart {hart_id} with {ports_per_core} ports/core"
        );
        Core {
            fp: FpSubsystem::with_port_base(&cfg, port_base as u8),
            program,
            cfg,
            regs: [0; 32],
            int_pending: 0,
            pc: 0,
            state: IntState::Running,
            csrs: CsrFile::new(),
            counters: PerfCounters::new(),
            region_start: None,
            region: None,
            trace: IssueTrace::new(),
            hart_id,
            num_harts,
            cluster_id: 0,
            num_clusters: 1,
            port_base: port_base as u8,
            barriers_completed: 0,
            system_barriers_completed: 0,
            plan: MemPlan::default(),
            dm_plan: Vec::new(),
            trace_int_slot: None,
            trace_fp_slot: FpSlot::Idle,
            dma_outbox: Vec::new(),
            dma_rung: 0,
            dma_outstanding: 0,
            dma_completed: 0,
            phase_marks: Vec::new(),
            tracer: Tracer::off(),
            track: Track::new(0, 0),
            step_requests: Vec::new(),
            step_grants: Vec::new(),
        }
    }

    /// Subscribes the core to a trace sink. Each cycle becomes one state
    /// sample on `track` — `fp-issue`, a stall-cause label, `int`,
    /// `barrier`, … — which the sink coalesces into occupancy spans;
    /// chained-FIFO occupancy becomes a counter series.
    pub fn set_tracer(&mut self, tracer: Tracer, track: Track) {
        if tracer.is_on() {
            tracer.name_thread(track, &format!("hart{}", self.hart_id));
        }
        self.tracer = tracer;
        self.track = track;
    }

    /// This core's hart ID.
    #[must_use]
    pub fn hart_id(&self) -> u32 {
        self.hart_id
    }

    /// Number of harts in the cluster this core belongs to.
    #[must_use]
    pub fn num_harts(&self) -> u32 {
        self.num_harts
    }

    /// This core's cluster ID within the system (0 outside a system).
    #[must_use]
    pub fn cluster_id(&self) -> u32 {
        self.cluster_id
    }

    /// Number of clusters in the system (1 outside a system).
    #[must_use]
    pub fn num_clusters(&self) -> u32 {
        self.num_clusters
    }

    /// Places the core inside a multi-cluster system: the values the
    /// `CLUSTER_ID` (0x7C7) and `SYSTEM_NUM_CLUSTERS` (0x7C8) CSRs read.
    /// Called by the cluster when the cluster itself is embedded in a
    /// system; a stand-alone core is cluster 0 of 1.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_id >= num_clusters`.
    pub fn set_cluster_pos(&mut self, cluster_id: u32, num_clusters: u32) {
        assert!(
            cluster_id < num_clusters,
            "cluster {cluster_id} outside system of {num_clusters}"
        );
        self.cluster_id = cluster_id;
        self.num_clusters = num_clusters;
    }

    /// First TCDM port of this core's namespace.
    #[must_use]
    pub fn port_base(&self) -> u8 {
        self.port_base
    }

    /// Ports this core occupies at the TCDM crossbar (LSU + movers).
    #[must_use]
    pub fn ports_per_core(&self) -> u8 {
        1 + self.cfg.num_ssrs
    }

    /// The configuration this core was built with.
    #[must_use]
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Reads an integer register.
    #[must_use]
    pub fn int_reg(&self, reg: IntReg) -> u32 {
        self.regs[reg.index() as usize]
    }

    /// Writes an integer register (argument passing in tests).
    pub fn set_int_reg(&mut self, reg: IntReg, value: u32) {
        if !reg.is_zero() {
            self.regs[reg.index() as usize] = value;
        }
    }

    /// Reads an FP register as a double.
    #[must_use]
    pub fn fp_reg(&self, reg: FpReg) -> f64 {
        self.fp.reg(reg)
    }

    /// Writes an FP register (test setup).
    pub fn set_fp_reg(&mut self, reg: FpReg, value: f64) {
        self.fp.set_reg(reg, value);
    }

    /// The FP subsystem (diagnostics).
    #[must_use]
    pub fn fp_subsystem(&self) -> &FpSubsystem {
        &self.fp
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &PerfCounters {
        &self.counters
    }

    /// Whether the core has executed `ecall` and fully quiesced.
    #[must_use]
    #[inline]
    pub fn is_halted(&self) -> bool {
        matches!(self.state, IntState::Halted)
    }

    /// Whether the core is parked on the cluster barrier.
    #[must_use]
    pub fn in_barrier(&self) -> bool {
        matches!(self.state, IntState::BarrierWait { .. })
    }

    /// Whether the core is parked on the inter-cluster (system) barrier.
    #[must_use]
    pub fn in_system_barrier(&self) -> bool {
        matches!(self.state, IntState::SystemBarrierWait { .. })
    }

    /// Barrier episodes this core has completed.
    #[must_use]
    pub fn barriers_completed(&self) -> u32 {
        self.barriers_completed
    }

    /// System-barrier episodes this core has completed.
    #[must_use]
    pub fn system_barriers_completed(&self) -> u32 {
        self.system_barriers_completed
    }

    /// A short label for the integer pipeline's current state (hang
    /// diagnostics).
    #[must_use]
    pub fn state_label(&self) -> &'static str {
        match self.state {
            IntState::Running => "running",
            IntState::Bubble(_) => "bubble",
            IntState::LoadWait { .. } => "load-wait",
            IntState::StoreWait { .. } => "store-wait",
            IntState::BarrierWait { .. } => "barrier-wait",
            IntState::SystemBarrierWait { .. } => "sys-barrier-wait",
            IntState::DmaWait { .. } => "dma-wait",
            IntState::Halting => "halting",
            IntState::Halted => "halted",
        }
    }

    /// The earliest future cycle at which stepping this core could do
    /// anything beyond incrementing its cycle counter. A halted core
    /// never acts again; a core parked on a barrier or the blocking
    /// DMA-wait CSR is drained by construction (parking requires FP
    /// quiescence) and acts only when externally released; everything
    /// else — including a tracing core, whose per-cycle trace entries
    /// the owner cannot reproduce in closed form — needs dense stepping.
    #[must_use]
    pub fn wake(&self) -> Wake {
        match self.state {
            IntState::Halted => Wake::Idle,
            _ if self.cfg.trace => Wake::EveryCycle,
            IntState::BarrierWait { .. }
            | IntState::SystemBarrierWait { .. }
            | IntState::DmaWait { .. } => Wake::Idle,
            _ => Wake::EveryCycle,
        }
    }

    /// Bulk-applies `cycles` idle cycles to a parked core: exactly the
    /// bookkeeping that many dense steps would have performed. A parked
    /// hart is drained (parking requires FP quiescence), so a dense
    /// cycle mutates nothing but the cycle counter.
    ///
    /// # Panics
    ///
    /// Debug-asserts the core actually reported an idle wake.
    #[inline]
    pub fn skip_cycles(&mut self, cycles: u64) {
        debug_assert!(
            matches!(self.wake(), Wake::Idle) && !self.is_halted(),
            "skip_cycles on a core that needs dense stepping"
        );
        // The attribution a dense loop would have recorded: a parked
        // hart is drained, so every skipped cycle classifies by its wait
        // state (`begin_cycle` would land in the same leaf each time).
        let leaf = match self.state {
            IntState::BarrierWait { .. } => Leaf::Barrier,
            IntState::SystemBarrierWait { .. } => Leaf::SystemBarrier,
            IntState::DmaWait { .. } => Leaf::DmaWait,
            _ => Leaf::Park,
        };
        self.counters.attr.record_n(leaf, cycles);
        self.counters.cycles += cycles;
    }

    /// A monotone progress signature: grows whenever architectural state
    /// retires anywhere in the hart. Watchdogs compare successive
    /// values — a frozen signature while harts are unfinished is a hang.
    #[must_use]
    pub fn progress_signature(&self) -> u64 {
        self.counters.int_retired
            + self.counters.fp_issued
            + self.counters.ssr_elements
            + u64::from(self.barriers_completed)
            + u64::from(self.system_barriers_completed)
    }

    /// Appends this hart's hang-diagnosis view to `out` under `path`:
    /// the integer pipeline's wait state, then every stateful
    /// FP-subsystem resource (held writebacks, chained FIFOs, streams).
    pub fn diagnose(&self, path: &str, out: &mut Vec<ResourceState>) {
        let parked = matches!(
            self.state,
            IntState::LoadWait { .. }
                | IntState::StoreWait { .. }
                | IntState::BarrierWait { .. }
                | IntState::SystemBarrierWait { .. }
                | IntState::DmaWait { .. }
        );
        let p = format!("{path}.int");
        out.push(if parked {
            ResourceState::blocked(p, self.state_label())
        } else {
            ResourceState::info(p, self.state_label())
        });
        self.fp.diagnose(path, out);
    }

    /// Releases a core parked on the barrier: the barrier-CSR write
    /// retires, its destination register receiving the number of barrier
    /// episodes completed before this one. No-op if the core is not
    /// waiting. Called by the cluster (or [`Simulator`], immediately)
    /// once every active hart has arrived.
    pub fn release_barrier(&mut self) {
        if let IntState::BarrierWait { rd } = self.state {
            let completed = self.barriers_completed;
            self.barriers_completed += 1;
            self.write_reg(rd, completed);
            self.pc = self.pc.wrapping_add(4);
            self.counters.int_retired += 1;
            self.counters.fetches += 1;
            self.state = IntState::Running;
            self.tracer.instant(self.track, "barrier-release");
        }
    }

    /// Releases a core parked on the system barrier: the barrier-CSR
    /// write retires, its destination register receiving the number of
    /// system-barrier episodes completed before this one. No-op if the
    /// core is not waiting. Called by the system (or by the cluster /
    /// [`Simulator`] when they are the whole system) once every active
    /// hart of every cluster has arrived.
    pub fn release_system_barrier(&mut self) {
        if let IntState::SystemBarrierWait { rd } = self.state {
            let completed = self.system_barriers_completed;
            self.system_barriers_completed += 1;
            self.write_reg(rd, completed);
            self.pc = self.pc.wrapping_add(4);
            self.counters.int_retired += 1;
            self.counters.fetches += 1;
            self.state = IntState::Running;
            self.tracer.instant(self.track, "sys-barrier-release");
        }
    }

    /// Whether the core is parked on the blocking DMA-wait CSR, and if
    /// so, the completion count it waits for. The owner compares the
    /// live engine counter with wrapping distance
    /// (`(completed - target) as i32 >= 0`) and releases via
    /// [`Core::release_dma_wait`].
    #[must_use]
    pub fn dma_wait_target(&self) -> Option<u32> {
        match self.state {
            IntState::DmaWait { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Releases a core parked on the blocking DMA-wait CSR: the write
    /// retires, its destination register receiving `completed` — the
    /// live completion count that satisfied the wait. No-op if the core
    /// is not waiting. Called by the cluster once the engine's counter
    /// reaches the target (or by [`Simulator`], immediately — a lone
    /// core's doorbell is inert, so there is nothing to wait for).
    pub fn release_dma_wait(&mut self, completed: u32) {
        if let IntState::DmaWait { rd, .. } = self.state {
            self.dma_completed = completed;
            self.write_reg(rd, completed);
            self.pc = self.pc.wrapping_add(4);
            self.counters.int_retired += 1;
            self.counters.fetches += 1;
            self.state = IntState::Running;
            self.tracer.instant(self.track, "dma-wait-release");
        }
    }

    /// Drains the DMA commands rung since the last drain (cluster use).
    /// The outbox keeps its capacity, so ringing a doorbell does not
    /// allocate once the outbox has grown.
    pub fn take_dma_commands(&mut self) -> std::vec::Drain<'_, DmaCommand> {
        self.dma_outbox.drain(..)
    }

    /// Whether any DMA doorbell rings are waiting to be drained.
    #[must_use]
    pub fn has_dma_commands(&self) -> bool {
        !self.dma_outbox.is_empty()
    }

    /// Mirrors the shared DMA engine's state into this core, making the
    /// `DMA_STATUS` (outstanding) and `DMA_COMPLETED` (monotonic) CSRs
    /// readable. The cluster calls this at the top of every cycle.
    pub fn set_dma_status(&mut self, outstanding: u32, completed: u32) {
        self.dma_outstanding = outstanding;
        self.dma_completed = completed;
    }

    /// Replaces the program of a *halted* core and restarts execution at
    /// its first instruction, keeping all architectural state — register
    /// files, CSRs, counters, barrier episode count — intact. This
    /// models a software outer loop (e.g. the double-buffered tile loop)
    /// jumping back to its head, without charging refetch bubbles.
    ///
    /// # Panics
    ///
    /// Panics unless the core has halted (post-`ecall` quiescence
    /// guarantees the FP subsystem is drained and all streams are done,
    /// so restarting is always architecturally clean).
    pub fn load_program(&mut self, program: Program) {
        assert!(
            self.is_halted(),
            "load_program requires a halted (quiesced) core"
        );
        self.program = program;
        self.pc = 0;
        self.state = IntState::Running;
    }

    /// Phase boundaries marked so far (writes to the `PHASE_MARK` CSR),
    /// in program order. Survives [`Core::load_program`], so a tile loop
    /// run as program stages accumulates one mark per stage.
    #[must_use]
    pub fn phase_marks(&self) -> &[PhaseMark] {
        &self.phase_marks
    }

    /// The run summary as of now (cheap apart from cloning the trace).
    #[must_use]
    pub fn summary(&self) -> RunSummary {
        RunSummary {
            cycles: self.counters.cycles,
            counters: self.counters,
            region: self.region,
            trace: self.trace.clone(),
            offload_queue_high_water: self.fp.sequencer().queue_high_water(),
            phase_marks: self.phase_marks.clone(),
        }
    }

    /// Executes one full cycle against `tcdm`, running the memory phase
    /// (arbitration included) locally. Exactly equivalent to
    /// `begin_cycle`; `mem_requests`; `arbitrate`; `apply_grants`;
    /// `end_cycle`.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]: strict-mode misuse, memory faults, `ebreak`.
    pub fn step(&mut self, tcdm: &mut Tcdm) -> Result<(), SimError> {
        self.begin_cycle()?;
        // The cycle's request and grant buffers are owned scratch,
        // cleared and reused so a step never allocates.
        let mut requests = std::mem::take(&mut self.step_requests);
        let mut grants = std::mem::take(&mut self.step_grants);
        requests.clear();
        self.mem_requests(&mut requests);
        tcdm.arbitrate_into(&requests, &mut grants);
        let applied = self.apply_grants(&grants, tcdm);
        self.step_requests = requests;
        self.step_grants = grants;
        applied?;
        self.end_cycle();
        Ok(())
    }

    /// Phases 1–2: FP writeback, FP issue, integer execute.
    ///
    /// # Errors
    ///
    /// See [`Core::step`].
    pub fn begin_cycle(&mut self) -> Result<(), SimError> {
        // Phase 1: FP writeback (int-register results apply immediately).
        if let Some(wb) = self.fp.writeback(&mut self.counters) {
            if !wb.reg.is_zero() {
                self.regs[wb.reg.index() as usize] = wb.value;
            }
            self.int_pending &= !(1 << wb.reg.index());
        }

        // Phase 2a: FP issue.
        let fp_outcome = self.fp.try_issue(&mut self.counters)?;

        // Phase 2b: integer execute.
        let sync_before = self.counters.stalls_of(StallCause::Sync);
        let int_slot = self.int_step()?;
        let sync_retry = self.counters.stalls_of(StallCause::Sync) > sync_before;

        // Top-down attribution: exactly one leaf per cycle, chosen here
        // (before `end_cycle` increments the cycle counter) so the sum
        // of leaves always partitions the cycle count. The FP issue slot
        // takes precedence — it carries the paper's headline effects —
        // and an idle slot is explained by the integer pipeline's state.
        let leaf = match fp_outcome {
            IssueOutcome::Issued(_) => Leaf::Retired,
            IssueOutcome::Stalled(cause) => match cause {
                StallCause::NoInstruction => Leaf::NoInst,
                StallCause::RawHazard => Leaf::RawHazard,
                StallCause::WawHazard => Leaf::WawHazard,
                StallCause::ChainEmpty => Leaf::ChainEmpty,
                StallCause::ChainFull => Leaf::ChainFull,
                StallCause::SsrStarve => Leaf::SsrStarve,
                StallCause::SsrFull => Leaf::SsrFull,
                StallCause::UnitBusy => Leaf::UnitBusy,
                StallCause::LsuBusy => Leaf::LsuBusy,
                StallCause::Sync => Leaf::Drain,
            },
            IssueOutcome::Idle => match self.state {
                IntState::BarrierWait { .. } => Leaf::Barrier,
                IntState::SystemBarrierWait { .. } => Leaf::SystemBarrier,
                IntState::DmaWait { .. } => Leaf::DmaWait,
                IntState::LoadWait { .. } | IntState::StoreWait { .. } => Leaf::LoadStore,
                IntState::Halting | IntState::Halted => Leaf::Park,
                IntState::Running | IntState::Bubble(_) => {
                    if int_slot.is_some() {
                        Leaf::Retired
                    } else if sync_retry {
                        // A synchronising CSR retrying against an
                        // FP-subsystem drain with an otherwise idle slot.
                        Leaf::Drain
                    } else {
                        Leaf::Frontend
                    }
                }
            },
        };
        self.counters.attr.record(leaf);

        if self.tracer.is_on() {
            let label = match fp_outcome {
                IssueOutcome::Issued(_) => "fp-issue",
                IssueOutcome::Stalled(c) => c.label(),
                IssueOutcome::Idle => match self.state {
                    IntState::BarrierWait { .. } => "barrier",
                    IntState::SystemBarrierWait { .. } => "sys-barrier",
                    IntState::DmaWait { .. } => "dma-wait",
                    IntState::LoadWait { .. } | IntState::StoreWait { .. } => "mem-wait",
                    IntState::Halting | IntState::Halted => "idle",
                    IntState::Running | IntState::Bubble(_) => {
                        if int_slot.is_some() {
                            "int"
                        } else {
                            "idle"
                        }
                    }
                },
            };
            self.tracer.state(self.track, label);
            self.tracer.counter(
                self.track,
                "chain-valid",
                u64::from(self.fp.chain().valid_bits().count_ones()),
            );
        }

        if self.cfg.trace {
            self.trace_int_slot = int_slot;
            self.trace_fp_slot = match fp_outcome {
                IssueOutcome::Issued(i) => FpSlot::Issued(i),
                IssueOutcome::Stalled(c) => FpSlot::Stalled(c),
                IssueOutcome::Idle => FpSlot::Idle,
            };
        }
        Ok(())
    }

    /// Phase 3a: appends this cycle's TCDM requests to `out`, ports
    /// already namespaced. The caller must pass the grant flags for
    /// exactly these requests (in order) to [`Core::apply_grants`].
    pub fn mem_requests(&mut self, out: &mut Vec<Request>) {
        self.plan = MemPlan::default();
        self.dm_plan.clear();
        // The first namespaced port carries at most one request: the
        // integer LSU has priority over the FP LSU (same physical port).
        match self.state {
            IntState::LoadWait { addr, .. } => {
                out.push(Request {
                    port: PortId(self.port_base),
                    addr,
                    kind: AccessKind::Read,
                });
                self.plan.int_req = true;
            }
            IntState::StoreWait { addr, .. } => {
                out.push(Request {
                    port: PortId(self.port_base),
                    addr,
                    kind: AccessKind::Write,
                });
                self.plan.int_req = true;
            }
            _ => {}
        }
        if !self.plan.int_req {
            if let Some(req) = self.fp.lsu_request() {
                out.push(req);
                self.plan.fp_lsu = true;
            }
        }
        for (dm, req) in self
            .fp
            .ssr()
            .movers()
            .filter_map(|m| m.request().map(|r| (m.index(), r)))
        {
            out.push(req);
            self.dm_plan.push(dm);
        }
        self.plan.n_dm = self.dm_plan.len();
    }

    /// Phase 3b: applies the arbitration outcome for the requests issued
    /// by [`Core::mem_requests`] this cycle. `grants` must be
    /// index-aligned with them. Granted requests move data through
    /// `tcdm`'s functional interface; denied stream requests retry next
    /// cycle. Per-core TCDM access/conflict counters update here.
    ///
    /// # Errors
    ///
    /// Functional memory errors (misaligned / out-of-bounds addresses).
    ///
    /// # Panics
    ///
    /// Panics if `grants` does not match the requests of this cycle.
    pub fn apply_grants(&mut self, grants: &[bool], tcdm: &mut Tcdm) -> Result<(), SimError> {
        let expected =
            usize::from(self.plan.int_req) + usize::from(self.plan.fp_lsu) + self.plan.n_dm;
        assert_eq!(
            grants.len(),
            expected,
            "grant flags must match this cycle's requests"
        );
        for granted in grants {
            if *granted {
                self.counters.tcdm_accesses += 1;
            } else {
                self.counters.tcdm_conflicts += 1;
            }
        }

        let mut idx = 0;
        if self.plan.int_req {
            if grants[idx] {
                match self.state {
                    IntState::LoadWait { op, rd, addr } => {
                        let value = self.int_load(op, addr, tcdm)?;
                        self.write_reg(rd, value);
                        // Data lands at end of cycle; one bubble before the
                        // dependent instruction can run (2-cycle load).
                        self.state = IntState::Bubble(1);
                    }
                    IntState::StoreWait { op, addr, value } => {
                        self.int_store(op, addr, value, tcdm)?;
                        self.state = IntState::Running;
                    }
                    _ => unreachable!(),
                }
            }
            idx += 1;
        } else if self.plan.fp_lsu {
            if grants[idx] {
                self.fp.lsu_grant(tcdm)?;
            }
            idx += 1;
        }

        for k in 0..self.plan.n_dm {
            let dm = self.dm_plan[k];
            if grants[idx + k] {
                self.fp.ssr_mut().mover_mut(dm).apply_grant(tcdm)?;
            } else {
                self.fp.ssr_mut().mover_mut(dm).note_denied();
            }
        }
        Ok(())
    }

    /// Phase 4: pipelines shift, landed stream data becomes poppable, and
    /// the cycle's bookkeeping (counters, trace) commits.
    pub fn end_cycle(&mut self) {
        self.fp.advance();
        self.counters.cycles += 1;
        self.counters.frep_replays = self.fp.sequencer().replayed();
        if self.cfg.trace {
            self.trace.push(TraceCycle {
                cycle: self.counters.cycles - 1,
                int_slot: self.trace_int_slot,
                fp_slot: std::mem::replace(&mut self.trace_fp_slot, FpSlot::Idle),
            });
            self.trace_int_slot = None;
        }
    }

    /// One integer-pipeline step. Returns the retired instruction, if any
    /// (for tracing).
    fn int_step(&mut self) -> Result<Option<Instruction>, SimError> {
        match self.state {
            IntState::Halted => return Ok(None),
            IntState::Bubble(n) => {
                self.state = if n <= 1 {
                    IntState::Running
                } else {
                    IntState::Bubble(n - 1)
                };
                return Ok(None);
            }
            IntState::LoadWait { .. }
            | IntState::StoreWait { .. }
            | IntState::BarrierWait { .. }
            | IntState::SystemBarrierWait { .. }
            | IntState::DmaWait { .. } => {
                // Loads/stores resolve in the memory phase; barrier and
                // DMA waits resolve externally via `release_barrier` /
                // `release_system_barrier` / `release_dma_wait`.
                return Ok(None);
            }
            IntState::Halting => {
                if self.quiescent()? {
                    self.state = IntState::Halted;
                }
                return Ok(None);
            }
            IntState::Running => {}
        }

        // Integer sources (and the destination) produced by in-flight
        // FP instructions (comparisons/moves) must be waited for. An
        // out-of-program pc has an empty mask and faults just below.
        if self.program.int_regs_at(self.pc) & self.int_pending != 0 {
            return Ok(None);
        }
        let inst = self
            .program
            .fetch(self.pc)
            .ok_or(SimError::FetchOutOfProgram { pc: self.pc })?;

        if inst.is_fp() {
            return self.offload_fp(inst);
        }

        match inst {
            Instruction::Frep {
                is_outer,
                max_rpt,
                n_instr,
                stagger_max,
                stagger_mask,
            } => {
                if !self.fp.sequencer().can_accept() {
                    return Ok(None);
                }
                let n_rep = self.reg(max_rpt).wrapping_add(1);
                self.fp.sequencer_mut().offload(SeqItem::Frep {
                    is_outer,
                    n_instr,
                    n_rep,
                    stagger_max,
                    stagger_mask,
                });
                self.retire(inst, 4)
            }
            Instruction::Scfgwi { rs1, imm } => {
                let addr = CfgAddr::from_imm(imm);
                // Pointer writes (affine arms at 24..=31, indirect arm at
                // 16) wait for the previous stream on this mover to
                // complete before re-arming.
                if (addr.reg >= 24 || addr.reg == 16)
                    && (addr.dm as usize) < self.fp.ssr().len()
                    && !self.fp.ssr().mover(addr.dm).is_done()
                {
                    return Ok(None);
                }
                let value = self.reg(rs1);
                self.fp.ssr_mut().write_cfg(addr, value)?;
                self.retire(inst, 4)
            }
            Instruction::Scfgri { rd, imm } => {
                let value = self.fp.ssr().read_cfg(CfgAddr::from_imm(imm))?;
                self.write_reg(rd, value);
                self.retire(inst, 4)
            }
            Instruction::Csr {
                op,
                rd,
                csr: addr,
                src,
            } => self.exec_csr(inst, op, rd, addr, src),
            Instruction::Lui { rd, imm } => {
                self.write_reg(rd, imm);
                self.retire(inst, 4)
            }
            Instruction::Auipc { rd, imm } => {
                self.write_reg(rd, self.pc.wrapping_add(imm));
                self.retire(inst, 4)
            }
            Instruction::Jal { rd, offset } => {
                self.write_reg(rd, self.pc.wrapping_add(4));
                let target = self.pc.wrapping_add(offset as u32);
                self.jump(inst, target)
            }
            Instruction::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u32) & !1;
                self.write_reg(rd, self.pc.wrapping_add(4));
                self.jump(inst, target)
            }
            Instruction::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if op.evaluate(self.reg(rs1), self.reg(rs2)) {
                    let target = self.pc.wrapping_add(offset as u32);
                    self.jump(inst, target)
                } else {
                    self.retire(inst, 4)
                }
            }
            Instruction::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                self.state = IntState::LoadWait { op, rd, addr };
                self.counters.int_mem_ops += 1;
                self.counters.int_retired += 1;
                self.counters.fetches += 1;
                self.pc = self.pc.wrapping_add(4);
                Ok(Some(inst))
            }
            Instruction::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u32);
                let value = self.reg(rs2);
                self.state = IntState::StoreWait { op, addr, value };
                self.counters.int_mem_ops += 1;
                self.counters.int_retired += 1;
                self.counters.fetches += 1;
                self.pc = self.pc.wrapping_add(4);
                Ok(Some(inst))
            }
            Instruction::OpImm { op, rd, rs1, imm } => {
                self.write_reg(rd, op.evaluate(self.reg(rs1), imm as u32));
                self.retire(inst, 4)
            }
            Instruction::Op { op, rd, rs1, rs2 } => {
                self.write_reg(rd, op.evaluate(self.reg(rs1), self.reg(rs2)));
                self.retire(inst, 4)
            }
            Instruction::MulDiv { op, rd, rs1, rs2 } => {
                self.write_reg(rd, op.evaluate(self.reg(rs1), self.reg(rs2)));
                self.retire(inst, 4)
            }
            Instruction::Fence => self.retire(inst, 4),
            Instruction::Ecall => {
                self.state = IntState::Halting;
                self.counters.fetches += 1;
                self.counters.int_retired += 1;
                Ok(Some(inst))
            }
            Instruction::Ebreak => Err(SimError::Ebreak { pc: self.pc }),
            _ => unreachable!("fp instructions handled above"),
        }
    }

    fn exec_csr(
        &mut self,
        inst: Instruction,
        op: CsrOp,
        rd: IntReg,
        addr: u16,
        src: CsrSrc,
    ) -> Result<Option<Instruction>, SimError> {
        let operand = match src {
            CsrSrc::Reg(r) => self.reg(r),
            CsrSrc::Imm(i) => u32::from(i),
        };
        match addr {
            csr::CHAIN_MASK => {
                if !self.fp.is_drained() {
                    self.counters
                        .record_stall(crate::counters::StallCause::Sync);
                    return Ok(None);
                }
                let old = self.fp.chain_mask();
                self.fp.set_chain_mask(op.apply(old, operand))?;
                self.write_reg(rd, old);
            }
            csr::SSR_ENABLE => {
                if !self.fp.is_drained() || !self.fp.ssr().all_done() {
                    self.counters
                        .record_stall(crate::counters::StallCause::Sync);
                    return Ok(None);
                }
                let old = u32::from(self.fp.ssr().is_enabled());
                let new = op.apply(old, operand);
                self.fp.ssr_mut().set_enabled(new & 1 == 1);
                self.write_reg(rd, old);
            }
            csr::PERF_REGION => {
                // Region start waits for the FP side to drain; region end
                // additionally waits for the streams (write streams are
                // still draining results that belong inside the region).
                let opens = op.apply(self.csrs.read(addr), operand) != 0;
                let streams_ok = opens || self.fp.ssr().all_done();
                if !self.fp.is_drained() || !streams_ok {
                    self.counters
                        .record_stall(crate::counters::StallCause::Sync);
                    return Ok(None);
                }
                let old = self.csrs.apply(addr, op, operand);
                self.write_reg(rd, old);
                let new = op.apply(old, operand);
                if new != 0 {
                    // Region opens *after* this cycle's bookkeeping: snapshot
                    // includes the current cycle, so the delta starts clean.
                    let mut snap = self.counters;
                    snap.cycles += 1; // this cycle belongs to setup
                    self.region_start = Some(snap);
                } else if let Some(start) = self.region_start.take() {
                    let mut end = self.counters;
                    end.cycles += 1; // include this cycle consistently
                    end.frep_replays = self.fp.sequencer().replayed();
                    self.region = Some(end.delta_since(&start));
                }
            }
            csr::CLUSTER_BARRIER => {
                // Pure reads (csrrs/csrrc with the x0 / zero-immediate
                // operand — per the RISC-V spec, no write occurs) just
                // return the completed-episode count without arriving.
                let pure_read = matches!(op, CsrOp::ReadSet | CsrOp::ReadClear)
                    && match src {
                        CsrSrc::Reg(r) => r.is_zero(),
                        CsrSrc::Imm(i) => i == 0,
                    };
                if pure_read {
                    self.write_reg(rd, self.barriers_completed);
                } else {
                    // A barrier is a rendezvous of the *harts*; each hart's
                    // FP work and streams must complete before it arrives.
                    if !self.fp.is_drained() || !self.fp.ssr().all_done() {
                        self.counters
                            .record_stall(crate::counters::StallCause::Sync);
                        return Ok(None);
                    }
                    // Park without retiring; `release_barrier` retires.
                    self.state = IntState::BarrierWait { rd };
                    return Ok(None);
                }
            }
            csr::SYSTEM_BARRIER => {
                // Same pure-read convention as the cluster barrier.
                let pure_read = matches!(op, CsrOp::ReadSet | CsrOp::ReadClear)
                    && match src {
                        CsrSrc::Reg(r) => r.is_zero(),
                        CsrSrc::Imm(i) => i == 0,
                    };
                if pure_read {
                    self.write_reg(rd, self.system_barriers_completed);
                } else {
                    // A system barrier is a rendezvous of every hart in
                    // every cluster; like the cluster barrier, each
                    // hart's FP work and streams must complete first.
                    if !self.fp.is_drained() || !self.fp.ssr().all_done() {
                        self.counters
                            .record_stall(crate::counters::StallCause::Sync);
                        return Ok(None);
                    }
                    // Park without retiring; `release_system_barrier`
                    // retires.
                    self.state = IntState::SystemBarrierWait { rd };
                    return Ok(None);
                }
            }
            csr::PHASE_MARK => {
                // A phase boundary: record the hart's attribution
                // snapshot (and notify any subscribed tracer) so
                // profiles can segment into prologue / steady-state /
                // drain. Retires in one cycle with no synchronisation —
                // markers must not perturb what they measure beyond
                // their own issue slot. Pure reads return the last
                // value without marking.
                let pure_read = matches!(op, CsrOp::ReadSet | CsrOp::ReadClear)
                    && match src {
                        CsrSrc::Reg(r) => r.is_zero(),
                        CsrSrc::Imm(i) => i == 0,
                    };
                let old = self.csrs.apply(addr, op, operand);
                self.write_reg(rd, old);
                if !pure_read {
                    let value = op.apply(old, operand);
                    self.phase_marks.push(PhaseMark {
                        cycle: self.counters.cycles,
                        value,
                        attr: self.counters.attr,
                    });
                    self.tracer.instant(self.track, "phase-mark");
                }
            }
            csr::CLUSTER_ID => {
                self.write_reg(rd, self.cluster_id);
            }
            csr::SYSTEM_NUM_CLUSTERS => {
                self.write_reg(rd, self.num_clusters);
            }
            csr::DMA_START => {
                // Pure reads (csrrs/csrrc with a zero operand) report the
                // cumulative number of doorbells this core has rung; any
                // write snapshots the descriptor CSRs into a command for
                // the cluster's engine, operand bit 0 selecting the
                // direction.
                let pure_read = matches!(op, CsrOp::ReadSet | CsrOp::ReadClear)
                    && match src {
                        CsrSrc::Reg(r) => r.is_zero(),
                        CsrSrc::Imm(i) => i == 0,
                    };
                self.write_reg(rd, self.dma_rung);
                if !pure_read {
                    self.dma_rung = self.dma_rung.wrapping_add(1);
                    self.dma_outbox.push(DmaCommand {
                        src: self.csrs.read(csr::DMA_SRC),
                        dst: self.csrs.read(csr::DMA_DST),
                        len: self.csrs.read(csr::DMA_LEN),
                        src_stride: self.csrs.read(csr::DMA_SRC_STRIDE),
                        dst_stride: self.csrs.read(csr::DMA_DST_STRIDE),
                        reps: self.csrs.read(csr::DMA_REPS).max(1),
                        to_tcdm: operand & 1 == 1,
                    });
                }
            }
            csr::DMA_STATUS => {
                self.write_reg(rd, self.dma_outstanding);
            }
            csr::DMA_WAIT => {
                // Pure reads return the mirrored completion count, like
                // DMA_COMPLETED. A write parks the hart until the
                // engine's wrapping counter reaches the target — unless
                // the mirror already satisfies it, in which case the
                // write retires immediately (the rendezvous everyone
                // already reached).
                let pure_read = matches!(op, CsrOp::ReadSet | CsrOp::ReadClear)
                    && match src {
                        CsrSrc::Reg(r) => r.is_zero(),
                        CsrSrc::Imm(i) => i == 0,
                    };
                if pure_read {
                    self.write_reg(rd, self.dma_completed);
                } else {
                    let target = op.apply(self.dma_completed, operand);
                    if (self.dma_completed.wrapping_sub(target) as i32) >= 0 {
                        self.write_reg(rd, self.dma_completed);
                    } else {
                        // Like the barrier CSRs, parking waits for FP
                        // quiescence first — a parked hart must be
                        // inert so idle windows can be fast-forwarded.
                        if !self.fp.is_drained() || !self.fp.ssr().all_done() {
                            self.counters
                                .record_stall(crate::counters::StallCause::Sync);
                            return Ok(None);
                        }
                        // Park without retiring; `release_dma_wait`
                        // retires.
                        self.state = IntState::DmaWait { rd, target };
                        return Ok(None);
                    }
                }
            }
            csr::DMA_COMPLETED => {
                self.write_reg(rd, self.dma_completed);
            }
            csr::MHARTID => {
                self.write_reg(rd, self.hart_id);
            }
            csr::CLUSTER_NUM_CORES => {
                self.write_reg(rd, self.num_harts);
            }
            csr::MCYCLE => {
                self.write_reg(rd, self.counters.cycles as u32);
            }
            csr::MINSTRET => {
                self.write_reg(
                    rd,
                    (self.counters.int_retired + self.counters.fp_issued) as u32,
                );
            }
            _ => {
                let old = self.csrs.apply(addr, op, operand);
                self.write_reg(rd, old);
            }
        }
        self.retire(inst, 4)
    }

    fn offload_fp(&mut self, inst: Instruction) -> Result<Option<Instruction>, SimError> {
        if !self.fp.sequencer().can_accept() {
            return Ok(None);
        }
        // Resolve integer-side operands now.
        let addr = match inst {
            Instruction::FpLoad { rs1, offset, .. } | Instruction::FpStore { rs1, offset, .. } => {
                Some(self.reg(rs1).wrapping_add(offset as u32))
            }
            _ => None,
        };
        let int_operand = match inst {
            Instruction::FpCvt { op, rs1, .. } if op.reads_int() => Some(self.reg(rs1)),
            _ => None,
        };
        // FP instructions that write an integer register set a pending bit
        // the integer core synchronises on.
        if let Some(rd) = inst.int_dest() {
            self.int_pending |= 1 << rd.index();
        }
        self.fp
            .sequencer_mut()
            .offload(SeqItem::Fp(OffloadedFp::new(inst, addr, int_operand)));
        self.counters.fetches += 1;
        self.pc += 4;
        Ok(Some(inst))
    }

    fn int_load(&mut self, op: LoadOp, addr: u32, tcdm: &Tcdm) -> Result<u32, SimError> {
        let v = match op {
            LoadOp::Lw => tcdm.read_u32(addr)?,
            LoadOp::Lb => tcdm.read_u8(addr)? as i8 as i32 as u32,
            LoadOp::Lbu => u32::from(tcdm.read_u8(addr)?),
            LoadOp::Lh => tcdm.read_u16(addr)? as i16 as i32 as u32,
            LoadOp::Lhu => u32::from(tcdm.read_u16(addr)?),
        };
        Ok(v)
    }

    fn int_store(
        &mut self,
        op: StoreOp,
        addr: u32,
        value: u32,
        tcdm: &mut Tcdm,
    ) -> Result<(), SimError> {
        match op {
            StoreOp::Sw => tcdm.write_u32(addr, value)?,
            StoreOp::Sh => tcdm.write_u16(addr, value as u16)?,
            StoreOp::Sb => tcdm.write_u8(addr, value as u8)?,
        }
        Ok(())
    }

    fn quiescent(&self) -> Result<bool, SimError> {
        if !self.fp.is_drained() {
            return Ok(false);
        }
        for m in self.fp.ssr().movers() {
            if !m.is_done() {
                // Write streams are still draining: keep waiting. Read
                // streams with leftover elements are a software bug.
                if self.cfg.strict && m.request().is_none() && m.can_pop() {
                    return Err(SimError::EcallWithActiveStream { dm: m.index() });
                }
                return Ok(false);
            }
        }
        Ok(true)
    }

    fn reg(&self, r: IntReg) -> u32 {
        self.regs[r.index() as usize]
    }

    fn write_reg(&mut self, r: IntReg, v: u32) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = v;
        }
    }

    fn retire(&mut self, inst: Instruction, pc_inc: u32) -> Result<Option<Instruction>, SimError> {
        self.pc = self.pc.wrapping_add(pc_inc);
        self.counters.int_retired += 1;
        self.counters.fetches += 1;
        Ok(Some(inst))
    }

    fn jump(&mut self, inst: Instruction, target: u32) -> Result<Option<Instruction>, SimError> {
        self.pc = target;
        self.counters.int_retired += 1;
        self.counters.fetches += 1;
        if self.cfg.branch_taken_penalty > 0 {
            self.state = IntState::Bubble(self.cfg.branch_taken_penalty);
        }
        Ok(Some(inst))
    }
}

/// The single-core simulator: one [`Core`] driving its own private TCDM.
///
/// # Examples
///
/// ```
/// use sc_core::{CoreConfig, Simulator};
/// use sc_isa::{ProgramBuilder, IntReg};
///
/// let mut b = ProgramBuilder::new();
/// b.li(IntReg::new(5), 42);
/// b.ecall();
/// let prog = b.build()?;
/// let mut sim = Simulator::new(CoreConfig::new(), prog);
/// let summary = sim.run(1_000)?;
/// assert_eq!(sim.int_reg(IntReg::new(5)), 42);
/// assert!(summary.cycles < 20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Simulator {
    core: Core,
    tcdm: Tcdm,
}

impl Simulator {
    /// Creates a simulator for `program` under `cfg`.
    #[must_use]
    pub fn new(cfg: CoreConfig, program: Program) -> Self {
        Simulator {
            tcdm: Tcdm::new(cfg.tcdm),
            core: Core::new(cfg, program),
        }
    }

    /// The TCDM (pre-load inputs / read back results).
    #[must_use]
    pub fn tcdm(&self) -> &Tcdm {
        &self.tcdm
    }

    /// Mutable TCDM access.
    pub fn tcdm_mut(&mut self) -> &mut Tcdm {
        &mut self.tcdm
    }

    /// The core being simulated.
    #[must_use]
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Reads an integer register.
    #[must_use]
    pub fn int_reg(&self, reg: IntReg) -> u32 {
        self.core.int_reg(reg)
    }

    /// Writes an integer register (argument passing in tests).
    pub fn set_int_reg(&mut self, reg: IntReg, value: u32) {
        self.core.set_int_reg(reg, value);
    }

    /// Reads an FP register as a double.
    #[must_use]
    pub fn fp_reg(&self, reg: FpReg) -> f64 {
        self.core.fp_reg(reg)
    }

    /// Writes an FP register (test setup).
    pub fn set_fp_reg(&mut self, reg: FpReg, value: f64) {
        self.core.set_fp_reg(reg, value);
    }

    /// The FP subsystem (diagnostics).
    #[must_use]
    pub fn fp_subsystem(&self) -> &FpSubsystem {
        self.core.fp_subsystem()
    }

    /// Counters accumulated so far.
    #[must_use]
    pub fn counters(&self) -> &PerfCounters {
        self.core.counters()
    }

    /// Runs until `ecall` or the cycle budget is exhausted.
    ///
    /// # Errors
    ///
    /// Any [`SimError`]: strict-mode misuse, memory faults, `ebreak`,
    /// budget exhaustion.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        while !self.core.is_halted() {
            if self.core.counters().cycles >= max_cycles {
                return Err(SimError::MaxCyclesExceeded { max_cycles });
            }
            self.step()?;
        }
        Ok(self.core.summary())
    }

    /// Executes one cycle.
    ///
    /// # Errors
    ///
    /// See [`Simulator::run`].
    pub fn step(&mut self) -> Result<(), SimError> {
        self.core.step(&mut self.tcdm)?;
        // A lone hart is the whole rendezvous — cluster or system:
        // release immediately.
        if self.core.in_barrier() {
            self.core.release_barrier();
        }
        if self.core.in_system_barrier() {
            self.core.release_system_barrier();
        }
        // A lone core's DMA doorbell is inert (no engine will ever
        // complete anything): the blocking wait resolves trivially with
        // the mirrored count.
        if self.core.dma_wait_target().is_some() {
            let completed = self.core.dma_completed;
            self.core.release_dma_wait(completed);
        }
        Ok(())
    }
}
