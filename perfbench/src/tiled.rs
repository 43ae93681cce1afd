//! The tiled system workloads: a stencil streamed through 128 KiB (or
//! smaller) TCDM tiles by every cluster's DMA engine, behind a shared
//! L2, under the event-driven scheduler.
//!
//! * `system_tiled_l2`: box3d1r 24×24×32 Chaining+ on 4 clusters × 4
//!   cores, behind an under-fit write-back L2 with a prefetcher. The
//!   cluster, DMA and shared-L2 layers do most of the work: demand
//!   reads, dirty write-backs and prefetches share one refill channel.
//! * `idle_parked`: `host_speed`'s idle-heavy point (box3d1r 16×16×8 on
//!   1 cluster × 4 cores, 24 KiB tiles, a pass-through L2 at 32768-cycle
//!   latency). Scheduler skips cover most cycles; it is the scheduler's
//!   workload and the core layers' bypass.

use std::collections::VecDeque;
use std::time::Instant;

use scalar_chaining::cluster::{Cluster, ClusterBuilder, ClusterConfig};
use scalar_chaining::core_model::{CoreConfig, SchedMode, Scheduler, Wake};
use scalar_chaining::isa::Program;
use scalar_chaining::kernels::{
    Grid3, Layout, Stencil, StencilKernel, TiledSystemKernel, Variant, WaitStyle, WorkingSet,
    TCDM_CAP_BYTES,
};
use scalar_chaining::mem::{
    CacheWake, Dram, DramConfig, L2Config, L2Outcome, L2Request, L2Stats, L2,
};
use scalar_chaining::system::{SystemBuilder, SystemConfig, SystemError};

use crate::{run_sliced, Bucket, Counts, Pass, Profile, Setup, Workload, MAX_CYCLES};

/// One tiled workload's fixed parameters.
pub struct Tiled {
    name: &'static str,
    grid: Grid3,
    clusters: u32,
    harts: u32,
    tcdm_cap: u32,
    /// The shared L2, sized from the kernel's working set.
    l2: fn(&WorkingSet) -> L2Config,
    /// The simulated cycle count the repository's own tools print for
    /// this point, when one does.
    pinned_cycles: Option<(u64, &'static str)>,
    /// Simulated cycles per timed slice of the run (see `run_sliced`).
    slice_cycles: u64,
}

impl Tiled {
    pub fn system_tiled_l2() -> Self {
        Tiled {
            name: "system_tiled_l2",
            grid: Grid3::new(24, 24, 32),
            clusters: 4,
            harts: 4,
            tcdm_cap: TCDM_CAP_BYTES,
            l2: |ws| {
                L2Config::new()
                    .with_capacity_bytes(ws.underfit_capacity(2048))
                    .with_ways(8)
                    .with_refill_channels(1)
                    .with_mshrs(8)
                    .with_write_back(true)
                    .with_refill_latency(64)
                    .with_prefetch(true)
                    .with_prefetch_degree(4)
                    .with_prefetch_distance(32)
            },
            pinned_cycles: None,
            slice_cycles: 2_000,
        }
    }

    pub fn idle_parked() -> Self {
        Tiled {
            name: "idle_parked",
            grid: Grid3::new(16, 16, 8),
            clusters: 1,
            harts: 4,
            tcdm_cap: 24 << 10,
            l2: |_| L2Config::passthrough(DramConfig::new().with_latency(32768)),
            pinned_cycles: Some((1_092_330, "host_speed")),
            slice_cycles: 10_000,
        }
    }

    /// Generates the tile pipelines and sizes the L2 for them.
    fn codegen(&self) -> Result<(StencilKernel, TiledSystemKernel, L2Config), String> {
        let gen = StencilKernel::new(Stencil::box3d1r(), self.grid, Variant::ChainingPlus)
            .map_err(|e| e.to_string())?;
        let tk = gen
            .build_system_tiled_with(self.clusters, self.harts, self.tcdm_cap, WaitStyle::Park)
            .map_err(|e| e.to_string())?;
        let l2 = (self.l2)(tk.working_set());
        Ok((gen, tk, l2))
    }

    fn system_config(&self, tk: &TiledSystemKernel, l2: L2Config) -> SystemConfig {
        let core = CoreConfig {
            tcdm: tk.tcdm_config(),
            ..CoreConfig::new()
        };
        SystemConfig::new(self.clusters, self.harts)
            .with_cluster(ClusterConfig::new(self.harts).with_core(core))
            .with_l2(l2)
    }

    /// Sets up one pass: codegen, then the seeded inputs in a fresh Dram
    /// image at the kernel's layout addresses.
    fn prepare(&self, seed: u64, setup: &mut Setup) -> Result<Prepared, String> {
        let t = Instant::now();
        let (gen, tk, l2) = self.codegen()?;
        let t1 = Instant::now();
        let layout = gen.layout();
        let input = self.grid.random_field(seed);
        let mut dram = Dram::new(DramConfig::new());
        dram.write_f64_slice(layout.coeff_base, Stencil::box3d1r().coeffs())
            .and_then(|()| dram.write_f64_slice(layout.in_base, &input))
            .map_err(|e| format!("writing inputs: {e}"))?;
        setup.codegen += (t1 - t).as_secs_f64();
        setup.data += t1.elapsed().as_secs_f64();
        Ok(Prepared {
            tk,
            l2,
            layout,
            input,
            dram,
        })
    }

    /// Compares every output point in the Dram image with
    /// `Stencil::golden`, bit for bit.
    fn check(&self, layout: &Layout, input: &[f64], dram: &Dram) -> Result<(), String> {
        let golden = Stencil::box3d1r().golden(&self.grid, input);
        for ((x, y, z), want) in self.grid.interior().zip(golden) {
            let got = dram
                .read_f64(self.grid.addr(layout.out_base, x, y, z))
                .map_err(|e| format!("reading output: {e}"))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "output ({x},{y},{z}) is {got}, golden model says {want}"
                ));
            }
        }
        Ok(())
    }
}

struct Prepared {
    tk: TiledSystemKernel,
    l2: L2Config,
    layout: Layout,
    input: Vec<f64>,
    dram: Dram,
}

/// Renders what a system run simulated, identically for the untraced
/// `System::run` and the traced replica of it.
fn signature(cycles: u64, per_cluster: &impl std::fmt::Debug, l2: Option<&L2Stats>) -> String {
    format!("cycles={cycles} clusters={per_cluster:?} l2={l2:?}")
}

impl Workload for Tiled {
    fn params(&self) -> String {
        let g = self.grid;
        let l2 = self
            .codegen()
            .map_or_else(|e| e, |(_, _, l2)| format!("{l2:?}"));
        format!(
            "{}: stencil=box3d1r grid={}x{}x{} variant=Chaining+ clusters={} harts={} \
             tcdm_cap={} wait=park slice_cycles={} via=SystemBuilder l2={l2}",
            self.name,
            g.nx,
            g.ny,
            g.nz,
            self.clusters,
            self.harts,
            self.tcdm_cap,
            self.slice_cycles
        )
    }

    fn sched_mode(&self) -> &'static str {
        "event"
    }

    fn pass(&self, seed: u64) -> Result<Pass, String> {
        let mut setup = Setup::default();
        let Prepared {
            tk,
            l2,
            layout,
            input,
            dram,
        } = self.prepare(seed, &mut setup)?;
        let t = Instant::now();
        let mut system = SystemBuilder::new(self.system_config(&tk, l2), tk.stages().to_vec())
            .dram(dram)
            .sched_mode(SchedMode::Event)
            .build();
        setup.build = t.elapsed().as_secs_f64();
        let mut sim_s = Vec::new();
        let s = run_sliced(
            self.slice_cycles,
            &mut sim_s,
            |budget| system.run(budget),
            |e| matches!(e, SystemError::MaxCyclesExceeded { .. }),
        )?;
        self.check(
            &layout,
            &input,
            system.dram().ok_or("the system lost its Dram")?,
        )?;

        let agg = &s.aggregate;
        let dma: Vec<_> = s.per_cluster.iter().filter_map(|c| c.dma).collect();
        let counts = Counts {
            tcdm_accesses: agg.tcdm_accesses,
            tcdm_conflicts: agg.tcdm_conflicts,
            l2: s.l2.clone().map(|l2| (l2, s.l2_writeback_beats)),
            dma_beats: s.total_dma_beats(),
            dma_busy: dma.iter().map(|d| d.busy_cycles).sum(),
            dma_exposed: dma
                .iter()
                .map(|d| d.transfer_attribution().exposed_cycles())
                .sum(),
            attribution: s.attribution,
            paper: [0.0; 3],
        };
        Ok(Pass {
            setup,
            sim_s,
            cycles: s.cycles,
            insts: agg.int_retired + agg.fp_issued,
            fpu_util: s.system_utilization(),
            simulated: counts.metrics(),
            signature: signature(s.cycles, &s.per_cluster, s.l2.as_ref()),
        })
    }

    fn traced(&self, seed: u64) -> Result<Profile, String> {
        let mut setup = Setup::default();
        let mut p = self.prepare(seed, &mut setup)?;
        let cfg = self.system_config(&p.tk, p.l2);
        let mut replica = Replica::new(&cfg, &p.tk);
        let mut profile = Profile::default();
        replica.run(&mut p.dram, &mut profile)?;
        self.check(&p.layout, &p.input, &p.dram)?;
        let per_cluster: Vec<_> = replica.clusters.iter().map(Cluster::summary).collect();
        profile.signature = signature(profile.cycles, &per_cluster, Some(&replica.l2.stats()));
        Ok(profile)
    }

    fn cross_check(&self, pass: &Pass) -> Result<Vec<String>, String> {
        match self.pinned_cycles {
            Some((want, tool)) if pass.cycles != want => Err(format!(
                "sim_cycles is {}; {tool} prints {want}",
                pass.cycles
            )),
            Some((want, tool)) => Ok(vec![format!(
                "cross-check: sim_cycles = {want}, as {tool} prints; the model is otherwise \
                 unvalidated"
            )]),
            None => Ok(vec![
                "cross-check: no repository tool prints this point; the model is unvalidated"
                    .to_owned(),
            ]),
        }
    }
}

/// `System::run` in `SchedMode::Event`, rebuilt from the public phase
/// calls `System::next_wake`, `System::skip_idle` and `System::step`
/// make, on clusters and an `L2` built the way `SystemBuilder` builds
/// them, so that each layer's calls can be timed from outside.
struct Replica {
    clusters: Vec<Cluster>,
    stages: Vec<VecDeque<Vec<Program>>>,
    l2: L2,
    sched: Scheduler,
}

impl Replica {
    fn new(cfg: &SystemConfig, tk: &TiledSystemKernel) -> Self {
        let n = cfg.num_clusters;
        let timing = cfg.l2.engine_timing();
        let mut stages: Vec<VecDeque<Vec<Program>>> = tk
            .stages()
            .iter()
            .map(|s| s.iter().cloned().collect())
            .collect();
        let clusters = stages
            .iter_mut()
            .zip(0..)
            .map(|(queue, c)| {
                let first = queue.pop_front().expect("every cluster has a stage");
                ClusterBuilder::new(cfg.cluster, first)
                    .embedded(c, n)
                    .shared_dma(timing)
                    .build()
            })
            .collect();
        Replica {
            clusters,
            stages,
            l2: L2::new(cfg.l2, n),
            sched: Scheduler::new(SchedMode::Event),
        }
    }

    fn finished(&self, c: usize) -> bool {
        self.clusters[c].is_done() && self.stages[c].is_empty()
    }

    fn run(&mut self, dram: &mut Dram, profile: &mut Profile) -> Result<(), String> {
        let n = self.clusters.len();
        let mut cycles = 0u64;
        let mut stepped = Vec::with_capacity(n);
        let mut quiet = vec![false; n];
        let mut requests = Vec::with_capacity(n);
        let mut request_of = vec![None; n];
        let mut hints = Vec::new();
        let start = Instant::now();
        while !(0..n).all(|c| self.finished(c)) {
            // System::next_wake + Scheduler::plan.
            let mut mark = Instant::now();
            let mut wake = Wake::Idle;
            for c in 0..n {
                if !self.finished(c) {
                    wake = wake.merge(self.clusters[c].next_wake());
                }
            }
            wake = wake.merge(match self.l2.next_wake() {
                CacheWake::EveryCycle => Wake::EveryCycle,
                CacheWake::In(k) => Wake::At(cycles + k),
                CacheWake::Quiescent => Wake::Idle,
            });
            let skip = self.sched.plan(cycles, wake, [MAX_CYCLES]);
            profile.charge(Bucket::SchedWake, &mut mark);
            if skip > 0 {
                // System::skip_idle.
                for c in 0..n {
                    if !self.finished(c) {
                        self.clusters[c].skip_quiet(skip);
                    }
                }
                self.l2.skip(skip);
                cycles += skip;
                profile.windows += 1;
                profile.charge(Bucket::SchedSkip, &mut mark);
                continue;
            }
            if cycles >= MAX_CYCLES {
                return Err(format!("no finish within {MAX_CYCLES} cycles"));
            }

            // System::step: the local-quiet classification ...
            stepped.clear();
            stepped.extend((0..n).filter(|&c| !self.finished(c)));
            quiet.fill(false);
            for &c in &stepped {
                quiet[c] = self.sched.local_quiet(cycles, self.clusters[c].next_wake());
            }
            profile.charge(Bucket::SchedWake, &mut mark);

            // ... half-cycle 1 on every dense cluster ...
            requests.clear();
            request_of.fill(None);
            hints.clear();
            for &c in &stepped {
                if quiet[c] {
                    continue;
                }
                let cluster = &mut self.clusters[c];
                if let Some((addr, kind)) = cluster.begin_cycle().map_err(|e| e.to_string())? {
                    request_of[c] = Some(requests.len());
                    requests.push(L2Request {
                        cluster: c as u32,
                        addr,
                        kind,
                    });
                }
                for mut hint in cluster.take_prefetch_hints() {
                    hint.requester = c as u32;
                    hints.push(hint);
                }
            }
            profile.charge(Bucket::ClusterBegin, &mut mark);

            // ... the shared-L2 pass ...
            for hint in hints.drain(..) {
                self.l2.prefetch_hint(hint);
            }
            self.l2.begin_cycle();
            let outcomes = self.l2.arbitrate(&requests);
            profile.charge(Bucket::CacheL2, &mut mark);

            // ... half-cycle 2 ...
            for &c in &stepped {
                if quiet[c] {
                    self.clusters[c].skip_quiet(1);
                    continue;
                }
                let outcome = request_of[c]
                    .and_then(|r| outcomes.get(r).copied())
                    .unwrap_or(L2Outcome::Granted);
                self.clusters[c]
                    .end_cycle(outcome, Some(&mut *dram))
                    .map_err(|e| e.to_string())?;
            }
            profile.charge(Bucket::ClusterEnd, &mut mark);
            self.l2.end_cycle();
            profile.charge(Bucket::CacheL2, &mut mark);

            // ... then stage reload and the inter-cluster barrier.
            cycles += 1;
            for &c in &stepped {
                if self.clusters[c].is_done() {
                    if let Some(next) = self.stages[c].pop_front() {
                        self.clusters[c].load_programs(next);
                    }
                }
            }
            let (waiting, active) = self
                .clusters
                .iter()
                .map(Cluster::system_barrier_census)
                .fold((0, 0), |(w, a), (cw, ca)| (w + cw, a + ca));
            if waiting > 0 && waiting == active {
                for cluster in &mut self.clusters {
                    cluster.release_system_barrier();
                }
            }
            profile.dense_cycles += 1;
            profile.charge(Bucket::SystemSync, &mut mark);
        }
        profile.wall_ns += crate::nanos(start.elapsed());
        profile.cycles += cycles;
        Ok(())
    }
}
