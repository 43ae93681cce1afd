//! `fig3_core`: the paper's Fig. 3 suite on one dense core.
//!
//! box3d1r 24×8×8 and j3d27pt 16×12×6, each in the five variants, run
//! back to back through `Simulator`. The issue, SSR, FPU and TCDM
//! phases do all the host work here (no DMA, L2 or scheduler), and the
//! suite carries the paper's headline numbers.

use std::time::Instant;

use scalar_chaining::benchkit::{headline, Fig3Experiment, Measurement};
use scalar_chaining::core_model::{Core, CoreConfig, RunSummary, SimError, Simulator};
use scalar_chaining::energy::EnergyModel;
use scalar_chaining::kernels::{Grid3, Layout, Stencil, StencilKernel, Variant};
use scalar_chaining::mem::Tcdm;
use scalar_chaining::perf::Attribution;

use crate::{run_sliced, Bucket, Counts, Pass, Profile, Setup, Workload, MAX_CYCLES};

/// The headline numbers the `fig3` bin prints, to its three decimals
/// (speedup and efficiency of Chaining+ over Base, best chained FPU
/// utilisation), beside the paper's values.
const FIG3_HEADLINE: [(&str, &str, &str); 3] = [
    ("speedup_vs_base", "1.033", "~1.04"),
    ("efficiency_vs_base", "1.098", "~1.10"),
    ("best_fpu_util", "0.982", ">0.93"),
];

/// Simulated cycles per timed slice of each kernel's run.
const SLICE_CYCLES: u64 = 5_000;

pub struct Fig3Core;

/// One generated kernel of the suite with the inputs of one pass.
struct Case {
    stencil: Stencil,
    grid: Grid3,
    layout: Layout,
    input: Vec<f64>,
}

impl Case {
    /// Writes the coefficients and the input grid at the layout's
    /// addresses.
    fn write(&self, tcdm: &mut Tcdm) -> Result<(), String> {
        tcdm.write_f64_slice(self.layout.coeff_base, self.stencil.coeffs())
            .and_then(|()| tcdm.write_f64_slice(self.layout.in_base, &self.input))
            .map_err(|e| format!("{}: writing inputs: {e}", self.stencil.name()))
    }

    /// Compares every output point with `Stencil::golden`, bit for bit.
    fn check(&self, tcdm: &Tcdm) -> Result<(), String> {
        let golden = self.stencil.golden(&self.grid, &self.input);
        for ((x, y, z), want) in self.grid.interior().zip(golden) {
            let got = tcdm
                .read_f64(self.grid.addr(self.layout.out_base, x, y, z))
                .map_err(|e| format!("{}: reading output: {e}", self.stencil.name()))?;
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{}: output ({x},{y},{z}) is {got}, golden model says {want}",
                    self.stencil.name()
                ));
            }
        }
        Ok(())
    }
}

/// Runs `each` on every kernel of the suite, in `fig3` order, with the
/// inputs of `seed`; codegen and input drawing are charged to `setup`.
fn suite<T>(
    seed: u64,
    setup: &mut Setup,
    mut each: impl FnMut(&Case, &scalar_chaining::isa::Program, &mut Setup) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for (stencil, grid) in Fig3Experiment::workloads() {
        for variant in Variant::ALL {
            let t = Instant::now();
            let gen = StencilKernel::new(stencil.clone(), grid, variant)
                .map_err(|e| format!("{}: {e}", stencil.name()))?;
            let kernel = gen.build();
            let t1 = Instant::now();
            setup.codegen += (t1 - t).as_secs_f64();
            let case = Case {
                stencil: stencil.clone(),
                grid,
                layout: gen.layout(),
                input: grid.random_field(seed),
            };
            setup.data += t1.elapsed().as_secs_f64();
            out.push(each(&case, kernel.program(), setup)?);
        }
    }
    Ok(out)
}

impl Workload for Fig3Core {
    fn params(&self) -> String {
        "suite=box3d1r:24x8x8,j3d27pt:16x12x6 variants=Base--,Base-,Base,Chaining,Chaining+ \
         cores=1 via=Simulator"
            .to_owned()
    }

    fn sched_mode(&self) -> &'static str {
        "dense (Simulator steps every cycle)"
    }

    fn pass(&self, seed: u64) -> Result<Pass, String> {
        let mut setup = Setup::default();
        let mut sim_s = Vec::new();
        let runs = suite(seed, &mut setup, |case, program, setup| {
            let t = Instant::now();
            let mut sim = Simulator::new(CoreConfig::new(), program.clone());
            let t1 = Instant::now();
            setup.build += (t1 - t).as_secs_f64();
            case.write(sim.tcdm_mut())?;
            setup.data += t1.elapsed().as_secs_f64();
            let summary = run_sliced(
                SLICE_CYCLES,
                &mut sim_s,
                |budget| sim.run(budget),
                |e| matches!(e, SimError::MaxCyclesExceeded { .. }),
            )?;
            case.check(sim.tcdm())?;
            Ok(summary)
        })?;
        Ok(summarise(&runs, setup, sim_s))
    }

    fn traced(&self, seed: u64) -> Result<Profile, String> {
        let mut profile = Profile::default();
        let mut setup = Setup::default();
        let runs = suite(seed, &mut setup, |case, program, _| {
            let cfg = CoreConfig::new();
            let mut core = Core::new(cfg, program.clone());
            let mut tcdm = Tcdm::new(cfg.tcdm);
            case.write(&mut tcdm)?;
            let summary = step_traced(&mut core, &mut tcdm, &mut profile)?;
            case.check(&tcdm)?;
            Ok(summary)
        })?;
        profile.signature = format!("{runs:?}");
        Ok(profile)
    }

    fn cross_check(&self, pass: &Pass) -> Result<Vec<String>, String> {
        let mut lines = Vec::new();
        for (name, want, paper) in FIG3_HEADLINE {
            let got = pass
                .simulated
                .iter()
                .find(|(n, _, _)| n == name)
                .map_or(f64::NAN, |m| m.2);
            let got = format!("{got:.3}");
            if got != want {
                return Err(format!("{name} is {got}; the fig3 bin prints {want}"));
            }
            lines.push(format!(
                "paper cross-check: {name} = {got} (paper {paper}, fig3 bin {want})"
            ));
        }
        lines.push(
            "paper cross-check: the model is otherwise unvalidated; no reference \
             measurements are held, so no error figure is given"
                .to_owned(),
        );
        Ok(lines)
    }
}

/// Steps `core` to its halt through the five phase calls `Core::step`
/// makes, in its order, charging each call to its layer's bucket.
fn step_traced(
    core: &mut Core,
    tcdm: &mut Tcdm,
    profile: &mut Profile,
) -> Result<RunSummary, String> {
    let mut requests = Vec::new();
    let start = Instant::now();
    while !core.is_halted() {
        if core.counters().cycles >= MAX_CYCLES {
            return Err(format!("no halt within {MAX_CYCLES} cycles"));
        }
        // Loop control between the charged calls is left to "other".
        let mut mark = Instant::now();
        core.begin_cycle().map_err(|e| e.to_string())?;
        profile.charge(Bucket::CoreIssue, &mut mark);
        requests.clear();
        core.mem_requests(&mut requests);
        profile.charge(Bucket::SsrRequest, &mut mark);
        let grants = if requests.is_empty() {
            Vec::new()
        } else {
            tcdm.arbitrate(&requests)
        };
        profile.charge(Bucket::TcdmArbitrate, &mut mark);
        core.apply_grants(&grants, tcdm)
            .map_err(|e| e.to_string())?;
        profile.charge(Bucket::CoreGrant, &mut mark);
        core.end_cycle();
        profile.charge(Bucket::FpuAdvance, &mut mark);
        // `Simulator::step` resolves a lone hart's rendezvous at once;
        // the suite's single-core programs never wait on DMA.
        if core.in_barrier() {
            core.release_barrier();
        }
        if core.in_system_barrier() {
            core.release_system_barrier();
        }
        if core.dma_wait_target().is_some() {
            return Err("a single-core suite kernel waited on DMA".to_owned());
        }
    }
    let summary = core.summary();
    profile.wall_ns += crate::nanos(start.elapsed());
    profile.cycles += summary.cycles;
    profile.dense_cycles += summary.cycles;
    Ok(summary)
}

/// The suite's metrics: sums over the ten kernels' whole runs, and the
/// headline ratios from their measured regions, exactly as `fig3`
/// derives them.
fn summarise(runs: &[RunSummary], setup: Setup, sim_s: Vec<f64>) -> Pass {
    let model = EnergyModel::new();
    let mut cycles = 0;
    let mut insts = 0;
    let mut fpu_issue = 0;
    let (mut accesses, mut conflicts) = (0, 0);
    let mut attribution = Attribution::new();
    for r in runs {
        cycles += r.cycles;
        insts += r.counters.int_retired + r.counters.fp_issued;
        fpu_issue += r.counters.fpu_issue_cycles;
        accesses += r.counters.tcdm_accesses;
        conflicts += r.counters.tcdm_conflicts;
        attribution.accumulate(&r.counters.attr);
    }
    let grouped: Vec<(String, Vec<Measurement>)> = runs
        .chunks(Variant::ALL.len())
        .zip(Fig3Experiment::workloads())
        .map(|(rows, (stencil, _))| {
            let rows = rows
                .iter()
                .map(|r| {
                    let counters = *r.measured();
                    Measurement {
                        name: stencil.name().to_owned(),
                        counters,
                        energy: model.report(&counters),
                    }
                })
                .collect();
            (stencil.name().to_owned(), rows)
        })
        .collect();
    let h = headline(&grouped);
    let counts = Counts {
        tcdm_accesses: accesses,
        tcdm_conflicts: conflicts,
        l2: None,
        dma_beats: 0,
        dma_busy: 0,
        dma_exposed: 0,
        attribution,
        paper: [h.speedup_vs_base, h.efficiency_vs_base, h.best_utilization],
    };
    Pass {
        setup,
        sim_s,
        cycles,
        insts,
        fpu_util: fpu_issue as f64 / cycles as f64,
        simulated: counts.metrics(),
        signature: format!("{runs:?}"),
    }
}
