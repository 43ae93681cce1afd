//! Code generation for the stencil kernels, one generator per paper
//! variant.
//!
//! All variants share the same loop nest: the grid is processed in output
//! *blocks* of `unroll` consecutive x-points; the input neighbourhood of a
//! block is streamed through SSR0 (`ft0`) with a 4-D affine pattern
//! (`x-within-block` fastest, then `dx`, `dy`, `dz`); the block walks x,
//! then y, then z. Within a block every variant performs the same FMA
//! sequence in the same coefficient order, so all variants (and the golden
//! model) produce bit-identical results.
//!
//! The variants differ exactly as the paper describes (see
//! [`Variant`]): where the coefficients come from, where the results go,
//! and whether the accumulators are plain registers or one chained
//! register.

use sc_isa::{csr, FpReg, IntReg, Program, ProgramBuilder};
use sc_mem::{Dram, MemError, Tcdm, TcdmConfig};
use sc_ssr::CfgAddr;

use crate::grid::Grid3;
use crate::kernel::{verify_f64_exact, CheckFn, Kernel, SetupFn};
use crate::partition::split_ranges;
use crate::stencil::Stencil;
use crate::system_kernel::{SystemCheckFn, SystemKernel, SystemSetupFn, TiledSystemKernel};
use crate::tiling::{self, TileError, WaitStyle};
use crate::variant::Variant;

/// Memory placement of the kernel's arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Base of the padded input grid.
    pub in_base: u32,
    /// Base of the padded output grid.
    pub out_base: u32,
    /// Base of the coefficient array.
    pub coeff_base: u32,
}

impl Layout {
    /// Default packing: coefficients first, then input, then output,
    /// 64-byte aligned.
    #[must_use]
    pub fn for_grid(grid: &Grid3) -> Self {
        let coeff_base = 0x100;
        let in_base = 0x400;
        let out_base = align_up(in_base + grid.byte_len(), 64);
        Layout {
            in_base,
            out_base,
            coeff_base,
        }
    }

    /// Bytes of TCDM the layout needs.
    #[must_use]
    pub fn required_bytes(&self, grid: &Grid3) -> u32 {
        self.out_base + grid.byte_len()
    }
}

fn align_up(v: u32, a: u32) -> u32 {
    v.div_ceil(a) * a
}

/// Errors constructing a stencil kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// Only dense radius-1 box neighbourhoods map onto the 4-D affine
    /// stream pattern (SARIS handles irregular shapes with indirect
    /// streams, which are out of scope here).
    UnsupportedShape {
        /// Stencil name.
        stencil: &'static str,
    },
    /// The interior x-extent must be a multiple of the unroll factor.
    BadUnroll {
        /// Interior x size.
        nx: u32,
        /// Required divisor.
        unroll: u32,
    },
    /// Too many coefficients to preload (chained variants own f5..f31).
    TooManyCoefficients {
        /// Coefficient count.
        n: usize,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::UnsupportedShape { stencil } => {
                write!(
                    f,
                    "stencil `{stencil}` is not a dense box; needs indirect streams"
                )
            }
            BuildError::BadUnroll { nx, unroll } => {
                write!(
                    f,
                    "interior nx={nx} must be a multiple of the unroll factor {unroll}"
                )
            }
            BuildError::TooManyCoefficients { n } => {
                write!(f, "{n} coefficients exceed the 27 preloadable registers")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// How a slab program synchronises before halting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlabSync {
    /// Halt directly (single hart, single cluster).
    None,
    /// Rendezvous with the cluster's other harts (CSR 0x7C5).
    Cluster,
    /// Rendezvous with every hart of every cluster (CSR 0x7C6).
    System,
}

impl SlabSync {
    fn emit(self, b: &mut ProgramBuilder) {
        match self {
            SlabSync::None => {}
            SlabSync::Cluster => b.csrrwi(IntReg::ZERO, csr::CLUSTER_BARRIER, 0),
            SlabSync::System => b.csrrwi(IntReg::ZERO, csr::SYSTEM_BARRIER, 0),
        }
    }
}

/// Integer register allocation (fixed across variants).
mod ir {
    use sc_isa::IntReg;
    pub const TMP: IntReg = IntReg::new(28); // scfg staging
    pub const XBLK: IntReg = IntReg::new(10); // x-block counter
    pub const XEND: IntReg = IntReg::new(11); // blocks per row
    pub const COEFF: IntReg = IntReg::new(14); // coefficient base
    pub const YCNT: IntReg = IntReg::new(15);
    pub const YEND: IntReg = IntReg::new(16);
    pub const ZCNT: IntReg = IntReg::new(17);
    pub const ZEND: IntReg = IntReg::new(18);
    pub const FREP: IntReg = IntReg::new(19); // frep repetition register
    pub const INPTR: IntReg = IntReg::new(20); // input window pointer
    pub const OUTPTR: IntReg = IntReg::new(21); // output pointer (fsd)
    pub const INSKIP: IntReg = IntReg::new(22); // plane halo skip (input)
    pub const OUTSKIP: IntReg = IntReg::new(23); // plane halo skip (output)
    pub const MASK: IntReg = IntReg::new(24); // chain mask staging
}

/// FP register allocation.
mod fr {
    use sc_isa::FpReg;
    /// Input stream.
    pub const IN: FpReg = FpReg::new(0);
    /// Coefficient stream (`Base`) or output stream (`Base-`/`Chaining+`).
    pub const AUX: FpReg = FpReg::new(1);
    /// Chained accumulator (chained variants).
    pub const ACC_CHAINED: FpReg = FpReg::new(3);
    /// Plain accumulators f8..f15 (baseline variants).
    pub const ACC0: u8 = 8;
    /// Coefficient scratch ping-pong (explicit-load variants).
    pub const SCRATCH: [FpReg; 2] = [FpReg::new(16), FpReg::new(17)];
    /// First preloaded coefficient register (chained variants).
    pub const COEFF0: u8 = 5;
}

/// A fully-parameterised stencil kernel generator.
#[derive(Debug, Clone)]
pub struct StencilKernel {
    stencil: Stencil,
    grid: Grid3,
    variant: Variant,
    layout: Layout,
}

impl StencilKernel {
    /// Creates a generator, validating the stencil/grid/variant combo.
    ///
    /// # Errors
    ///
    /// See [`BuildError`].
    pub fn new(stencil: Stencil, grid: Grid3, variant: Variant) -> Result<Self, BuildError> {
        let dims = box_dims(&stencil).ok_or(BuildError::UnsupportedShape {
            stencil: stencil.name(),
        })?;
        let _ = dims;
        if !grid.nx.is_multiple_of(variant.unroll()) {
            return Err(BuildError::BadUnroll {
                nx: grid.nx,
                unroll: variant.unroll(),
            });
        }
        if variant.uses_chaining() && stencil.len() > 27 {
            return Err(BuildError::TooManyCoefficients { n: stencil.len() });
        }
        let layout = Layout::for_grid(&grid);
        Ok(StencilKernel {
            stencil,
            grid,
            variant,
            layout,
        })
    }

    /// The memory layout the generated program assumes.
    #[must_use]
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Expected double-precision flops in the measured region
    /// (one FMA = 2 flops; the first tap is a multiply = 1 flop).
    #[must_use]
    pub fn flops(&self) -> u64 {
        let per_point = 1 + 2 * (self.stencil.len() as u64 - 1);
        per_point * self.grid.interior_len() as u64
    }

    /// Generates the runnable [`Kernel`] (program + setup + check).
    #[must_use]
    pub fn build(&self) -> Kernel {
        let (setup, check) = self.data_fns();
        Kernel::new(
            format!("{}/{}", self.stencil.name(), self.variant),
            self.emit(),
            self.flops(),
            setup,
            check,
        )
    }

    /// Plans one cluster's double-buffered DMA tiling of this kernel
    /// (its whole grid) for a TCDM of at most `capacity` bytes and
    /// `num_harts` harts — the per-cluster step of
    /// [`StencilKernel::build_system_tiled`], which documents the plan.
    fn plan_tiles(
        &self,
        num_harts: u32,
        capacity: u32,
        wait: WaitStyle,
        phase_marks: bool,
    ) -> Result<tiling::TilePlan, TileError> {
        let grid = self.grid;
        let pp = grid.plane_pitch();
        let rp = grid.row_pitch();
        let coeff_base = self.layout.coeff_base;
        let bufs_base = 0x400u32;
        // The cap is hard: round DOWN to a whole TCDM interleave line so
        // the instantiated scratchpad never exceeds what the caller
        // allowed, and plan against that rounded size.
        let cap = capacity / tiling::TCDM_LINE_BYTES * tiling::TCDM_LINE_BYTES;

        // Buffer layout for a given tile extent (nyc rows × nzc planes):
        // two input tiles (with halo rows/planes), two output tiles,
        // 64-byte aligned. A tile plane is `nyc + 2` rows; an output
        // buffer spans `nzc + 1` tile planes: the kernel writes padded
        // planes 1..=nzc of the tile grid, and the last interior row of
        // plane `nzc` reaches into the address range of plane `nzc + 1`'s
        // slot minus the trailing halo rows — one full extra plane
        // covers it (the leading halo plane 0 is part of the span; the
        // trailing halo plane is never addressed). With `nyc == ny` this
        // is exactly the whole-plane z-slab layout.
        let plan_bufs = |nyc: u32, nzc: u32| -> ([u32; 2], [u32; 2], u32) {
            let tpp = rp * (nyc + 2);
            let in_bytes = tpp * (nzc + 2);
            let out_bytes = tpp * (nzc + 1);
            let in0 = bufs_base;
            let in1 = tiling::align_up(in0 + in_bytes, 64);
            let out0 = tiling::align_up(in1 + in_bytes, 64);
            let out1 = tiling::align_up(out0 + out_bytes, 64);
            ([in0, in1], [out0, out1], out1 + out_bytes)
        };
        // Prefer full-width z-slabs (largest plane count first); only
        // when one whole plane cannot be double-buffered, sub-tile the
        // plane along y (widest strip first).
        let (nyc, nzc) = (1..=grid.nz)
            .rev()
            .map(|z| (grid.ny, z))
            .chain((1..grid.ny).rev().map(|y| (y, 1)))
            .find(|&(y, z)| plan_bufs(y, z).2 <= cap)
            .ok_or(TileError {
                needed: plan_bufs(1, 1).2,
                capacity,
            })?;
        let (in_bufs, out_bufs, _) = plan_bufs(nyc, nzc);

        // Tile extents along z (outer) and y (inner), and each tile's
        // transfers.
        let mut tiles = Vec::new();
        let mut tile_kernels = Vec::new();
        let mut z0 = 0;
        while z0 < grid.nz {
            let nzc_t = nzc.min(grid.nz - z0);
            let mut y0 = 0;
            while y0 < grid.ny {
                let nyc_t = nyc.min(grid.ny - y0);
                let t = tiles.len();
                let tpp_t = rp * (nyc_t + 2);
                let mut io = tiling::TileIo::default();
                if t == 0 {
                    io.inputs.push(tiling::DmaXfer::contiguous(
                        self.layout.coeff_base,
                        coeff_base,
                        tiling::align_up(8 * self.stencil.len() as u32, 8),
                        true,
                    ));
                }
                if nyc_t == grid.ny {
                    // Full-width slab: padded planes [z0, z0 + nzc_t + 2)
                    // are contiguous in the row-major layout — one 1-D
                    // fetch, one 1-D write-back of interior planes
                    // [z0+1, z0+1+nzc_t) (their x/y halo bytes are zero
                    // in both the tile buffer and the golden layout, so
                    // whole planes move).
                    io.inputs.push(tiling::DmaXfer::contiguous(
                        self.layout.in_base + pp * z0,
                        in_bufs[t % 2],
                        pp * (nzc_t + 2),
                        true,
                    ));
                    io.outputs.push(tiling::DmaXfer::contiguous(
                        self.layout.out_base + pp * (z0 + 1),
                        out_bufs[t % 2] + pp,
                        pp * nzc_t,
                        false,
                    ));
                } else {
                    // y-strip: gather padded rows [y0, y0 + nyc_t + 2) of
                    // each padded plane [z0, z0 + nzc_t + 2) — one
                    // contiguous run of rows per plane, plane-strided on
                    // the Dram side, packed on the tile side.
                    io.inputs.push(tiling::DmaXfer {
                        dram_addr: self.layout.in_base + pp * z0 + rp * y0,
                        tcdm_addr: in_bufs[t % 2],
                        row_bytes: tpp_t,
                        dram_stride: pp,
                        tcdm_stride: tpp_t,
                        reps: nzc_t + 2,
                        to_tcdm: true,
                    });
                    // Write back only the strip's *interior* rows
                    // [y0+1, y0+1+nyc_t) of each written plane — the
                    // strip's y-halo rows belong to the neighbouring
                    // tiles' interiors in the full grid and must not be
                    // clobbered. (Whole rows still move: the x-halo
                    // bytes are zero on both sides.)
                    io.outputs.push(tiling::DmaXfer {
                        dram_addr: self.layout.out_base + pp * (z0 + 1) + rp * (y0 + 1),
                        tcdm_addr: out_bufs[t % 2] + tpp_t + rp,
                        row_bytes: rp * nyc_t,
                        dram_stride: pp,
                        tcdm_stride: tpp_t,
                        reps: nzc_t,
                        to_tcdm: false,
                    });
                }
                tiles.push(io);
                // The tile's compute program is this kernel re-targeted
                // at a sub-grid of nyc_t × nzc_t in the tile buffers.
                tile_kernels.push(StencilKernel {
                    stencil: self.stencil.clone(),
                    grid: Grid3::new(grid.nx, nyc_t, nzc_t),
                    variant: self.variant,
                    layout: Layout {
                        in_base: in_bufs[t % 2],
                        out_base: out_bufs[t % 2],
                        coeff_base,
                    },
                });
                y0 += nyc_t;
            }
            z0 += nzc_t;
        }

        let working_set = tiling::WorkingSet::from_tiles(&tiles);
        let sched = tiling::schedule(&tiles);
        let mut stages: Vec<Vec<Program>> = tile_kernels
            .iter()
            .zip(&sched.per_tile)
            .enumerate()
            .map(|(t, (tk, (enq, wait_n)))| {
                let slabs = split_ranges(tk.grid.nz, num_harts, 1);
                slabs
                    .iter()
                    .enumerate()
                    .map(|(h, &(sz0, snzc))| {
                        let mut b = ProgramBuilder::new();
                        if h == 0 {
                            tiling::emit_tile_prologue(&mut b, enq, *wait_n, wait);
                        } else {
                            tiling::emit_tile_prologue(&mut b, &[], 0, wait);
                        }
                        // The mark sits *after* the data-ready barrier:
                        // tile 0's initial fetch wait stays in the
                        // pipeline-prologue segment, and each tile's
                        // segment spans exactly its compute + next-tile
                        // overlap window.
                        if phase_marks {
                            tiling::emit_phase_mark(&mut b, t as u32);
                        }
                        tk.emit_slab_into(&mut b, sz0, snzc, SlabSync::Cluster);
                        b.build().expect("tiled stencil codegen is valid")
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        stages.push(tiling::epilogue_programs(
            num_harts,
            &sched.epilogue.0,
            sched.epilogue.1,
            wait,
        ));
        Ok(tiling::TilePlan {
            tcdm: TcdmConfig::new().with_size(cap),
            stages,
            working_set,
        })
    }

    /// Generates a [`SystemKernel`] with the grid's z-planes first
    /// partitioned into contiguous slabs across `num_clusters` clusters,
    /// then each slab across that cluster's `harts_per_cluster` harts
    /// (imbalance at most one plane; surplus harts get an empty slab).
    /// Each hart runs the same variant over its slab and marks its own
    /// measured region. Before halting, every hart rendezvouses on the
    /// **inter-cluster barrier** (CSR 0x7C6) when there are several
    /// clusters, on the cluster barrier when one cluster has several
    /// harts; a 1×1 system kernel runs exactly [`StencilKernel::build`]'s
    /// program. A cluster run is the `num_clusters == 1` point.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn build_system(&self, num_clusters: u32, harts_per_cluster: u32) -> SystemKernel {
        assert!(num_clusters >= 1, "a system has at least one cluster");
        assert!(harts_per_cluster >= 1, "a cluster has at least one hart");
        let slabs = split_ranges(self.grid.nz, num_clusters, 1);
        let sync = if num_clusters > 1 {
            SlabSync::System
        } else if harts_per_cluster > 1 {
            SlabSync::Cluster
        } else {
            SlabSync::None
        };
        let programs = slabs
            .iter()
            .map(|&(cz0, cnz)| {
                split_ranges(cnz, harts_per_cluster, 1)
                    .iter()
                    .map(|&(hz0, hnz)| self.emit_slab(cz0 + hz0, hnz, sync))
                    .collect()
            })
            .collect();
        let (setup, check) = self.system_data_fns(slabs);
        SystemKernel::new(
            format!(
                "{}/{} m{num_clusters}x{harts_per_cluster}",
                self.stencil.name(),
                self.variant
            ),
            programs,
            self.flops(),
            setup,
            check,
        )
    }

    /// Plans per-cluster double-buffered DMA tilings of this kernel for
    /// a TCDM of at most `capacity` bytes (typically
    /// [`crate::TCDM_CAP_BYTES`], the real cluster's 128 KiB): the grid's
    /// z-planes are partitioned into contiguous slabs across
    /// `num_clusters` clusters, and each cluster runs its own tile
    /// pipeline over its slab on `harts_per_cluster` harts — all engines
    /// streaming from ONE shared background image through the shared L2.
    /// Surplus clusters (more clusters than planes) idle. A tiled cluster
    /// run is the `num_clusters == 1` point (behind
    /// [`sc_mem::L2Config::passthrough`], a stand-alone DMA cluster).
    ///
    /// The whole padded input/output grids live in the background memory
    /// at the same addresses the unbounded-TCDM layout uses; the TCDM
    /// holds ping-pong tile buffers (input tiles carry their halo
    /// planes/rows). The planner prefers whole-plane z-slabs — the tile
    /// size is the largest plane count whose double-buffered footprint
    /// fits the cap — and when even a **single plane** exceeds the cap it
    /// falls back to 2-D x/y sub-tiling: one-plane tiles of the widest
    /// y-strip that fits, moved with the engine's 2-D strided
    /// descriptors (a y-strip is gathered plane by plane on fetch and
    /// its interior rows scattered back on write-out). Results are
    /// bit-identical to the unbounded run either way: every variant
    /// executes the same FMA sequence per output point regardless of
    /// tiling.
    ///
    /// # Errors
    ///
    /// [`TileError`] when any cluster's slab cannot be double-buffered
    /// within `capacity`, even as one-plane, one-row tiles.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn build_system_tiled(
        &self,
        num_clusters: u32,
        harts_per_cluster: u32,
        capacity: u32,
    ) -> Result<TiledSystemKernel, TileError> {
        self.build_system_tiled_with(num_clusters, harts_per_cluster, capacity, WaitStyle::Park)
    }

    /// [`StencilKernel::build_system_tiled`] with an explicit DMA
    /// completion [`WaitStyle`] for every cluster's tile pipeline.
    /// [`WaitStyle::Park`] is exactly `build_system_tiled`: the waiting
    /// hart retires nothing, which exposes idle windows to the
    /// event-driven scheduler; [`WaitStyle::Poll`] models the classic
    /// spin loop instead. Results are bit-identical either way.
    ///
    /// # Errors
    ///
    /// See [`StencilKernel::build_system_tiled`].
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn build_system_tiled_with(
        &self,
        num_clusters: u32,
        harts_per_cluster: u32,
        capacity: u32,
        wait: WaitStyle,
    ) -> Result<TiledSystemKernel, TileError> {
        self.build_system_tiled_impl(num_clusters, harts_per_cluster, capacity, wait, false)
    }

    /// [`StencilKernel::build_system_tiled_with`] plus **kernel phase
    /// markers**: every hart opens each tile-loop iteration with a
    /// `PHASE_MARK` CSR write carrying the tile index, so the per-hart
    /// attribution can be segmented into prologue / per-tile steady
    /// state / drain with [`sc_perf::segment_phases`] (and a subscribed
    /// tracer shows a `phase-mark` instant per boundary). The marks cost
    /// a couple of retired integer instructions per tile per hart —
    /// profiled builds are therefore **not** cycle-identical to the
    /// default builders and are opt-in; results remain bit-identical.
    ///
    /// # Errors
    ///
    /// See [`StencilKernel::build_system_tiled`].
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn build_system_tiled_profiled(
        &self,
        num_clusters: u32,
        harts_per_cluster: u32,
        capacity: u32,
        wait: WaitStyle,
    ) -> Result<TiledSystemKernel, TileError> {
        self.build_system_tiled_impl(num_clusters, harts_per_cluster, capacity, wait, true)
    }

    fn build_system_tiled_impl(
        &self,
        num_clusters: u32,
        harts_per_cluster: u32,
        capacity: u32,
        wait: WaitStyle,
        phase_marks: bool,
    ) -> Result<TiledSystemKernel, TileError> {
        assert!(num_clusters >= 1, "a system has at least one cluster");
        assert!(harts_per_cluster >= 1, "a cluster has at least one hart");
        let grid = self.grid;
        let pp = grid.plane_pitch();
        let slabs = split_ranges(grid.nz, num_clusters, 1);
        let mut stages = Vec::with_capacity(slabs.len());
        let mut tcdm_cfg: Option<TcdmConfig> = None;
        let mut working_set = tiling::WorkingSet::default();
        for &(cz0, cnz) in &slabs {
            if cnz == 0 {
                // A surplus cluster runs one trivial stage: every hart
                // halts immediately (the tiled pipelines need no global
                // rendezvous).
                let idle = (0..harts_per_cluster)
                    .map(|_| {
                        let mut b = ProgramBuilder::new();
                        b.ecall();
                        b.build().expect("idle program is valid")
                    })
                    .collect();
                stages.push(vec![idle]);
                continue;
            }
            let sub = StencilKernel {
                stencil: self.stencil.clone(),
                grid: Grid3::new(grid.nx, grid.ny, cnz),
                variant: self.variant,
                layout: Layout {
                    in_base: self.layout.in_base + pp * cz0,
                    out_base: self.layout.out_base + pp * cz0,
                    coeff_base: self.layout.coeff_base,
                },
            };
            let plan = sub.plan_tiles(harts_per_cluster, capacity, wait, phase_marks)?;
            debug_assert!(
                tcdm_cfg.is_none_or(|c| c == plan.tcdm),
                "every cluster plans the same capacity-capped TCDM"
            );
            tcdm_cfg.get_or_insert(plan.tcdm);
            working_set.merge(&plan.working_set);
            stages.push(plan.stages);
        }
        let (setup, check) = self.dram_data_fns();
        Ok(TiledSystemKernel::new(
            format!(
                "{}/{} m{num_clusters}x{harts_per_cluster} tiled",
                self.stencil.name(),
                self.variant
            ),
            tcdm_cfg.expect("at least one cluster owns planes"),
            stages,
            harts_per_cluster,
            self.flops(),
            working_set,
            setup,
            check,
        ))
    }

    /// The per-cluster data setup and slab verification closures for the
    /// unbounded system path: every cluster's TCDM receives the whole
    /// input image (the capacity cheat, scaled out), and each cluster's
    /// result is checked only over the z-slab it owns.
    fn system_data_fns(&self, slabs: Vec<(u32, u32)>) -> (SystemSetupFn, SystemCheckFn) {
        let grid = self.grid;
        let layout = self.layout;
        let (input, golden, coeffs) = self.golden_data();
        let setup = move |_cluster: u32, tcdm: &mut Tcdm| -> Result<(), MemError> {
            tcdm.write_f64_slice(layout.coeff_base, &coeffs)?;
            tcdm.write_f64_slice(layout.in_base, &input)?;
            Ok(())
        };
        let check = move |cluster: u32, tcdm: &Tcdm| {
            let (z0, nz) = slabs[cluster as usize];
            for (idx, (x, y, z)) in grid.interior().enumerate() {
                let zi = z - Grid3::HALO;
                if zi < z0 || zi >= z0 + nz {
                    continue;
                }
                let addr = grid.addr(layout.out_base, x, y, z);
                verify_f64_exact(tcdm, addr, &golden[idx..=idx]).map_err(|mut e| {
                    e.index = idx;
                    e
                })?;
            }
            Ok(())
        };
        (Box::new(setup), Box::new(check))
    }

    /// The kernel's problem data: deterministic input field, its golden
    /// output, and the coefficients. The single source both the
    /// unbounded-TCDM and the tiled (Dram) paths stage from — which is
    /// what makes their bit-identical-results guarantee structural
    /// rather than a property of two copies staying in sync.
    fn golden_data(&self) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let input = self.grid.random_field(0x5EED ^ u64::from(self.grid.nx));
        let golden = self.stencil.golden(&self.grid, &input);
        let coeffs = self.stencil.coeffs().to_vec();
        (input, golden, coeffs)
    }

    /// The background-memory data setup and verification closures for
    /// the tiled path — same data, same golden model, same addresses as
    /// [`StencilKernel::data_fns`], but against the [`Dram`].
    fn dram_data_fns(&self) -> (tiling::DramSetupFn, tiling::DramCheckFn) {
        let grid = self.grid;
        let layout = self.layout;
        let (input, golden, coeffs) = self.golden_data();
        let setup = move |dram: &mut Dram| -> Result<(), MemError> {
            dram.write_f64_slice(layout.coeff_base, &coeffs)?;
            dram.write_f64_slice(layout.in_base, &input)?;
            Ok(())
        };
        let check = move |dram: &Dram| {
            for (idx, (x, y, z)) in grid.interior().enumerate() {
                let addr = grid.addr(layout.out_base, x, y, z);
                tiling::verify_dram_f64(dram, addr, golden[idx], idx)?;
            }
            Ok(())
        };
        (Box::new(setup), Box::new(check))
    }

    /// The shared data setup and whole-grid verification closures.
    fn data_fns(&self) -> (SetupFn, CheckFn) {
        let grid = self.grid;
        let layout = self.layout;
        let (input, golden, coeffs) = self.golden_data();
        let setup = move |tcdm: &mut Tcdm| -> Result<(), MemError> {
            tcdm.write_f64_slice(layout.coeff_base, &coeffs)?;
            tcdm.write_f64_slice(layout.in_base, &input)?;
            Ok(())
        };
        let check = move |tcdm: &Tcdm| {
            // The kernel writes the padded interior; verify row by row.
            for (idx, (x, y, z)) in grid.interior().enumerate() {
                let addr = grid.addr(layout.out_base, x, y, z);
                verify_f64_exact(tcdm, addr, &golden[idx..=idx]).map_err(|mut e| {
                    e.index = idx;
                    e
                })?;
            }
            Ok(())
        };
        (Box::new(setup), Box::new(check))
    }

    /// Emits the whole-grid program.
    fn emit(&self) -> Program {
        self.emit_slab(0, self.grid.nz, SlabSync::None)
    }

    /// Emits the program for the z-plane slab `[z0, z0 + nzc)`.
    fn emit_slab(&self, z0: u32, nzc: u32, sync: SlabSync) -> Program {
        let mut b = ProgramBuilder::new();
        self.emit_slab_into(&mut b, z0, nzc, sync);
        b.build().expect("stencil codegen produces valid programs")
    }

    /// Emits the slab program for `[z0, z0 + nzc)` into an existing
    /// builder — the whole grid when `(0, nz)`. The tiled path prepends
    /// a DMA prologue and data-ready barrier before calling this. With a
    /// `sync` other than [`SlabSync::None`], the hart rendezvouses on
    /// the corresponding barrier before `ecall` (after its streams
    /// drain), so no hart halts while its neighbours still stream
    /// results.
    pub(crate) fn emit_slab_into(&self, b: &mut ProgramBuilder, z0: u32, nzc: u32, sync: SlabSync) {
        let grid = &self.grid;
        let v = self.variant;
        let u = v.unroll();
        let n = self.stencil.len() as u32;
        let (bx, by, bz) = box_dims(&self.stencil).expect("validated in new");
        let row_pitch = grid.row_pitch() as i32;
        let plane_pitch = grid.plane_pitch() as i32;

        // A hart with no planes only participates in the rendezvous.
        if nzc == 0 {
            sync.emit(b);
            b.ecall();
            return;
        }

        // ---- prologue -------------------------------------------------
        b.li(ir::COEFF, self.layout.coeff_base as i32);
        if v.uses_chaining() {
            // Pre-load all coefficients into f5.. (the registers freed by
            // replacing 4 plain accumulators with 1 chained register).
            for k in 0..n {
                b.fld(FpReg::new(fr::COEFF0 + k as u8), ir::COEFF, (8 * k) as i32);
            }
            b.li(ir::MASK, fr::ACC_CHAINED.chain_mask_bit() as i32);
            b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, ir::MASK);
        }
        // Enable streaming.
        b.li(ir::TMP, 1);
        b.csrrs(IntReg::ZERO, csr::SSR_ENABLE, ir::TMP);

        // SSR0: input window pattern (static part).
        self.cfg_word(b, 0, 2, u as i32 - 1);
        self.cfg_word(b, 0, 3, bx as i32 - 1);
        self.cfg_word(b, 0, 4, by as i32 - 1);
        self.cfg_word(b, 0, 5, bz as i32 - 1);
        self.cfg_word(b, 0, 6, 8);
        self.cfg_word(b, 0, 7, 8);
        self.cfg_word(b, 0, 8, row_pitch);
        self.cfg_word(b, 0, 9, plane_pitch);

        if v.streams_coefficients() {
            // SSR1: coefficient loop, each coefficient delivered `u` times.
            self.cfg_word(b, 1, 1, u as i32 - 1); // repeat
            self.cfg_word(b, 1, 2, n as i32 - 1);
            self.cfg_word(b, 1, 6, 8);
        }
        if v.streams_output() {
            // SSR1: 3-D interior write stream, armed once for the whole
            // slab (x fastest — exactly the block walk order).
            self.cfg_word(b, 1, 2, grid.nx as i32 - 1);
            self.cfg_word(b, 1, 3, grid.ny as i32 - 1);
            self.cfg_word(b, 1, 4, nzc as i32 - 1);
            self.cfg_word(b, 1, 6, 8);
            self.cfg_word(b, 1, 7, row_pitch);
            self.cfg_word(b, 1, 8, plane_pitch);
            b.li(
                ir::TMP,
                grid.addr(self.layout.out_base, 1, 1, 1 + z0) as i32,
            );
            b.scfgwi(ir::TMP, CfgAddr { dm: 1, reg: 28 + 2 }.to_imm()); // arm 3-D write
        }

        // Loop bookkeeping registers. The window corner of the first
        // output block sits one halo behind the output in every dimension
        // the stencil extends into (z stays put for planar stencils).
        let z_start = Grid3::HALO - bz / 2 + z0;
        b.li(
            ir::INPTR,
            grid.addr(self.layout.in_base, 0, 0, z_start) as i32,
        );
        if !v.streams_output() {
            b.li(
                ir::OUTPTR,
                grid.addr(self.layout.out_base, 1, 1, 1 + z0) as i32,
            );
        }
        b.li(ir::XEND, (grid.nx / u) as i32);
        b.li(ir::YEND, grid.ny as i32);
        b.li(ir::ZEND, nzc as i32);
        if v.streams_coefficients() {
            b.li(ir::FREP, n as i32 - 2); // n-1 frep iterations (k = 1..n)
        }
        if v.uses_chaining() {
            b.li(ir::FREP, u as i32 - 1); // frep.i: each tap issued u times
        }
        b.li(ir::INSKIP, 2 * row_pitch);
        if !v.streams_output() {
            b.li(ir::OUTSKIP, 2 * row_pitch);
        }

        // ---- measured region -------------------------------------------
        b.csrrsi(IntReg::ZERO, csr::PERF_REGION, 1);
        b.li(ir::ZCNT, 0);
        b.label("loop_z");
        b.li(ir::YCNT, 0);
        b.label("loop_y");
        b.li(ir::XBLK, 0);
        b.label("loop_x");

        // Arm the input window for this block.
        b.scfgwi(ir::INPTR, CfgAddr { dm: 0, reg: 24 + 3 }.to_imm());
        if v.streams_coefficients() {
            b.scfgwi(ir::COEFF, CfgAddr { dm: 1, reg: 24 }.to_imm());
        }

        self.emit_block(b, u, n);

        // Advance pointers and close the loops.
        b.addi(ir::INPTR, ir::INPTR, (8 * u) as i32);
        if !v.streams_output() {
            b.addi(ir::OUTPTR, ir::OUTPTR, (8 * u) as i32);
        }
        b.addi(ir::XBLK, ir::XBLK, 1);
        b.bne(ir::XBLK, ir::XEND, "loop_x");
        // Row end → next row start (skip the two halo points).
        b.addi(ir::INPTR, ir::INPTR, 16);
        if !v.streams_output() {
            b.addi(ir::OUTPTR, ir::OUTPTR, 16);
        }
        b.addi(ir::YCNT, ir::YCNT, 1);
        b.bne(ir::YCNT, ir::YEND, "loop_y");
        // Plane end → skip the two halo rows.
        b.add(ir::INPTR, ir::INPTR, ir::INSKIP);
        if !v.streams_output() {
            b.add(ir::OUTPTR, ir::OUTPTR, ir::OUTSKIP);
        }
        b.addi(ir::ZCNT, ir::ZCNT, 1);
        b.bne(ir::ZCNT, ir::ZEND, "loop_z");
        b.csrrwi(IntReg::ZERO, csr::PERF_REGION, 0);

        // ---- epilogue ----------------------------------------------------
        if v.uses_chaining() {
            b.csrrw(IntReg::ZERO, csr::CHAIN_MASK, IntReg::ZERO);
        }
        b.csrrw(IntReg::ZERO, csr::SSR_ENABLE, IntReg::ZERO);
        sync.emit(b);
        b.ecall();
    }

    /// Emits one output block (the variant-specific part).
    fn emit_block(&self, b: &mut ProgramBuilder, u: u32, n: u32) {
        match self.variant {
            Variant::BaseMinusMinus | Variant::BaseMinus => {
                self.emit_block_explicit_coeffs(b, u, n)
            }
            Variant::Base => self.emit_block_streamed_coeffs(b, u, n),
            Variant::Chaining | Variant::ChainingPlus => self.emit_block_chained(b, u, n),
        }
    }

    /// `Base--`/`Base-`: ping-pong coefficient loads into two scratch
    /// registers; eight plain accumulators.
    fn emit_block_explicit_coeffs(&self, b: &mut ProgramBuilder, u: u32, n: u32) {
        let acc = |j: u32| FpReg::new(fr::ACC0 + j as u8);
        let scratch = |k: u32| fr::SCRATCH[(k % 2) as usize];
        let streams_out = self.variant.streams_output();
        // Preload c0 and c1.
        b.fld(scratch(0), ir::COEFF, 0);
        if n > 1 {
            b.fld(scratch(1), ir::COEFF, 8);
        }
        // k = 0: initialise the accumulators with a multiply.
        for j in 0..u {
            b.fmul_d(acc(j), fr::IN, scratch(0));
        }
        for k in 1..n {
            // Prefetch the coefficient for k+1 into the idle scratch reg.
            if k + 1 < n {
                b.fld(scratch(k + 1), ir::COEFF, (8 * (k + 1)) as i32);
            }
            let last = k == n - 1;
            for j in 0..u {
                if last && streams_out {
                    // Final tap writes straight into the output stream.
                    b.fmadd_d(fr::AUX, fr::IN, scratch(k), acc(j));
                } else {
                    b.fmadd_d(acc(j), fr::IN, scratch(k), acc(j));
                }
            }
        }
        if !streams_out {
            for j in 0..u {
                b.fsd(acc(j), ir::OUTPTR, (8 * j) as i32);
            }
        }
    }

    /// `Base` (SARIS): both operands streamed; the k-loop runs under
    /// `frep.o` so the integer core only issues the body once per block.
    fn emit_block_streamed_coeffs(&self, b: &mut ProgramBuilder, u: u32, n: u32) {
        let acc = |j: u32| FpReg::new(fr::ACC0 + j as u8);
        for j in 0..u {
            b.fmul_d(acc(j), fr::IN, fr::AUX);
        }
        if n > 1 {
            b.frep_outer(ir::FREP, |b| {
                for j in 0..u {
                    b.fmadd_d(acc(j), fr::IN, fr::AUX, acc(j));
                }
            });
        }
        for j in 0..u {
            b.fsd(acc(j), ir::OUTPTR, (8 * j) as i32);
        }
    }

    /// `Chaining`/`Chaining+`: one chained accumulator register rotates
    /// `unroll = pipeline depth + 1 = 4` partial sums through the FPU's
    /// pipeline registers; coefficients live in f5..f31. Each tap is a
    /// single instruction under `frep.i` (repeat-each-`u`-times), so the
    /// integer core issues two instructions per tap while the FP side
    /// executes `u` — chaining makes this legal because the repeated
    /// instruction has *no* WAW dependency on itself.
    fn emit_block_chained(&self, b: &mut ProgramBuilder, u: u32, n: u32) {
        let _ = u;
        let coeff = |k: u32| FpReg::new(fr::COEFF0 + k as u8);
        let streams_out = self.variant.streams_output();
        // k = 0: `u` pushes.
        b.frep_inner(ir::FREP, |b| b.fmul_d(fr::ACC_CHAINED, fr::IN, coeff(0)));
        // k = 1..n: pop-modify-push; no WAW hazard thanks to chaining.
        for k in 1..n {
            let last = k == n - 1;
            b.frep_inner(ir::FREP, |b| {
                if last && streams_out {
                    // Final tap pops the accumulator and pushes the result
                    // into the write stream freed by chaining.
                    b.fmadd_d(fr::AUX, fr::IN, coeff(k), fr::ACC_CHAINED);
                } else {
                    b.fmadd_d(fr::ACC_CHAINED, fr::IN, coeff(k), fr::ACC_CHAINED);
                }
            });
        }
        if !streams_out {
            // Stores pop the last `u` partial sums.
            for j in 0..self.variant.unroll() {
                b.fsd(fr::ACC_CHAINED, ir::OUTPTR, (8 * j) as i32);
            }
        }
    }

    fn cfg_word(&self, b: &mut ProgramBuilder, dm: u8, reg: u8, value: i32) {
        b.li(ir::TMP, value);
        b.scfgwi(ir::TMP, CfgAddr { dm, reg }.to_imm());
    }
}

/// Extracts `(bx, by, bz)` if the stencil is a dense box walked dx-fastest.
fn box_dims(stencil: &Stencil) -> Option<(u32, u32, u32)> {
    let offs = stencil.offsets();
    let n = offs.len();
    // Try (3,3,3) and (3,3,1).
    for (bx, by, bz) in [(3u32, 3u32, 3u32), (3, 3, 1)] {
        if (bx * by * bz) as usize != n {
            continue;
        }
        let ok = offs.iter().enumerate().all(|(i, &(dx, dy, dz))| {
            let i = i as u32;
            let (ex, ey, ez) = (i % bx, (i / bx) % by, i / (bx * by));
            dx == ex as i32 - 1 && dy == ey as i32 - 1 && dz == ez as i32 - (bz as i32 / 2)
        });
        if ok {
            return Some((bx, by, bz));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_dims_recognises_shapes() {
        assert_eq!(box_dims(&Stencil::box3d1r()), Some((3, 3, 3)));
        assert_eq!(box_dims(&Stencil::j3d27pt()), Some((3, 3, 3)));
        assert_eq!(box_dims(&Stencil::box2d1r()), Some((3, 3, 1)));
        assert_eq!(box_dims(&Stencil::j3d7pt()), None);
    }

    #[test]
    fn star_stencil_is_rejected() {
        let err =
            StencilKernel::new(Stencil::j3d7pt(), Grid3::new(8, 4, 4), Variant::Base).unwrap_err();
        assert!(matches!(err, BuildError::UnsupportedShape { .. }));
    }

    #[test]
    fn bad_unroll_is_rejected() {
        let err =
            StencilKernel::new(Stencil::box3d1r(), Grid3::new(6, 4, 4), Variant::Base).unwrap_err();
        assert_eq!(err, BuildError::BadUnroll { nx: 6, unroll: 8 });
        // 6 is fine for the chained variants (unroll 4 divides... it does not).
        let err = StencilKernel::new(Stencil::box3d1r(), Grid3::new(6, 4, 4), Variant::Chaining)
            .unwrap_err();
        assert_eq!(err, BuildError::BadUnroll { nx: 6, unroll: 4 });
    }

    #[test]
    fn flop_count_matches_formula() {
        let k = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), Variant::Base).unwrap();
        // 27 taps: 1 mul + 26 fma = 53 flops per point, 32 points.
        assert_eq!(k.flops(), 53 * 32);
    }

    #[test]
    fn layout_is_disjoint() {
        let g = Grid3::new(8, 8, 8);
        let l = Layout::for_grid(&g);
        assert!(l.coeff_base + 27 * 8 <= l.in_base);
        assert!(l.in_base + g.byte_len() <= l.out_base);
    }

    #[test]
    fn programs_emit_for_all_variants() {
        for v in Variant::ALL {
            let k = StencilKernel::new(Stencil::box3d1r(), Grid3::new(8, 2, 2), v).unwrap();
            let kernel = k.build();
            assert!(kernel.program().len() > 50, "{v} program too small");
        }
    }
}
