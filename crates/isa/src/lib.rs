//! # sc-isa — RISC-V ISA substrate for the scalar-chaining model
//!
//! This crate defines the instruction set executed by the `sc-core`
//! simulator: the RV32IMFD subset the paper's kernels need, the standard
//! CSR instructions, and the custom extensions of the Snitch-like core —
//! FP repetition (`frep`), stream configuration (`scfgwi`/`scfgri`) — plus
//! the **chaining** CSR (0x7C3) introduced by the paper.
//!
//! It provides:
//!
//! * register and CSR types ([`IntReg`], [`FpReg`], [`CsrFile`]),
//! * the [`Instruction`] enum with operand-usage queries used by the
//!   core's scoreboard,
//! * binary [`encode`]/[`decode`] (property-tested roundtrip),
//! * an assembler ([`ProgramBuilder`]) with labels, pseudo-instructions and
//!   a FREP-aware block helper, producing [`Program`]s.
//!
//! ```
//! use sc_isa::{ProgramBuilder, FpReg, IntReg, csr};
//!
//! // The paper's Fig. 1c prologue: enable chaining on ft3.
//! let mut b = ProgramBuilder::new();
//! b.li(IntReg::new(5), FpReg::FT3.chain_mask_bit() as i32);
//! b.csrrs(IntReg::ZERO, csr::CHAIN_MASK, IntReg::new(5));
//! let prog = b.build()?;
//! assert_eq!(prog.len(), 2);
//! # Ok::<(), sc_isa::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod asm;
pub mod csr;
mod decode;
mod encode;
mod inst;
mod parse;
mod program;
mod reg;

pub use asm::{AsmError, ProgramBuilder};
pub use csr::{CsrFile, CsrOp};
pub use decode::{decode, DecodeError};
pub use encode::encode;
pub use inst::{
    AluOp, BranchOp, CsrSrc, FmaOp, FpBinOp, FpCmpOp, FpCvtOp, FpFormat, Instruction, LoadOp,
    MulDivOp, StoreOp,
};
pub use parse::{parse_asm, ParseAsmError};
pub use program::Program;
pub use reg::{FpReg, IntReg, ParseRegError, RegList};
