//! Finished instruction sequences ready for execution.

use std::collections::BTreeMap;
use std::fmt;

use crate::inst::Instruction;

/// An assembled program: a flat instruction sequence plus symbols.
///
/// Instruction addresses are byte addresses starting at 0; every
/// instruction is 4 bytes (no compressed encodings in this model).
///
/// # Examples
///
/// ```
/// use sc_isa::{Program, Instruction};
/// let prog = Program::new(vec![Instruction::Ecall], Default::default());
/// assert_eq!(prog.fetch(0), Some(Instruction::Ecall));
/// assert_eq!(prog.fetch(4), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    code: Vec<Instruction>,
    /// Per instruction, the integer registers it reads or writes as a
    /// bitmask (bit `i` = `x{i}`, `x0` never set), computed once here so
    /// a core checking an instruction against its in-flight integer
    /// writes neither re-decodes it nor allocates on a program reload.
    int_regs: Vec<u32>,
    symbols: BTreeMap<String, u32>,
}

impl Program {
    /// Creates a program from instructions and a symbol table
    /// (label → byte address).
    #[must_use]
    pub fn new(code: Vec<Instruction>, symbols: BTreeMap<String, u32>) -> Self {
        let int_regs = code.iter().map(Instruction::int_regs_mask).collect();
        Program {
            code,
            int_regs,
            symbols,
        }
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Fetches the instruction at byte address `pc`, if in range.
    ///
    /// Misaligned addresses return `None`.
    #[must_use]
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<Instruction> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.code.get((pc / 4) as usize).copied()
    }

    /// The integer registers the instruction at byte address `pc` reads
    /// or writes, as a bitmask (bit `i` = `x{i}`; `x0` is never set).
    /// Zero when `pc` is misaligned or out of range.
    #[must_use]
    #[inline]
    pub fn int_regs_at(&self, pc: u32) -> u32 {
        if !pc.is_multiple_of(4) {
            return 0;
        }
        self.int_regs.get((pc / 4) as usize).copied().unwrap_or(0)
    }

    /// The instructions as a slice.
    #[must_use]
    pub fn code(&self) -> &[Instruction] {
        &self.code
    }

    /// Looks up a label's byte address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.symbols.get(name).copied()
    }

    /// Iterates over `(name, byte address)` symbol pairs.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Encodes the program to its 32-bit binary words (little-endian
    /// machine code, as a linker would emit it).
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        self.code.iter().map(crate::encode).collect()
    }

    /// Decodes a program from binary words (symbols are not recoverable).
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] encountered.
    pub fn from_words(words: &[u32]) -> Result<Self, crate::DecodeError> {
        let code = words
            .iter()
            .map(|w| crate::decode(*w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(code, BTreeMap::new()))
    }

    /// Renders a disassembly listing with addresses and labels.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut by_addr: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, addr) in self.symbols() {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, inst) in self.code.iter().enumerate() {
            let addr = (i * 4) as u32;
            if let Some(labels) = by_addr.get(&addr) {
                for l in labels {
                    out.push_str(l);
                    out.push_str(":\n");
                }
            }
            out.push_str(&format!("  {addr:#06x}: {inst}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::reg::IntReg;

    #[test]
    fn fetch_rejects_misaligned() {
        let prog = Program::new(
            vec![Instruction::NOP, Instruction::Ecall],
            Default::default(),
        );
        assert!(prog.fetch(2).is_none());
        assert_eq!(prog.fetch(4), Some(Instruction::Ecall));
    }

    #[test]
    fn int_reg_masks_cover_sources_and_dest_but_not_x0() {
        let mut b = ProgramBuilder::new();
        b.addi(IntReg::new(1), IntReg::new(2), 42);
        b.addi(IntReg::ZERO, IntReg::ZERO, 0);
        b.ecall();
        let prog = b.build().unwrap();
        assert_eq!(prog.int_regs_at(0), 0b110);
        assert_eq!(prog.int_regs_at(4), 0);
        assert_eq!(prog.int_regs_at(8), 0);
        assert_eq!(prog.int_regs_at(2), 0, "misaligned");
        assert_eq!(prog.int_regs_at(12), 0, "out of range");
        let decoded = Program::from_words(&prog.to_words()).unwrap();
        assert_eq!(decoded.int_regs_at(0), 0b110);
    }

    #[test]
    fn disassembly_includes_labels() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.addi(IntReg::new(1), IntReg::ZERO, 42);
        b.ecall();
        let prog = b.build().unwrap();
        let text = prog.disassemble();
        assert!(text.contains("start:"));
        assert!(text.contains("addi ra, zero, 42"));
        assert_eq!(prog.symbol("start"), Some(0));
    }
}
