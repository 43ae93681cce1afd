//! Architectural register names for the integer and floating-point files.
//!
//! Both files have 32 registers. Integer registers use the standard RISC-V
//! ABI mnemonics (`zero`, `ra`, `sp`, ...); floating-point registers use the
//! `ft`/`fa`/`fs` ABI mnemonics. [`FpReg::FT0`]–[`FpReg::FT2`] double as the
//! stream semantic registers when streaming is enabled (see `sc-ssr`).

use std::fmt;
use std::str::FromStr;

/// Error returned when parsing a register mnemonic fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    what: String,
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register mnemonic `{}`", self.what)
    }
}

impl std::error::Error for ParseRegError {}

/// An integer (x-file) architectural register, `x0`..`x31`.
///
/// `x0` is hard-wired to zero: writes are discarded, reads return 0.
///
/// # Examples
///
/// ```
/// use sc_isa::IntReg;
/// let sp: IntReg = "sp".parse()?;
/// assert_eq!(sp.index(), 2);
/// assert_eq!(sp.to_string(), "sp");
/// # Ok::<(), sc_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntReg(u8);

/// A floating-point (f-file) architectural register, `f0`..`f31`.
///
/// # Examples
///
/// ```
/// use sc_isa::FpReg;
/// let ft3: FpReg = "ft3".parse()?;
/// assert_eq!(ft3.index(), 3);
/// // Chaining CSR mask bit for this register:
/// assert_eq!(1u32 << ft3.index(), 8);
/// # Ok::<(), sc_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

const INT_ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

const FP_ABI_NAMES: [&str; 32] = [
    "ft0", "ft1", "ft2", "ft3", "ft4", "ft5", "ft6", "ft7", "fs0", "fs1", "fa0", "fa1", "fa2",
    "fa3", "fa4", "fa5", "fa6", "fa7", "fs2", "fs3", "fs4", "fs5", "fs6", "fs7", "fs8", "fs9",
    "fs10", "fs11", "ft8", "ft9", "ft10", "ft11",
];

impl IntReg {
    /// The hard-wired zero register `x0`.
    pub const ZERO: IntReg = IntReg(0);
    /// Return address register `x1`.
    pub const RA: IntReg = IntReg(1);
    /// Stack pointer `x2`.
    pub const SP: IntReg = IntReg(2);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < 32, "integer register index out of range");
        IntReg(index)
    }

    /// Creates a register from its index, returning `None` if out of range.
    #[must_use]
    pub const fn try_new(index: u8) -> Option<Self> {
        if index < 32 {
            Some(IntReg(index))
        } else {
            None
        }
    }

    /// The register's index in the file (0..32).
    #[must_use]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hard-wired zero register.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The standard ABI mnemonic (e.g. `"sp"` for `x2`).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        INT_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 integer registers in index order.
    pub fn all() -> impl Iterator<Item = IntReg> {
        (0..32).map(IntReg)
    }
}

impl FpReg {
    /// `ft0` / `f0`: stream semantic register 0 when streaming is enabled.
    pub const FT0: FpReg = FpReg(0);
    /// `ft1` / `f1`: stream semantic register 1 when streaming is enabled.
    pub const FT1: FpReg = FpReg(1);
    /// `ft2` / `f2`: stream semantic register 2 when streaming is enabled.
    pub const FT2: FpReg = FpReg(2);
    /// `ft3` / `f3`: the chained accumulator in the paper's running example.
    pub const FT3: FpReg = FpReg(3);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 32`.
    #[must_use]
    pub const fn new(index: u8) -> Self {
        assert!(index < 32, "floating-point register index out of range");
        FpReg(index)
    }

    /// Creates a register from its index, returning `None` if out of range.
    #[must_use]
    pub const fn try_new(index: u8) -> Option<Self> {
        if index < 32 {
            Some(FpReg(index))
        } else {
            None
        }
    }

    /// The register's index in the file (0..32).
    #[must_use]
    pub const fn index(self) -> u8 {
        self.0
    }

    /// The chaining-mask bit for this register (bit `index` of CSR 0x7C3).
    #[must_use]
    pub const fn chain_mask_bit(self) -> u32 {
        1u32 << self.0
    }

    /// The standard ABI mnemonic (e.g. `"ft3"` for `f3`).
    #[must_use]
    pub fn abi_name(self) -> &'static str {
        FP_ABI_NAMES[self.0 as usize]
    }

    /// Iterates over all 32 floating-point registers in index order.
    pub fn all() -> impl Iterator<Item = FpReg> {
        (0..32).map(FpReg)
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

impl FromStr for IntReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(idx) = INT_ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(IntReg(idx as u8));
        }
        // Accept s0's alias fp and numeric x-names.
        if s == "fp" {
            return Ok(IntReg(8));
        }
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(idx) = num.parse::<u8>() {
                if idx < 32 {
                    return Ok(IntReg(idx));
                }
            }
        }
        Err(ParseRegError { what: s.to_owned() })
    }
}

impl FromStr for FpReg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(idx) = FP_ABI_NAMES.iter().position(|&n| n == s) {
            return Ok(FpReg(idx as u8));
        }
        if let Some(num) = s.strip_prefix('f') {
            if let Ok(idx) = num.parse::<u8>() {
                if idx < 32 {
                    return Ok(FpReg(idx));
                }
            }
        }
        Err(ParseRegError { what: s.to_owned() })
    }
}

impl From<IntReg> for u8 {
    fn from(r: IntReg) -> u8 {
        r.index()
    }
}

impl From<FpReg> for u8 {
    fn from(r: FpReg) -> u8 {
        r.index()
    }
}

/// The registers one instruction reads: at most three, stored inline so
/// the per-cycle issue checks never touch the heap. Dereferences to a
/// slice in operand order.
#[derive(Clone, Copy)]
pub struct RegList<T> {
    regs: [T; 3],
    len: u8,
}

impl<T: Copy> RegList<T> {
    /// The first `len` entries of `regs` (the rest are ignored).
    pub(crate) fn from_array(regs: [T; 3], len: usize) -> Self {
        assert!(len <= 3, "an instruction reads at most three registers");
        RegList {
            regs,
            len: len as u8,
        }
    }

    pub(crate) fn push(&mut self, reg: T) {
        self.regs[usize::from(self.len)] = reg;
        self.len += 1;
    }

    /// Removes and returns the last register, if any.
    pub fn pop(&mut self) -> Option<T> {
        let last = self.len.checked_sub(1)?;
        self.len = last;
        Some(self.regs[usize::from(last)])
    }
}

impl<T> std::ops::Deref for RegList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.regs[..usize::from(self.len)]
    }
}

impl<T> IntoIterator for RegList<T> {
    type Item = T;
    type IntoIter = std::iter::Take<std::array::IntoIter<T, 3>>;

    fn into_iter(self) -> Self::IntoIter {
        self.regs.into_iter().take(usize::from(self.len))
    }
}

impl<'a, T> IntoIterator for &'a RegList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: PartialEq> PartialEq for RegList<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for RegList<T> {}

impl<T: PartialEq> PartialEq<Vec<T>> for RegList<T> {
    fn eq(&self, other: &Vec<T>) -> bool {
        **self == **other
    }
}

impl<T: fmt::Debug> fmt::Debug for RegList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_list_is_a_slice_in_operand_order() {
        let mut l = RegList::from_array([FpReg::FT2, FpReg::FT0, FpReg::FT1], 2);
        assert_eq!(&*l, &[FpReg::FT2, FpReg::FT0]);
        assert_eq!(l, vec![FpReg::FT2, FpReg::FT0]);
        l.push(FpReg::FT3);
        assert_eq!(
            l.into_iter().collect::<Vec<_>>(),
            [FpReg::FT2, FpReg::FT0, FpReg::FT3]
        );
        assert_eq!(l.pop(), Some(FpReg::FT3));
        assert_eq!(l.pop(), Some(FpReg::FT0));
        assert_eq!(l.pop(), Some(FpReg::FT2));
        assert_eq!(l.pop(), None);
        assert!(l.is_empty());
        assert_eq!(format!("{l:?}"), "[]");
    }

    #[test]
    fn int_reg_roundtrips_via_abi_name() {
        for r in IntReg::all() {
            let parsed: IntReg = r.abi_name().parse().expect("abi name parses");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn fp_reg_roundtrips_via_abi_name() {
        for r in FpReg::all() {
            let parsed: FpReg = r.abi_name().parse().expect("abi name parses");
            assert_eq!(parsed, r);
        }
    }

    #[test]
    fn numeric_names_parse() {
        assert_eq!("x0".parse::<IntReg>().unwrap(), IntReg::ZERO);
        assert_eq!("x31".parse::<IntReg>().unwrap(), IntReg::new(31));
        assert_eq!("f3".parse::<FpReg>().unwrap(), FpReg::FT3);
        assert_eq!("fp".parse::<IntReg>().unwrap(), IntReg::new(8));
    }

    #[test]
    fn out_of_range_rejected() {
        assert!("x32".parse::<IntReg>().is_err());
        assert!("f32".parse::<FpReg>().is_err());
        assert!("bogus".parse::<IntReg>().is_err());
        assert!(IntReg::try_new(32).is_none());
        assert!(FpReg::try_new(255).is_none());
    }

    #[test]
    fn chain_mask_bit_matches_paper_example() {
        // The paper enables chaining on ft3 with mask 8 (Fig. 1c line 1).
        assert_eq!(FpReg::FT3.chain_mask_bit(), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn new_panics_out_of_range() {
        let _ = IntReg::new(32);
    }
}
