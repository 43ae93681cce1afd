//! `Instruction::fp_sources` / `int_sources` return an inline
//! `RegList`; this pins it to the `Vec`-building reference the lists
//! replaced, over 100,000 random decodable instruction words, and pins
//! `Program`'s precomputed integer-register masks to the same reference.

use proptest::test_runner::{seed_from_name, TestRng};
use sc_isa::{decode, CsrSrc, FpReg, Instruction, IntReg, Program};

const WORDS: usize = 100_000;

/// The reference FP source list: one `Vec` per instruction, in operand
/// order.
fn fp_sources_reference(inst: &Instruction) -> Vec<FpReg> {
    match *inst {
        Instruction::FpStore { frs2, .. } => vec![frs2],
        Instruction::FpBin { frs1, frs2, .. } => vec![frs1, frs2],
        Instruction::FpFma {
            frs1, frs2, frs3, ..
        } => vec![frs1, frs2, frs3],
        Instruction::FpSqrt { frs1, .. } => vec![frs1],
        Instruction::FpCmp { frs1, frs2, .. } => vec![frs1, frs2],
        Instruction::FpCvt { op, frs1, .. } if !op.reads_int() => vec![frs1],
        _ => Vec::new(),
    }
}

/// The reference integer source list, `x0` filtered out afterwards.
fn int_sources_reference(inst: &Instruction) -> Vec<IntReg> {
    let mut v = Vec::new();
    match *inst {
        Instruction::Jalr { rs1, .. }
        | Instruction::Load { rs1, .. }
        | Instruction::OpImm { rs1, .. }
        | Instruction::FpLoad { rs1, .. }
        | Instruction::FpStore { rs1, .. } => v.push(rs1),
        Instruction::Branch { rs1, rs2, .. }
        | Instruction::Store { rs2, rs1, .. }
        | Instruction::Op { rs1, rs2, .. }
        | Instruction::MulDiv { rs1, rs2, .. } => {
            v.push(rs1);
            v.push(rs2);
        }
        Instruction::Csr {
            src: CsrSrc::Reg(rs1),
            ..
        } => v.push(rs1),
        Instruction::FpCvt { op, rs1, .. } if op.reads_int() => v.push(rs1),
        Instruction::Frep { max_rpt, .. } => v.push(max_rpt),
        Instruction::Scfgwi { rs1, .. } => v.push(rs1),
        _ => {}
    }
    v.retain(|r| !r.is_zero());
    v
}

#[test]
fn reg_lists_match_the_vec_reference_on_random_words() {
    let mut rng = TestRng::new(seed_from_name("reg_lists_match_the_vec_reference"));
    let (mut checked, mut drawn) = (0, 0u64);
    let (mut fp_lists, mut int_lists, mut zero_filtered) = (0, 0, 0);
    let mut code = Vec::with_capacity(WORDS);
    while checked < WORDS {
        drawn += 1;
        assert!(drawn < 100 * WORDS as u64, "too few decodable words");
        let word = rng.next_u64() as u32;
        let Ok(inst) = decode(word) else {
            continue;
        };
        checked += 1;
        let (fp, int) = (inst.fp_sources(), inst.int_sources());
        let (fp_ref, int_ref) = (fp_sources_reference(&inst), int_sources_reference(&inst));
        assert_eq!(fp, fp_ref, "fp_sources of {inst} ({word:#010x})");
        assert_eq!(int, int_ref, "int_sources of {inst} ({word:#010x})");
        assert_eq!(fp.into_iter().collect::<Vec<_>>(), fp_ref);
        assert_eq!(int.len(), int_ref.len());
        fp_lists += usize::from(!fp.is_empty());
        int_lists += usize::from(!int.is_empty());
        zero_filtered += usize::from(inst.int_sources().len() < raw_int_source_count(&inst));
        code.push(inst);
    }
    let program = Program::new(code, Default::default());
    for (pc, inst) in (0u32..).step_by(4).zip(program.code()) {
        let want = int_sources_reference(inst)
            .into_iter()
            .chain(inst.int_dest())
            .fold(0, |mask, r| mask | 1 << r.index());
        assert_eq!(program.int_regs_at(pc), want, "int_regs_at of {inst}");
    }
    // The random words must exercise every shape the lists take.
    assert!(fp_lists > 1_000, "{fp_lists} words with FP sources");
    assert!(int_lists > 1_000, "{int_lists} words with integer sources");
    assert!(zero_filtered > 100, "{zero_filtered} words reading x0");
}

/// Integer source operands before `x0` filtering.
fn raw_int_source_count(inst: &Instruction) -> usize {
    match *inst {
        Instruction::Branch { .. }
        | Instruction::Store { .. }
        | Instruction::Op { .. }
        | Instruction::MulDiv { .. } => 2,
        Instruction::Jalr { .. }
        | Instruction::Load { .. }
        | Instruction::OpImm { .. }
        | Instruction::FpLoad { .. }
        | Instruction::FpStore { .. }
        | Instruction::Csr {
            src: CsrSrc::Reg(_),
            ..
        }
        | Instruction::Frep { .. }
        | Instruction::Scfgwi { .. } => 1,
        Instruction::FpCvt { op, .. } if op.reads_int() => 1,
        _ => 0,
    }
}
