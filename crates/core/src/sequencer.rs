//! The FP sequencer: offload queue + FREP hardware loop.
//!
//! The integer core pushes FP instructions (with integer operands already
//! resolved) into a small queue and *keeps running* — Snitch's pseudo
//! dual-issue. The sequencer drains the queue towards the FP issue stage.
//! A `frep` marker makes it capture the next `n_instr` instructions and
//! replay them without the integer core refetching or re-issuing anything:
//! the FP loop runs from the sequence buffer while the integer core
//! executes the surrounding address arithmetic and branches.

use sc_fpu::{BoundedFifo, FpuOp, OpClass};
use sc_isa::{FpFormat, Instruction};

/// An FP instruction offloaded from the integer core.
///
/// The integer side resolves everything it owns at offload time: memory
/// addresses for FP loads/stores and the integer source operand of
/// int→float conversions/moves. The FPU op is decoded here too, once, so
/// the issue stage never re-decodes an instruction it retries or a FREP
/// body it replays (register staggering renames registers only).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadedFp {
    /// The instruction.
    pub inst: Instruction,
    /// Resolved byte address (FP loads/stores).
    pub addr: Option<u32>,
    /// Resolved integer source operand (`fcvt.d.w`, `fmv.w.x`, ...).
    pub int_operand: Option<u32>,
    /// The decoded FPU op; `None` for FP loads/stores, which use the LSU.
    /// Private to the crate so every value comes from
    /// [`OffloadedFp::new`] and matches `inst`.
    pub(crate) fpu: Option<FpuDecoded>,
}

/// An FPU compute op as the issue stage needs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FpuDecoded {
    pub(crate) op: FpuOp,
    pub(crate) fmt: FpFormat,
    /// The functional unit it executes on.
    pub(crate) class: OpClass,
}

impl OffloadedFp {
    /// Packages `inst` with its resolved integer-side operands, decoding
    /// the FPU op once.
    #[must_use]
    pub fn new(inst: Instruction, addr: Option<u32>, int_operand: Option<u32>) -> Self {
        OffloadedFp {
            inst,
            addr,
            int_operand,
            fpu: FpuOp::from_instruction(&inst).map(|(op, fmt)| FpuDecoded {
                op,
                fmt,
                class: op.class(),
            }),
        }
    }
}

/// Items travelling through the offload queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SeqItem {
    /// A regular FP instruction.
    Fp(OffloadedFp),
    /// A FREP marker with the repetition count already read from the
    /// integer register file (`reg value + 1` iterations).
    Frep {
        /// Outer (repeat whole block) vs inner (repeat each instruction).
        is_outer: bool,
        /// Number of body instructions that follow.
        n_instr: u16,
        /// Total iteration count (≥ 1).
        n_rep: u32,
        /// Maximum register stagger offset.
        stagger_max: u8,
        /// Which operands to stagger (bit 0 = rd, 1 = rs1, 2 = rs2, 3 = rs3).
        stagger_mask: u8,
    },
}

/// Errors raised by the sequencer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// FREP body larger than the sequence buffer.
    BodyTooLarge {
        /// Requested body size.
        n_instr: u16,
        /// Hardware buffer capacity.
        capacity: usize,
    },
    /// A FREP marker reached the sequencer inside another FREP's body.
    /// The assembler never emits one, but a decoded instruction stream
    /// (`Program::from_words`) can.
    NestedFrep,
}

impl std::fmt::Display for SeqError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeqError::BodyTooLarge { n_instr, capacity } => {
                write!(
                    f,
                    "frep body of {n_instr} exceeds sequence buffer of {capacity}"
                )
            }
            SeqError::NestedFrep => f.write_str("frep nested inside another frep body"),
        }
    }
}

impl std::error::Error for SeqError {}

#[derive(Debug, Clone)]
enum SeqState {
    /// Passing instructions straight through.
    Passthrough,
    /// Outer FREP: capturing the body while issuing its first iteration.
    Capture {
        remaining: u16,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
    /// Outer FREP: replaying the captured body from the buffer.
    Replay {
        pos: usize,
        iter: u32,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
    /// Inner FREP: repeating each incoming instruction `n_rep` times.
    Inner {
        remaining: u16,
        rep_done: u32,
        n_rep: u32,
        stagger_max: u8,
        stagger_mask: u8,
    },
}

/// The sequencer itself.
#[derive(Debug, Clone)]
pub struct Sequencer {
    inbox: BoundedFifo<SeqItem>,
    buffer: Vec<OffloadedFp>,
    buffer_capacity: usize,
    state: SeqState,
    replayed: u64,
}

impl Sequencer {
    /// Creates a sequencer with the given queue depth and buffer size.
    #[must_use]
    pub fn new(queue_depth: usize, buffer_capacity: usize) -> Self {
        Sequencer {
            inbox: BoundedFifo::new(queue_depth),
            buffer: Vec::with_capacity(buffer_capacity),
            buffer_capacity,
            state: SeqState::Passthrough,
            replayed: 0,
        }
    }

    /// Whether the offload queue can take another item this cycle.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        !self.inbox.is_full()
    }

    /// Offloads an item from the integer core.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full — gate with [`Sequencer::can_accept`]
    /// (the integer core stalls instead).
    pub fn offload(&mut self, item: SeqItem) {
        self.inbox.push(item);
    }

    /// Whether nothing is buffered, queued or mid-replay.
    #[must_use]
    pub fn is_drained(&self) -> bool {
        self.inbox.is_empty() && matches!(self.state, SeqState::Passthrough)
    }

    /// Instructions issued from the sequence buffer rather than the
    /// integer core (they cost no fetch energy).
    #[must_use]
    pub fn replayed(&self) -> u64 {
        self.replayed
    }

    /// High-water mark of the offload queue (sizing diagnostics).
    #[must_use]
    pub fn queue_high_water(&self) -> usize {
        self.inbox.high_water()
    }

    /// The instruction the FP issue stage should consider this cycle.
    ///
    /// Does not consume it; call [`Sequencer::consume`] after a successful
    /// issue. Returns `None` when no instruction is available (the marker
    /// handling inside never yields an issuable instruction by itself).
    ///
    /// # Errors
    ///
    /// Returns [`SeqError::BodyTooLarge`] when a FREP marker requests more
    /// body instructions than the buffer holds, and
    /// [`SeqError::NestedFrep`] when a marker arrives inside a FREP body.
    pub fn peek(&mut self) -> Result<Option<OffloadedFp>, SeqError> {
        // Resolve any marker at the queue head first (zero-cycle in Snitch:
        // the marker is consumed by the sequencer, not issued).
        loop {
            match self.state {
                SeqState::Passthrough => match self.inbox.front() {
                    Some(&SeqItem::Frep {
                        is_outer,
                        n_instr,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    }) => {
                        if n_instr as usize > self.buffer_capacity {
                            return Err(SeqError::BodyTooLarge {
                                n_instr,
                                capacity: self.buffer_capacity,
                            });
                        }
                        self.inbox.pop();
                        self.buffer.clear();
                        self.state = if is_outer {
                            SeqState::Capture {
                                remaining: n_instr,
                                n_rep,
                                stagger_max,
                                stagger_mask,
                            }
                        } else {
                            SeqState::Inner {
                                remaining: n_instr,
                                rep_done: 0,
                                n_rep,
                                stagger_max,
                                stagger_mask,
                            }
                        };
                    }
                    Some(&SeqItem::Fp(fp)) => return Ok(Some(fp)),
                    None => return Ok(None),
                },
                SeqState::Capture { .. } => {
                    return match self.inbox.front() {
                        // First iteration: issue as-is (stagger offset 0).
                        Some(&SeqItem::Fp(fp)) => Ok(Some(fp)),
                        Some(&SeqItem::Frep { .. }) => Err(SeqError::NestedFrep),
                        None => Ok(None),
                    };
                }
                SeqState::Replay {
                    pos,
                    iter,
                    stagger_max,
                    stagger_mask,
                    ..
                } => {
                    let fp = self.buffer[pos];
                    let offset = stagger_offset(iter, stagger_max);
                    return Ok(Some(apply_stagger(fp, offset, stagger_mask)));
                }
                SeqState::Inner {
                    rep_done,
                    stagger_max,
                    stagger_mask,
                    ..
                } => {
                    return match self.inbox.front() {
                        Some(&SeqItem::Fp(fp)) => {
                            let offset = stagger_offset(rep_done, stagger_max);
                            Ok(Some(apply_stagger(fp, offset, stagger_mask)))
                        }
                        Some(&SeqItem::Frep { .. }) => Err(SeqError::NestedFrep),
                        None => Ok(None),
                    };
                }
            }
        }
    }

    /// Consumes the instruction returned by the last [`Sequencer::peek`].
    ///
    /// # Panics
    ///
    /// Panics if there is nothing to consume.
    pub fn consume(&mut self) {
        match self.state {
            SeqState::Passthrough => {
                let item = self.inbox.pop().expect("consume without peek");
                debug_assert!(matches!(item, SeqItem::Fp(_)));
            }
            SeqState::Capture {
                remaining,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                let item = self.inbox.pop().expect("consume without peek");
                let SeqItem::Fp(fp) = item else {
                    unreachable!("marker in capture")
                };
                self.buffer.push(fp);
                let remaining = remaining - 1;
                if remaining > 0 {
                    self.state = SeqState::Capture {
                        remaining,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else if n_rep > 1 {
                    self.state = SeqState::Replay {
                        pos: 0,
                        iter: 1,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    self.buffer.clear();
                    self.state = SeqState::Passthrough;
                }
            }
            SeqState::Replay {
                pos,
                iter,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                self.replayed += 1;
                let pos = pos + 1;
                if pos < self.buffer.len() {
                    self.state = SeqState::Replay {
                        pos,
                        iter,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else if iter + 1 < n_rep {
                    self.state = SeqState::Replay {
                        pos: 0,
                        iter: iter + 1,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    self.buffer.clear();
                    self.state = SeqState::Passthrough;
                }
            }
            SeqState::Inner {
                remaining,
                rep_done,
                n_rep,
                stagger_max,
                stagger_mask,
            } => {
                let rep_done = rep_done + 1;
                if rep_done > 0 && rep_done < n_rep {
                    self.replayed += u64::from(rep_done > 1);
                    self.state = SeqState::Inner {
                        remaining,
                        rep_done,
                        n_rep,
                        stagger_max,
                        stagger_mask,
                    };
                } else {
                    if rep_done > 1 {
                        self.replayed += 1;
                    }
                    self.inbox.pop().expect("consume without peek");
                    let remaining = remaining - 1;
                    if remaining > 0 {
                        self.state = SeqState::Inner {
                            remaining,
                            rep_done: 0,
                            n_rep,
                            stagger_max,
                            stagger_mask,
                        };
                    } else {
                        self.state = SeqState::Passthrough;
                    }
                }
            }
        }
    }
}

fn stagger_offset(iter: u32, stagger_max: u8) -> u8 {
    if stagger_max == 0 {
        0
    } else {
        (iter % (u32::from(stagger_max) + 1)) as u8
    }
}

/// Applies Snitch register staggering: selected operand register indices
/// are offset by `offset` (mod 32).
#[inline]
fn apply_stagger(fp: OffloadedFp, offset: u8, mask: u8) -> OffloadedFp {
    use sc_isa::FpReg;
    if offset == 0 || mask == 0 {
        return fp;
    }
    let bump = |r: FpReg| FpReg::new((r.index() + offset) % 32);
    let inst = match fp.inst {
        Instruction::FpBin {
            op,
            fmt,
            frd,
            frs1,
            frs2,
        } => Instruction::FpBin {
            op,
            fmt,
            frd: if mask & 1 != 0 { bump(frd) } else { frd },
            frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
            frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
        },
        Instruction::FpFma {
            op,
            fmt,
            frd,
            frs1,
            frs2,
            frs3,
        } => Instruction::FpFma {
            op,
            fmt,
            frd: if mask & 1 != 0 { bump(frd) } else { frd },
            frs1: if mask & 2 != 0 { bump(frs1) } else { frs1 },
            frs2: if mask & 4 != 0 { bump(frs2) } else { frs2 },
            frs3: if mask & 8 != 0 { bump(frs3) } else { frs3 },
        },
        other => other,
    };
    OffloadedFp { inst, ..fp }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_isa::{FpBinOp, FpReg};

    fn fp(i: u8) -> OffloadedFp {
        OffloadedFp::new(
            Instruction::FpBin {
                op: FpBinOp::Add,
                fmt: FpFormat::Double,
                frd: FpReg::new(i),
                frs1: FpReg::FT0,
                frs2: FpReg::FT1,
            },
            None,
            None,
        )
    }

    fn drain(seq: &mut Sequencer) -> Vec<OffloadedFp> {
        let mut out = Vec::new();
        while let Some(i) = seq.peek().unwrap() {
            out.push(i);
            seq.consume();
        }
        out
    }

    #[test]
    fn passthrough_preserves_order() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        assert_eq!(got, vec![fp(3), fp(4)]);
        assert!(s.is_drained());
        assert_eq!(s.replayed(), 0);
    }

    #[test]
    fn outer_frep_replays_block() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 2,
            n_rep: 3,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        assert_eq!(got.len(), 6);
        assert_eq!(got[0], fp(3));
        assert_eq!(got[1], fp(4));
        assert_eq!(got[2], fp(3));
        assert_eq!(got[5], fp(4));
        assert!(s.is_drained());
        assert_eq!(s.replayed(), 4, "iterations 2 and 3 come from the buffer");
    }

    #[test]
    fn inner_frep_repeats_each_instruction() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: false,
            n_instr: 2,
            n_rep: 3,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        s.offload(SeqItem::Fp(fp(4)));
        let got = drain(&mut s);
        let want = vec![fp(3), fp(3), fp(3), fp(4), fp(4), fp(4)];
        assert_eq!(got, want);
        assert!(s.is_drained());
    }

    #[test]
    fn frep_single_iteration_degenerates_to_passthrough() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 1,
            stagger_max: 0,
            stagger_mask: 0,
        });
        s.offload(SeqItem::Fp(fp(3)));
        assert_eq!(drain(&mut s), vec![fp(3)]);
        assert!(s.is_drained());
    }

    #[test]
    fn body_too_large_is_reported() {
        let mut s = Sequencer::new(8, 4);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 5,
            n_rep: 2,
            stagger_max: 0,
            stagger_mask: 0,
        });
        assert_eq!(
            s.peek().unwrap_err(),
            SeqError::BodyTooLarge {
                n_instr: 5,
                capacity: 4
            }
        );
    }

    #[test]
    fn nested_frep_is_reported() {
        for is_outer in [true, false] {
            let mut s = Sequencer::new(8, 16);
            let marker = SeqItem::Frep {
                is_outer,
                n_instr: 2,
                n_rep: 2,
                stagger_max: 0,
                stagger_mask: 0,
            };
            s.offload(marker);
            s.offload(SeqItem::Fp(fp(3)));
            s.offload(marker);
            assert_eq!(s.peek().unwrap(), Some(fp(3)));
            s.consume();
            if !is_outer {
                // An inner FREP repeats the instruction before moving on.
                assert_eq!(s.peek().unwrap(), Some(fp(3)));
                s.consume();
            }
            assert_eq!(s.peek().unwrap_err(), SeqError::NestedFrep);
        }
    }

    #[test]
    fn stagger_rotates_destination() {
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 4,
            stagger_max: 1,
            stagger_mask: 0b0001, // stagger rd only
        });
        s.offload(SeqItem::Fp(fp(8)));
        let got = drain(&mut s);
        let dests: Vec<u8> = got
            .iter()
            .map(|o| match o.inst {
                Instruction::FpBin { frd, .. } => frd.index(),
                _ => unreachable!(),
            })
            .collect();
        // Iterations 0,1,2,3 → offsets 0,1,0,1.
        assert_eq!(dests, vec![8, 9, 8, 9]);
    }

    #[test]
    fn partial_capture_waits_for_body() {
        // Marker arrives before its body: peek must return the first body
        // instruction as soon as it lands, not stall forever.
        let mut s = Sequencer::new(8, 16);
        s.offload(SeqItem::Frep {
            is_outer: true,
            n_instr: 1,
            n_rep: 2,
            stagger_max: 0,
            stagger_mask: 0,
        });
        assert_eq!(s.peek().unwrap(), None);
        assert!(!s.is_drained());
        s.offload(SeqItem::Fp(fp(5)));
        assert_eq!(s.peek().unwrap(), Some(fp(5)));
        s.consume();
        assert_eq!(s.peek().unwrap(), Some(fp(5)));
        s.consume();
        assert!(s.is_drained());
    }
}
