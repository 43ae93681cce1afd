//! Property tests for the SSR substrate.

use proptest::prelude::*;
use sc_mem::{Tcdm, TcdmConfig};

use crate::{AddrGen, AffinePattern, CfgAddr, DataMover, StreamDir};

fn pattern() -> impl Strategy<Value = AffinePattern> {
    (
        0u32..64,
        proptest::collection::vec((1u32..5, -64i32..64), 1..5),
        0u32..3,
    )
        .prop_map(|(base_word, loops, repeat)| {
            AffinePattern::from_loops(2048 + base_word * 8, &loops).with_repeat(repeat)
        })
}

proptest! {
    /// `peek_addr` is the old clone-and-advance peek, at every step of
    /// the walk and after it ends.
    #[test]
    fn addrgen_peek_matches_clone_and_next(pat in pattern()) {
        let mut gen = AddrGen::new(pat);
        loop {
            let peeked = gen.peek_addr();
            prop_assert_eq!(peeked, gen.clone().next());
            prop_assert_eq!(peeked.is_none(), gen.is_exhausted());
            if gen.next().is_none() {
                break;
            }
        }
        prop_assert_eq!(gen.peek_addr(), None);
    }

    #[test]
    fn addrgen_yields_exactly_total_elements(pat in pattern()) {
        let n = AddrGen::new(pat).count() as u64;
        prop_assert_eq!(n, pat.total_elements());
    }

    #[test]
    fn addrgen_matches_reference_nest(pat in pattern()) {
        let got: Vec<u32> = AddrGen::new(pat).collect();
        let mut want = Vec::new();
        let b = pat.bounds;
        for i3 in 0..b[3] {
            for i2 in 0..b[2] {
                for i1 in 0..b[1] {
                    for i0 in 0..b[0] {
                        let addr = i64::from(pat.base)
                            + i64::from(i0) * i64::from(pat.strides[0])
                            + i64::from(i1) * i64::from(pat.strides[1])
                            + i64::from(i2) * i64::from(pat.strides[2])
                            + i64::from(i3) * i64::from(pat.strides[3]);
                        for _ in 0..=pat.repeat {
                            want.push(addr as u32);
                        }
                    }
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn read_stream_delivers_memory_contents_in_order(
        n in 1u32..40,
        capacity in 1usize..6,
    ) {
        let mut tcdm = Tcdm::new(TcdmConfig::new().with_size(8192).with_banks(8));
        for i in 0..n {
            tcdm.write_f64(i * 8, f64::from(i) * 1.5).unwrap();
        }
        let mut dm = DataMover::new(0, sc_mem::PortId(1), capacity);
        dm.arm(AffinePattern::linear_f64(0, n), StreamDir::Read).unwrap();
        let mut got = Vec::new();
        let mut guard = 0;
        while !dm.is_done() {
            guard += 1;
            prop_assert!(guard < 10_000, "stream did not converge");
            if dm.can_pop() {
                got.push(f64::from_bits(dm.pop().unwrap()));
            }
            if let Some(req) = dm.request() {
                let g = tcdm.arbitrate(&[req]);
                if g[0] {
                    dm.apply_grant(&mut tcdm).unwrap();
                }
            }
            dm.advance();
        }
        let want: Vec<f64> = (0..n).map(|i| f64::from(i) * 1.5).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn cfg_addr_roundtrips(dm in 0u8..32, reg in 0u8..128) {
        let a = CfgAddr { dm, reg };
        prop_assert_eq!(CfgAddr::from_imm(a.to_imm()), a);
    }
}
