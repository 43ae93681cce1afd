//! `Pipeline` keeps its execute stages in a ring and advances in O(1)
//! unless the writeback slot is blocked. This pins it to the plain
//! stage-array implementation it replaced — every stage walked every
//! cycle — over random issue / retire / advance sequences with blocked
//! writebacks and bubbles, at every depth from 1 to 6.

use proptest::test_runner::{seed_from_name, TestRng};
use sc_fpu::Pipeline;

/// The reference: `stages[0]` is the first execute stage, and
/// `advance` walks all of them every call.
struct ReferencePipeline<T> {
    stages: Vec<Option<T>>,
    writeback: Option<T>,
    pending: Option<T>,
    blocked_cycles: u64,
    issued: u64,
}

impl<T> ReferencePipeline<T> {
    fn new(depth: u32) -> Self {
        ReferencePipeline {
            stages: (0..depth).map(|_| None).collect(),
            writeback: None,
            pending: None,
            blocked_cycles: 0,
            issued: 0,
        }
    }

    fn can_issue(&self) -> bool {
        if self.pending.is_some() {
            return false;
        }
        if self.stages[0].is_none() {
            return true;
        }
        self.writeback.is_none() || self.stages.iter().any(Option::is_none)
    }

    fn issue(&mut self, op: T) {
        assert!(self.can_issue());
        self.pending = Some(op);
        self.issued += 1;
    }

    fn advance(&mut self) {
        let depth = self.stages.len();
        if self.writeback.is_none() {
            self.writeback = self.stages[depth - 1].take();
        } else {
            self.blocked_cycles += 1;
        }
        for i in (1..depth).rev() {
            if self.stages[i].is_none() {
                self.stages[i] = self.stages[i - 1].take();
            }
        }
        if let Some(op) = self.pending.take() {
            self.stages[0] = Some(op);
        }
    }

    fn occupancy(&self) -> usize {
        self.stages.iter().filter(|s| s.is_some()).count()
            + usize::from(self.writeback.is_some())
            + usize::from(self.pending.is_some())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.writeback
            .iter()
            .chain(self.stages.iter().rev().flatten())
            .chain(self.pending.iter())
    }
}

/// Draws `true` with probability `percent`/100.
fn chance(rng: &mut TestRng, percent: u64) -> bool {
    rng.next_u64() % 100 < percent
}

#[test]
fn ring_pipeline_matches_the_stage_array_reference() {
    let mut rng = TestRng::new(seed_from_name("ring_pipeline_matches_the_stage_array"));
    let mut blocked_advances = 0;
    for run in 0..600u32 {
        let depth = 1 + run % 6;
        // Per run, how eagerly the consumer retires and the producer
        // issues: low retire rates pack the pipeline behind a blocked
        // writeback, low issue rates leave bubbles to compress.
        let retire = 10 + rng.next_u64() % 90;
        let issue = 10 + rng.next_u64() % 90;
        let mut ring: Pipeline<u32> = Pipeline::new(depth);
        let mut reference = ReferencePipeline::new(depth);
        let mut next = 0;
        for cycle in 0..200 {
            if chance(&mut rng, retire) {
                assert_eq!(ring.take_ready(), reference.writeback.take());
            }
            assert_eq!(
                ring.can_issue(),
                reference.can_issue(),
                "run {run} cycle {cycle}"
            );
            if ring.can_issue() && chance(&mut rng, issue) {
                ring.issue(next);
                reference.issue(next);
                next += 1;
            }
            blocked_advances += usize::from(ring.ready().is_some());
            ring.advance();
            reference.advance();
            assert_eq!(ring.ready(), reference.writeback.as_ref());
            assert_eq!(ring.occupancy(), reference.occupancy());
            assert_eq!(ring.is_empty(), reference.occupancy() == 0);
            assert!(
                ring.iter().eq(reference.iter()),
                "run {run} cycle {cycle}: in-flight order differs"
            );
            assert_eq!(ring.blocked_cycles(), reference.blocked_cycles);
            assert_eq!(ring.issued(), reference.issued);
        }
    }
    assert!(blocked_advances > 10_000, "blocked writebacks exercised");
}
