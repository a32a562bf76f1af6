//! Merge planning: partition the inputs of a k-way run merge into
//! *move* segments (blocks relinked verbatim) and *merge* segments
//! (blocks decoded and folded).
//!
//! A 2-pass merge of sorted runs only needs to decode a data block when
//! its key range actually interleaves with another input — exactly the
//! information the per-block [`crate::format::ZoneMap`]s already hold. The
//! [`MergePlanner`] sweeps every input block's `[min_key, max_key]`
//! interval and groups overlapping intervals into connected components:
//!
//! ```text
//! run 0:  [0‥9][10‥19]      [40‥49][50‥59]
//! run 1:            [15‥29]               [70‥79][80‥99]
//!         ╰──╯╰───────────╯ ╰────────────╯╰────────────╯
//!         move    merge          move          move
//! ```
//!
//! * A component whose blocks all come from **one** run becomes a
//!   [`Segment::Move`]: the executor copies the raw encoded bytes
//!   (CRC-checked, never delta-decoded) into the output run, reusing
//!   the existing zone entries.
//! * A component spanning **several** runs becomes a [`Segment::Merge`]:
//!   those blocks are decoded and fed through the ordinary k-way fold.
//!
//! Intervals are closed, so two blocks that merely share a boundary key
//! land in the same component — entries for one key can straddle block
//! (and run) boundaries, and correctness requires that all of them meet
//! in a single merge segment or stay in run order inside a single move
//! segment. Because components have pairwise-disjoint key hulls and are
//! emitted in key order, concatenating their outputs yields one run
//! sorted by `(key, ts)`.
//!
//! The plan makes compaction cost proportional to *overlap*, not input
//! size: fully disjoint inputs decode zero bytes.

use std::ops::Range;

use crate::format::BlockRunMeta;

/// One unit of work in a [`MergePlan`], in output key order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Segment {
    /// A contiguous range of blocks from a single input run whose keys
    /// overlap no other input: relink the raw bytes, never decode.
    Move {
        /// Index of the input run (position in the planner's inputs).
        run: usize,
        /// Contiguous block indices within that run.
        blocks: Range<usize>,
    },
    /// Blocks from two or more runs whose key ranges interleave: decode
    /// and k-way merge.
    Merge {
        /// Smallest key of the component (inclusive).
        min_key: u64,
        /// Largest key of the component (inclusive).
        max_key: u64,
        /// Per-run contiguous block ranges participating in this
        /// segment (runs without overlapping blocks are absent).
        parts: Vec<(usize, Range<usize>)>,
    },
}

/// The ordered partition of a k-way merge into move and merge segments,
/// plus the aggregate counts executors report.
#[derive(Debug, Clone, Default)]
pub struct MergePlan {
    /// Segments in ascending key order.
    pub segments: Vec<Segment>,
    /// Number of input runs that contribute at least one block.
    pub fan_in: usize,
    /// Blocks relinked without decoding.
    pub blocks_moved: usize,
    /// Blocks that must be decoded and merged.
    pub blocks_merged: usize,
    /// Encoded bytes of the moved blocks.
    pub bytes_moved: u64,
    /// Encoded bytes of the merged (decoded) blocks.
    pub bytes_to_decode: u64,
}

/// Plans a k-way merge of block runs from their zone maps alone — no
/// data block is touched.
#[derive(Debug)]
pub struct MergePlanner<'a> {
    inputs: &'a [&'a BlockRunMeta],
}

impl<'a> MergePlanner<'a> {
    /// A planner over `inputs` (the metadata of every run being merged,
    /// in any order; segment `run` indices refer to positions here).
    pub fn new(inputs: &'a [&'a BlockRunMeta]) -> Self {
        MergePlanner { inputs }
    }

    /// Compute the move/merge partition.
    pub fn plan(&self) -> MergePlan {
        // One interval per data block across all inputs.
        let mut intervals: Vec<(u64, u64, usize, usize)> = Vec::new(); // (min, max, run, block)
        for (run_idx, meta) in self.inputs.iter().enumerate() {
            for (block_idx, z) in meta.zones.iter().enumerate() {
                intervals.push((z.min_key, z.max_key, run_idx, block_idx));
            }
        }
        intervals.sort_unstable();

        let mut plan = MergePlan {
            fan_in: self.inputs.iter().filter(|m| !m.zones.is_empty()).count(),
            ..MergePlan::default()
        };

        // Sweep: closed intervals overlap when the next min is ≤ the
        // running hull max, so each connected component is a maximal
        // chain of such intervals.
        let mut i = 0;
        while i < intervals.len() {
            let mut hull_max = intervals[i].1;
            let mut j = i + 1;
            while j < intervals.len() && intervals[j].0 <= hull_max {
                hull_max = hull_max.max(intervals[j].1);
                j += 1;
            }
            self.emit_component(&intervals[i..j], &mut plan);
            i = j;
        }
        plan
    }

    fn emit_component(&self, members: &[(u64, u64, usize, usize)], plan: &mut MergePlan) {
        // Group the component's blocks by run. Blocks of one run are
        // key-ordered and disjoint up to boundary keys, so the members
        // from a given run always form a contiguous index range.
        let mut parts: Vec<(usize, Range<usize>)> = Vec::new();
        for &(_, _, run, block) in members {
            match parts.iter_mut().find(|(r, _)| *r == run) {
                Some((_, range)) => {
                    debug_assert_eq!(range.end, block, "blocks of one run are contiguous");
                    range.end = block + 1;
                }
                None => parts.push((run, block..block + 1)),
            }
        }
        let bytes: u64 = parts
            .iter()
            .flat_map(|(run, range)| self.inputs[*run].zones[range.clone()].iter())
            .map(|z| z.len as u64)
            .sum();
        let blocks = members.len();

        if parts.len() == 1 {
            let (run, blocks_range) = parts.pop().expect("single part");
            plan.blocks_moved += blocks;
            plan.bytes_moved += bytes;
            // Coalesce with a preceding move of the same run: adjacent
            // components from one run are already in output order, and
            // one wide segment means one wide sequential read.
            if let Some(Segment::Move {
                run: prev_run,
                blocks: prev_blocks,
            }) = plan.segments.last_mut()
            {
                if *prev_run == run && prev_blocks.end == blocks_range.start {
                    prev_blocks.end = blocks_range.end;
                    return;
                }
            }
            plan.segments.push(Segment::Move {
                run,
                blocks: blocks_range,
            });
        } else {
            parts.sort_unstable_by_key(|(run, _)| *run);
            plan.blocks_merged += blocks;
            plan.bytes_to_decode += bytes;
            plan.segments.push(Segment::Merge {
                min_key: members.iter().map(|m| m.0).min().expect("non-empty"),
                max_key: members.iter().map(|m| m.1).max().expect("non-empty"),
                parts,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ZoneMap;

    fn meta_with_zones(ranges: &[(u64, u64)]) -> BlockRunMeta {
        let mut meta = BlockRunMeta::synthetic(
            ranges.first().map_or(u64::MAX, |r| r.0),
            ranges.last().map_or(0, |r| r.1),
            1,
            1,
            ranges.len() as u64,
        );
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            meta.zones.push(ZoneMap {
                offset: i as u64 * 100,
                len: 100,
                count: 1,
                min_key: lo,
                max_key: hi,
                min_ts: 1,
                max_ts: 1,
                crc: 0,
                raw_len: 100,
                codec_id: masm_codec::IDENTITY,
            });
        }
        meta
    }

    fn plan_of(runs: &[&BlockRunMeta]) -> MergePlan {
        MergePlanner::new(runs).plan()
    }

    #[test]
    fn fully_disjoint_runs_are_pure_moves() {
        let a = meta_with_zones(&[(0, 9), (10, 19)]);
        let b = meta_with_zones(&[(100, 109), (110, 119)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(plan.blocks_merged, 0);
        assert_eq!(plan.blocks_moved, 4);
        assert_eq!(plan.bytes_to_decode, 0);
        assert_eq!(plan.fan_in, 2);
        assert_eq!(
            plan.segments,
            vec![
                Segment::Move {
                    run: 0,
                    blocks: 0..2
                },
                Segment::Move {
                    run: 1,
                    blocks: 0..2
                },
            ]
        );
    }

    #[test]
    fn interleaved_disjoint_runs_alternate_moves_in_key_order() {
        let a = meta_with_zones(&[(0, 9), (40, 49)]);
        let b = meta_with_zones(&[(20, 29), (60, 69)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(
            plan.segments,
            vec![
                Segment::Move {
                    run: 0,
                    blocks: 0..1
                },
                Segment::Move {
                    run: 1,
                    blocks: 0..1
                },
                Segment::Move {
                    run: 0,
                    blocks: 1..2
                },
                Segment::Move {
                    run: 1,
                    blocks: 1..2
                },
            ]
        );
    }

    #[test]
    fn overlapping_blocks_form_merge_segment() {
        let a = meta_with_zones(&[(0, 9), (10, 30), (50, 59)]);
        let b = meta_with_zones(&[(15, 29), (70, 79)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(plan.blocks_merged, 2);
        assert_eq!(plan.blocks_moved, 3);
        assert_eq!(
            plan.segments,
            vec![
                Segment::Move {
                    run: 0,
                    blocks: 0..1
                },
                Segment::Merge {
                    min_key: 10,
                    max_key: 30,
                    parts: vec![(0, 1..2), (1, 0..1)],
                },
                Segment::Move {
                    run: 0,
                    blocks: 2..3
                },
                Segment::Move {
                    run: 1,
                    blocks: 1..2
                },
            ]
        );
    }

    #[test]
    fn shared_boundary_key_joins_components() {
        // Key 20 ends a's block and starts b's block: the entries for
        // key 20 may live in both, so they must merge.
        let a = meta_with_zones(&[(0, 20)]);
        let b = meta_with_zones(&[(20, 40)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(plan.segments.len(), 1);
        assert!(matches!(plan.segments[0], Segment::Merge { .. }));
    }

    #[test]
    fn same_run_boundary_chain_stays_one_move() {
        // Blocks of one run sharing boundary keys still move verbatim:
        // in-run order already interleaves them correctly.
        let a = meta_with_zones(&[(0, 10), (10, 20), (20, 30)]);
        let b = meta_with_zones(&[(100, 110)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(
            plan.segments,
            vec![
                Segment::Move {
                    run: 0,
                    blocks: 0..3
                },
                Segment::Move {
                    run: 1,
                    blocks: 0..1
                },
            ]
        );
    }

    #[test]
    fn chained_overlap_pulls_in_same_run_neighbor() {
        // a's second block only touches a's first (boundary key 20), but
        // the first overlaps b — so all three must merge: key 20 entries
        // could otherwise split between a merge and a move segment.
        let a = meta_with_zones(&[(10, 20), (20, 30)]);
        let b = meta_with_zones(&[(5, 12)]);
        let plan = plan_of(&[&a, &b]);
        assert_eq!(plan.segments.len(), 1);
        match &plan.segments[0] {
            Segment::Merge {
                parts,
                min_key,
                max_key,
            } => {
                assert_eq!((*min_key, *max_key), (5, 30));
                assert_eq!(parts, &vec![(0, 0..2), (1, 0..1)]);
            }
            other => panic!("expected merge, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty = meta_with_zones(&[]);
        let a = meta_with_zones(&[(0, 9)]);
        let plan = plan_of(&[&empty, &a]);
        assert_eq!(plan.fan_in, 1);
        assert_eq!(
            plan.segments,
            vec![Segment::Move {
                run: 1,
                blocks: 0..1
            }]
        );
        assert!(plan_of(&[&empty]).segments.is_empty());
    }

    #[test]
    fn three_way_overlap_counts_all_parts() {
        let a = meta_with_zones(&[(0, 100)]);
        let b = meta_with_zones(&[(10, 50)]);
        let c = meta_with_zones(&[(60, 90)]);
        let plan = plan_of(&[&a, &b, &c]);
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.blocks_merged, 3);
        match &plan.segments[0] {
            Segment::Merge { parts, .. } => assert_eq!(parts.len(), 3),
            other => panic!("expected merge, got {other:?}"),
        }
    }
}
