//! A seeded turn-taking schedule.

use std::collections::VecDeque;

use masm_core::ts::Timestamp;
use masm_core::MergeScan;
use masm_pagestore::{Key, Record};
use masm_storage::SessionHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{assert_rows, Model, Op, Outcome, Table};

/// Writers, scanners and maintenance as lanes that take turns on one
/// thread, each on its own session, in an order a seed picks: an
/// interleaving is a seed, and a seed replays it. A step that fills a
/// buffer flushes it on its own lane's session.
///
/// A scanner's scan stays open across the turns of the other lanes. A
/// migration waits for the queries older than it, and a crash ends
/// them, so before a lane migrates or crashes the open scans are read to
/// the end — the order the engine's own contract imposes.
#[derive(Debug)]
pub struct Lanes {
    seed: u64,
    lanes: Vec<Lane>,
}

#[derive(Debug)]
enum Lane {
    /// Steps run in order, one per turn.
    Ops(VecDeque<Op>),
    /// Scans of `[begin, end]` still to open, one after another.
    Scans { begin: Key, end: Key, left: usize },
}

/// What one lane did on one turn.
#[derive(Debug, Clone, PartialEq)]
pub enum Turn {
    /// Ran a step, with what it returned.
    Step(usize, Op, Outcome),
    /// Opened a scan at a timestamp.
    Open(usize, Timestamp),
    /// Read this many more records of its scan.
    Read(usize, usize),
    /// Its scan ended, having returned this many records, all of them
    /// the model's.
    Done(usize, usize),
}

/// A scanner's open scan and what it has returned so far.
struct Open {
    scan: MergeScan,
    begin: Key,
    end: Key,
    got: Vec<Record>,
}

impl Open {
    /// Read up to `n` more records; whether the scan has ended.
    fn read(&mut self, n: usize) -> bool {
        for _ in 0..n {
            match self.scan.next() {
                Some(record) => self.got.push(record),
                None => return true,
            }
        }
        false
    }

    /// Read to the end and hold everything read to `model`.
    fn finish(mut self, lane: usize, model: &Model) -> Turn {
        self.read(usize::MAX);
        let ts = self.scan.timestamp();
        if let Some(e) = self.scan.error() {
            panic!("lane {lane}: the scan at {ts} failed: {e}");
        }
        let want = model.scan(self.begin, self.end, ts);
        let what = format_args!("lane {lane}: the scan at {ts}");
        assert_rows(&self.got, &want, what);
        Turn::Done(lane, self.got.len())
    }
}

impl Lanes {
    /// No lanes yet; `seed` will pick the turns.
    pub fn new(seed: u64) -> Lanes {
        Lanes {
            seed,
            lanes: Vec::new(),
        }
    }

    /// A lane that runs `ops` in order, one per turn.
    pub fn ops(mut self, ops: impl IntoIterator<Item = Op>) -> Lanes {
        self.lanes.push(Lane::Ops(ops.into_iter().collect()));
        self
    }

    /// A lane that takes `scans` scans of `[begin, end]`, one after
    /// another: each opens on one turn and reads a seeded handful of
    /// records (1 to 64) on each turn after, until it ends.
    pub fn scans(mut self, begin: Key, end: Key, scans: usize) -> Lanes {
        let left = scans;
        self.lanes.push(Lane::Scans { begin, end, left });
        self
    }

    /// Run every lane to its end on `table`, which `model` describes:
    /// steps go through the lane's own session as in [`Table::step`],
    /// and every scan is held to
    /// `model` at its timestamp once it has ended. The trace: what each
    /// turn did.
    pub fn run(mut self, table: &mut Table, model: &mut Model) -> Vec<Turn> {
        let sessions: Vec<SessionHandle> = self.lanes.iter().map(|_| table.dev.session()).collect();
        let mut open: Vec<Option<Open>> = self.lanes.iter().map(|_| None).collect();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut trace = Vec::new();
        loop {
            let ready: Vec<usize> = (0..self.lanes.len())
                .filter(|&i| match &self.lanes[i] {
                    Lane::Ops(ops) => !ops.is_empty(),
                    Lane::Scans { left, .. } => *left > 0 || open[i].is_some(),
                })
                .collect();
            if ready.is_empty() {
                return trace;
            }
            let lane = ready[rng.gen_range(0..ready.len())];
            let turn = match &mut self.lanes[lane] {
                Lane::Ops(ops) => {
                    let op = ops.pop_front().expect("a ready lane");
                    if matches!(op, Op::Migrate | Op::MigrateRange(..) | Op::Crash) {
                        for (i, scan) in open.iter_mut().enumerate() {
                            if let Some(scan) = scan.take() {
                                trace.push(scan.finish(i, model));
                            }
                        }
                    }
                    let outcome = table.step_on(model, &sessions[lane], &op);
                    Turn::Step(lane, op, outcome)
                }
                Lane::Scans { begin, end, left } => match open[lane].take() {
                    None => {
                        *left -= 1;
                        let (begin, end) = (*begin, *end);
                        let scan = table.scan_at(&sessions[lane], begin, end, None);
                        let scan = scan.expect("open a scan");
                        let ts = scan.timestamp();
                        let got = Vec::new();
                        open[lane] = Some(Open {
                            scan,
                            begin,
                            end,
                            got,
                        });
                        Turn::Open(lane, ts)
                    }
                    Some(mut scan) => {
                        let n = rng.gen_range(1..=64);
                        if scan.read(n) {
                            scan.finish(lane, model)
                        } else {
                            open[lane] = Some(scan);
                            Turn::Read(lane, n)
                        }
                    }
                },
            };
            trace.push(turn);
        }
    }
}
