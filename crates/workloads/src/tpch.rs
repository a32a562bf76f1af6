//! A TPC-H-like replay workload (§4.3).
//!
//! The paper records `blktrace` I/O traces of 20 TPC-H queries (SF 30,
//! queries 17 and 20 excluded — they did not finish) on a commercial row
//! store, and replays the *disk traces* against its prototype: "all the
//! 20 TPC-H queries perform (multiple) table range scans". We therefore
//! regenerate the same thing the traces encode — multi-table range-scan
//! sequences — from scaled tables with TPC-H's size proportions
//! (`lineitem` + `orders` hold >80% of the bytes). The per-query scan
//! profiles below are *synthetic approximations* of which tables each
//! query touches and how much of them it reads; they are not the real
//! traces (we cannot run the commercial DBMS), but they preserve what
//! the experiment measures: long sequential multi-scan queries whose
//! disk access patterns online updates may disturb.
//!
//! Updates follow §4.3: "we generate updates to be randomly distributed
//! across the lineitem and orders tables … an orders record and its
//! associated lineitem records are inserted or deleted together."

use std::sync::Arc;

use masm_core::update::UpdateOp;
use masm_pagestore::{BulkLoadError, HeapConfig, Key, Record, Schema, TableHeap};
use masm_storage::{SessionHandle, SimDevice};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The TPC-H tables we materialize.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Table {
    /// The fact table (~70% of bytes).
    Lineitem,
    /// Orders (~17%).
    Orders,
    /// Customer (~6%).
    Customer,
    /// Part (~5%).
    Part,
    /// Supplier (~2%).
    Supplier,
}

/// One range scan of a replayed query: a fraction of one table.
#[derive(Debug, Clone, Copy)]
pub struct ScanStep {
    /// Table scanned.
    pub table: Table,
    /// Start of the scanned key range as a fraction of the table.
    pub begin_frac: f64,
    /// End of the scanned key range as a fraction of the table.
    pub end_frac: f64,
}

const fn step(table: Table, begin_frac: f64, end_frac: f64) -> ScanStep {
    ScanStep {
        table,
        begin_frac,
        end_frac,
    }
}

/// A replayable query: a name and its scan steps.
#[derive(Debug, Clone, Copy)]
pub struct QueryProfile {
    /// Query name (e.g. "q1").
    pub name: &'static str,
    /// The range scans the query performs, in order.
    pub steps: &'static [ScanStep],
}

use Table::*;

/// The 20 replayable TPC-H queries (17 and 20 excluded, as in §4.1).
pub const TPCH_QUERIES: &[QueryProfile] = &[
    QueryProfile {
        name: "q1",
        steps: &[step(Lineitem, 0.0, 0.95)],
    },
    QueryProfile {
        name: "q2",
        steps: &[step(Part, 0.0, 0.3), step(Supplier, 0.0, 1.0)],
    },
    QueryProfile {
        name: "q3",
        steps: &[
            step(Customer, 0.0, 0.3),
            step(Orders, 0.0, 0.5),
            step(Lineitem, 0.0, 0.55),
        ],
    },
    QueryProfile {
        name: "q4",
        steps: &[step(Orders, 0.0, 1.0), step(Lineitem, 0.2, 0.5)],
    },
    QueryProfile {
        name: "q5",
        steps: &[
            step(Customer, 0.0, 0.6),
            step(Orders, 0.1, 0.6),
            step(Lineitem, 0.1, 0.6),
            step(Supplier, 0.0, 1.0),
        ],
    },
    QueryProfile {
        name: "q6",
        steps: &[step(Lineitem, 0.0, 1.0)],
    },
    QueryProfile {
        name: "q7",
        steps: &[step(Lineitem, 0.2, 0.7), step(Orders, 0.3, 0.7)],
    },
    QueryProfile {
        name: "q8",
        steps: &[
            step(Part, 0.0, 0.2),
            step(Lineitem, 0.3, 0.7),
            step(Orders, 0.2, 0.5),
        ],
    },
    QueryProfile {
        name: "q9",
        steps: &[
            step(Part, 0.0, 0.5),
            step(Lineitem, 0.0, 1.0),
            step(Orders, 0.0, 0.5),
        ],
    },
    QueryProfile {
        name: "q10",
        steps: &[
            step(Customer, 0.0, 1.0),
            step(Orders, 0.3, 0.7),
            step(Lineitem, 0.3, 0.6),
        ],
    },
    QueryProfile {
        name: "q11",
        steps: &[step(Supplier, 0.0, 1.0), step(Part, 0.4, 0.7)],
    },
    QueryProfile {
        name: "q12",
        steps: &[step(Orders, 0.0, 0.6), step(Lineitem, 0.2, 0.6)],
    },
    QueryProfile {
        name: "q13",
        steps: &[step(Customer, 0.0, 1.0), step(Orders, 0.0, 1.0)],
    },
    QueryProfile {
        name: "q14",
        steps: &[step(Lineitem, 0.4, 0.7), step(Part, 0.0, 0.4)],
    },
    QueryProfile {
        name: "q15",
        steps: &[step(Lineitem, 0.2, 0.7), step(Supplier, 0.0, 1.0)],
    },
    QueryProfile {
        name: "q16",
        steps: &[step(Part, 0.0, 0.6), step(Supplier, 0.0, 0.3)],
    },
    QueryProfile {
        name: "q18",
        steps: &[
            step(Customer, 0.0, 0.4),
            step(Orders, 0.0, 1.0),
            step(Lineitem, 0.0, 1.0),
        ],
    },
    QueryProfile {
        name: "q19",
        steps: &[step(Lineitem, 0.3, 0.7), step(Part, 0.0, 0.3)],
    },
    QueryProfile {
        name: "q21",
        steps: &[
            step(Supplier, 0.0, 0.5),
            step(Lineitem, 0.0, 1.0),
            step(Orders, 0.2, 0.8),
        ],
    },
    QueryProfile {
        name: "q22",
        steps: &[step(Customer, 0.0, 0.5), step(Orders, 0.0, 0.3)],
    },
];

/// The scaled TPC-H-like tables, all on one disk device (so queries and
/// updates interfere exactly as they would on the paper's single SATA
/// disk).
pub struct TpchTables {
    /// lineitem (the fact table).
    pub lineitem: Arc<TableHeap>,
    /// orders.
    pub orders: Arc<TableHeap>,
    /// customer.
    pub customer: Arc<TableHeap>,
    /// part.
    pub part: Arc<TableHeap>,
    /// supplier.
    pub supplier: Arc<TableHeap>,
    /// The shared 100-byte record schema.
    pub schema: Schema,
}

impl TpchTables {
    /// Build tables totalling ≈`total_bytes` of record data on `disk`,
    /// in TPC-H's byte proportions.
    pub fn build(
        disk: &SimDevice,
        session: &SessionHandle,
        total_bytes: u64,
    ) -> Result<TpchTables, BulkLoadError> {
        let schema = Schema::synthetic_100b();
        let proportions: [(Table, f64); 5] = [
            (Lineitem, 0.70),
            (Orders, 0.17),
            (Customer, 0.06),
            (Part, 0.05),
            (Supplier, 0.02),
        ];
        let mut heaps = Vec::new();
        for (_, frac) in proportions {
            let records = ((total_bytes as f64 * frac) / 100.0) as u64;
            let heap = Arc::new(TableHeap::new(disk.clone(), HeapConfig::default()));
            let schema = schema.clone();
            heap.bulk_load(
                session,
                (0..records.max(10)).map(move |i| {
                    let mut payload = schema.empty_payload();
                    schema.set_u32(&mut payload, 0, (i % u32::MAX as u64) as u32);
                    Record::new(i * 2, payload)
                }),
                1.0,
            )?;
            heaps.push(heap);
        }
        let mut it = heaps.into_iter();
        Ok(TpchTables {
            lineitem: it.next().expect("5 heaps"),
            orders: it.next().expect("5 heaps"),
            customer: it.next().expect("5 heaps"),
            part: it.next().expect("5 heaps"),
            supplier: it.next().expect("5 heaps"),
            schema,
        })
    }

    /// Heap of a table.
    pub fn heap(&self, t: Table) -> &Arc<TableHeap> {
        match t {
            Lineitem => &self.lineitem,
            Orders => &self.orders,
            Customer => &self.customer,
            Part => &self.part,
            Supplier => &self.supplier,
        }
    }

    /// Translate a scan step into a concrete key range on its table.
    pub fn key_range(&self, s: &ScanStep) -> (Key, Key) {
        let heap = self.heap(s.table);
        let records = heap.record_count().max(1);
        let max_key = records * 2;
        let begin = (s.begin_frac * max_key as f64) as Key;
        let end = (s.end_frac * max_key as f64) as Key;
        (begin, end.max(begin))
    }
}

/// One correlated TPC-H update: an orders row and its lineitems inserted
/// or deleted together.
#[derive(Debug, Clone)]
pub struct TpchUpdate {
    /// The table each sub-update applies to.
    pub ops: Vec<(Table, Key, UpdateOp)>,
}

/// Generator of correlated orders+lineitem updates, uniformly
/// distributed across both tables.
pub struct TpchUpdateGen {
    orders_slots: u64,
    lineitem_slots: u64,
    schema: Schema,
    rng: StdRng,
}

impl TpchUpdateGen {
    /// Build a generator for `tables` with a deterministic `seed`.
    pub fn new(tables: &TpchTables, seed: u64) -> Self {
        TpchUpdateGen {
            orders_slots: tables.orders.record_count().max(1),
            lineitem_slots: tables.lineitem.record_count().max(1),
            schema: tables.schema.clone(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Next correlated update group.
    pub fn next_group(&mut self) -> TpchUpdate {
        let insert: bool = self.rng.gen();
        let order_slot = self.rng.gen_range(0..self.orders_slots);
        let n_items = self.rng.gen_range(1..=4u64);
        let mut ops = Vec::with_capacity(1 + n_items as usize);
        if insert {
            let mut payload = self.schema.empty_payload();
            self.schema.set_u32(&mut payload, 0, self.rng.gen());
            ops.push((Orders, order_slot * 2 + 1, UpdateOp::Insert(payload)));
            for _ in 0..n_items {
                let li_slot = self.rng.gen_range(0..self.lineitem_slots);
                let mut payload = self.schema.empty_payload();
                self.schema.set_u32(&mut payload, 0, self.rng.gen());
                ops.push((Lineitem, li_slot * 2 + 1, UpdateOp::Insert(payload)));
            }
        } else {
            ops.push((Orders, order_slot * 2, UpdateOp::Delete));
            for _ in 0..n_items {
                let li_slot = self.rng.gen_range(0..self.lineitem_slots);
                ops.push((Lineitem, li_slot * 2, UpdateOp::Delete));
            }
        }
        TpchUpdate { ops }
    }
}

impl Iterator for TpchUpdateGen {
    type Item = TpchUpdate;

    fn next(&mut self) -> Option<TpchUpdate> {
        Some(self.next_group())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use masm_storage::{DeviceProfile, SimClock};

    fn setup(bytes: u64) -> (TpchTables, SessionHandle) {
        let clock = SimClock::new();
        let disk = SimDevice::in_memory(DeviceProfile::hdd_barracuda(), clock.clone());
        let session = SessionHandle::fresh(clock);
        let tables = TpchTables::build(&disk, &session, bytes).unwrap();
        (tables, session)
    }

    #[test]
    fn proportions_roughly_hold() {
        let (t, _) = setup(10_000_000); // 10 MB of records
        let li = t.lineitem.data_bytes() as f64;
        let total = [Lineitem, Orders, Customer, Part, Supplier]
            .iter()
            .map(|&x| t.heap(x).data_bytes() as f64)
            .sum::<f64>();
        let frac = li / total;
        assert!((0.6..0.8).contains(&frac), "lineitem fraction {frac}");
        // lineitem + orders dominate (>80%, §4.3).
        let dom = (li + t.orders.data_bytes() as f64) / total;
        assert!(dom > 0.8, "lineitem+orders fraction {dom}");
    }

    /// The five heaps share one disk: a full scan of each returns
    /// exactly the keys loaded into it, so no bulk load wrote over the
    /// pages of a table loaded before it.
    #[test]
    fn tables_sharing_a_disk_keep_their_own_records() {
        let (t, s) = setup(8 << 20);
        for table in [Lineitem, Orders, Customer, Part, Supplier] {
            let heap = t.heap(table);
            let got: Vec<Key> = heap
                .scan_range(s.clone(), 0, Key::MAX)
                .map(|r| r.key)
                .collect();
            let want: Vec<Key> = (0..heap.record_count()).map(|i| i * 2).collect();
            assert!(
                got == want,
                "{table:?}: {} of {} keys",
                got.len(),
                want.len()
            );
        }
    }

    #[test]
    fn all_twenty_queries_replay() {
        let (t, s) = setup(2_000_000);
        assert_eq!(TPCH_QUERIES.len(), 20);
        for q in TPCH_QUERIES {
            let n: usize = q
                .steps
                .iter()
                .map(|step| {
                    let (b, e) = t.key_range(step);
                    t.heap(step.table).scan_range(s.clone(), b, e).count()
                })
                .sum();
            assert!(n > 0, "{} scanned nothing", q.name);
        }
    }

    #[test]
    fn key_ranges_are_within_tables() {
        let (t, _) = setup(1_000_000);
        for q in TPCH_QUERIES {
            for s in q.steps {
                let (b, e) = t.key_range(s);
                assert!(b <= e);
                assert!(e <= t.heap(s.table).record_count() * 2 + 2);
            }
        }
    }

    #[test]
    fn update_groups_are_correlated_and_deterministic() {
        let (t, _) = setup(1_000_000);
        let mut g1 = TpchUpdateGen::new(&t, 7);
        let mut g2 = TpchUpdateGen::new(&t, 7);
        for _ in 0..50 {
            let a = g1.next_group();
            let b = g2.next_group();
            assert_eq!(a.ops.len(), b.ops.len());
            assert_eq!(a.ops[0].0, Orders, "group leads with an orders op");
            assert!(a.ops.len() >= 2 && a.ops.len() <= 5);
            assert!(a.ops[1..].iter().all(|(t, _, _)| *t == Lineitem));
            // Insert groups are all-insert; delete groups all-delete.
            let is_insert = matches!(a.ops[0].2, UpdateOp::Insert(_));
            for (_, key, op) in &a.ops {
                match op {
                    UpdateOp::Insert(_) => {
                        assert!(is_insert);
                        assert_eq!(key % 2, 1);
                    }
                    UpdateOp::Delete => {
                        assert!(!is_insert);
                        assert_eq!(key % 2, 0);
                    }
                    _ => panic!("unexpected op"),
                }
            }
        }
    }
}
