//! Figure 4: TPC-H queries with emulated random in-place updates on a
//! column store.
//!
//! The paper's column-store DBMS only supports offline updates, so it
//! replays recorded update I/O traces alongside the queries. Column
//! scans read only the referenced columns — a fraction of each table's
//! bytes — which makes the sequential portion shorter relative to the
//! same random update traffic, and the measured slowdowns slightly
//! worse: 1.2–4.0× (2.6× on average).
//!
//! We emulate the column store by scaling every scan range to 35% of
//! its row-store bytes (a typical referenced-column fraction for TPC-H)
//! while the updates stay identical.

use masm_storage::MIB;
use masm_workloads::tpch::TPCH_QUERIES;

use crate::tpch_replay::TpchEnv;
use crate::{secs, Report};

const COLUMN_FRACTION: f64 = 0.35;

pub(crate) fn run(mb: u64) -> Report {
    let total_bytes = mb * MIB;

    let mut rows = Vec::new();
    let mut sum_with = 0f64;
    for q in TPCH_QUERIES {
        let env = TpchEnv::new(total_bytes);
        let no_updates = env.time_query(q, COLUMN_FRACTION);

        let env2 = TpchEnv::new(total_bytes);
        let mut updater = env2.inplace_updater(13);
        let with_updates =
            env2.time_query_with(q, COLUMN_FRACTION, &mut |now| updater.catch_up(now));

        let ratio = with_updates as f64 / no_updates as f64;
        sum_with += ratio;
        rows.push(vec![
            q.name.to_string(),
            format!("{:.3}", secs(no_updates)),
            format!("{ratio:.2}x"),
        ]);
    }
    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 4 — TPC-H replay with emulated in-place updates, column store \
             ({mb} MiB of tables, {:.0}% column fraction)",
            COLUMN_FRACTION * 100.0
        ),
        &["query", "no-updates (s)", "w/ updates"],
        &rows,
    );
    report.note(&format!(
        "average: {:.2}x\npaper shape: 1.2-4.0x slowdowns, 2.6x on average — worse than the\n\
         row store because column scans are shorter relative to the same update traffic.",
        sum_with / TPCH_QUERIES.len() as f64
    ));
    report
}
