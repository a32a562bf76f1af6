//! Figure 14: TPC-H replay with online updates handled by MaSM.
//!
//! Paper result (SF 30 traces, 1 GB flash, 8 MB memory, 64 KB SSD I/O,
//! flash divided per table): in-place updates slow the queries 1.6–2.2×,
//! while MaSM matches the no-update times within 1% — fresh data with
//! essentially no I/O overhead, across queries that are themselves
//! multiple concurrent range scans.

use masm_storage::MIB;
use masm_workloads::tpch::TPCH_QUERIES;

use crate::tpch_replay::{TpchEnv, TpchMasm};
use crate::{secs, Report};

pub(crate) fn run(mb: u64) -> Report {
    let total_bytes = mb * MIB;
    // The paper uses 1 GB flash for ~30 GB of tables: 1/30.
    let flash = total_bytes / 30;

    let mut rows = Vec::new();
    let (mut sum_inplace, mut sum_masm) = (0f64, 0f64);
    for q in TPCH_QUERIES {
        let env = TpchEnv::new(total_bytes);
        let no_updates = env.time_query(q, 1.0);

        let env2 = TpchEnv::new(total_bytes);
        let mut updater = env2.inplace_updater(21);
        let inplace = env2.time_query_with(q, 1.0, &mut |now| updater.catch_up(now));

        // MaSM: flash 50% full at query start (§4.3).
        let env3 = TpchEnv::new(total_bytes);
        let masm = TpchMasm::new(&env3, flash);
        masm.fill(&env3, 0.5, 21);
        let masm_t = masm.time_query(&env3, q);

        let r_in = inplace as f64 / no_updates as f64;
        let r_masm = masm_t as f64 / no_updates as f64;
        sum_inplace += r_in;
        sum_masm += r_masm;
        rows.push(vec![
            q.name.to_string(),
            format!("{:.3}", secs(no_updates)),
            format!("{r_in:.2}x"),
            format!("{r_masm:.2}x"),
        ]);
    }
    let n = TPCH_QUERIES.len() as f64;
    let mut report = Report::default();
    report.table(
        &format!(
            "Figure 14 — TPC-H replay: no updates vs in-place vs MaSM \
             ({mb} MiB of tables, flash = tables/30, 50% full, per-table caches)"
        ),
        &["query", "no-updates (s)", "w/ in-place", "w/ MaSM"],
        &rows,
    );
    report.note(&format!(
        "averages: in-place {:.2}x, MaSM {:.2}x\n\
         paper shape: in-place 1.6-2.2x; MaSM within ~1% of the no-update times.",
        sum_inplace / n,
        sum_masm / n
    ));
    report
}
