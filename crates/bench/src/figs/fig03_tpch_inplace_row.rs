//! Figure 3: TPC-H queries with concurrent random in-place updates on a
//! row store.
//!
//! Paper result: queries slow down 1.5–4.1× (2.2× on average), and the
//! slowdown exceeds "query alone + the same updates applied offline" by
//! 1.6× on average — the *interference* between the sequential scans and
//! the random updates, not just the second workload, is what hurts.

use masm_storage::MIB;
use masm_workloads::tpch::TPCH_QUERIES;

use crate::tpch_replay::TpchEnv;
use crate::{secs, Report};

pub(crate) fn run(mb: u64) -> Report {
    let total_bytes = mb * MIB;

    let mut rows = Vec::new();
    let mut sum_with = 0f64;
    let mut sum_sum = 0f64;
    for q in TPCH_QUERIES {
        // Fresh environment per query so in-place mutations don't leak.
        let env = TpchEnv::new(total_bytes);
        let no_updates = env.time_query(q, 1.0);

        let env2 = TpchEnv::new(total_bytes);
        let mut updater = env2.inplace_updater(9);
        let with_updates = env2.time_query_with(q, 1.0, &mut |now| updater.catch_up(now));
        let issued = updater.issued;

        // Same number of updates, applied alone (offline).
        let env3 = TpchEnv::new(total_bytes);
        let mut offline = env3.inplace_updater(9);
        let updates_alone = offline.apply_exactly(issued);

        let with_ratio = with_updates as f64 / no_updates as f64;
        let sum_ratio = (no_updates + updates_alone) as f64 / no_updates as f64;
        sum_with += with_ratio;
        sum_sum += sum_ratio;
        rows.push(vec![
            q.name.to_string(),
            format!("{:.3}", secs(no_updates)),
            format!("{with_ratio:.2}x"),
            format!("{sum_ratio:.2}x"),
        ]);
    }
    let n = TPCH_QUERIES.len() as f64;
    let mut report = Report::default();
    report.table(
        &format!("Figure 3 — TPC-H replay with in-place updates, row store ({mb} MiB of tables)"),
        &[
            "query",
            "no-updates (s)",
            "w/ updates",
            "query-only + update-only",
        ],
        &rows,
    );
    report.note(&format!(
        "averages: w/ updates {:.2}x, query+updates-offline {:.2}x (interference factor {:.2}x)\n\
         paper shape: 1.5-4.1x w/ updates (avg 2.2x); interference alone ~1.6x.",
        sum_with / n,
        sum_sum / n,
        sum_with / sum_sum
    ));
    report
}
