//! Regenerates Figures 5a and 5b (reduced µ-op budget; use the `figures` binary for
//! full-length runs).

use bebop::SpeedupSummary;
use bebop_bench::{
    format_summary, run_fig5a, run_fig5b, workloads, TraceCachePolicy, TraceSet, BENCH_UOPS,
};

fn main() {
    let set = TraceSet::build(&workloads(true), BENCH_UOPS, &TraceCachePolicy::default());
    let figures = [
        (
            "Figure 5a: predictors over Baseline_6_60",
            run_fig5a(&set, BENCH_UOPS),
        ),
        (
            "Figure 5b: EOLE_4_60 over Baseline_VP_6_60",
            run_fig5b(&set, BENCH_UOPS),
        ),
    ];
    for (title, out) in figures {
        println!("[bench] {title} ({BENCH_UOPS} uops)");
        for (label, results) in out.groups {
            println!(
                "{}",
                format_summary(&label, &SpeedupSummary::from_results(&results))
            );
        }
    }
}
