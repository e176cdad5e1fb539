//! The `search` workload: repeated `qcapsnets::run_library` over TRN, RTN
//! and SR on the trained ShallowCaps-S — the paper's Algorithm 1 plus the
//! §III-B scheme selection.

use crate::loadgen::Rng;
use crate::model::{self, EVAL_BATCH};
use crate::proc;
use crate::registry::Readings;
use crate::stats;
use crate::timed::TimedCapsNet;
use crate::trace;
use crate::Outcome;
use qcapsnets::{
    run, run_library, select, EvalStats, Evaluator, FrameworkConfig, LibraryReport, QuantResult,
    SearchAccel, Selection,
};
use qcn_capsnet::{CapsNet, ShallowCaps};
use qcn_datasets::Dataset;
use qcn_fixed::RoundingScheme;
use std::time::Instant;

const LIBRARY: [RoundingScheme; 3] = [
    RoundingScheme::Truncation,
    RoundingScheme::RoundToNearest,
    RoundingScheme::Stochastic,
];

/// Everything a repetition needs, built in set-up.
struct Bench {
    plain: ShallowCaps,
    timed: TimedCapsNet<ShallowCaps>,
    eval_set: Dataset,
    acc_fp32: f32,
    base: FrameworkConfig,
    schemes: Vec<RoundingScheme>,
}

/// The order the library lists its schemes in, drawn from the seed. The
/// selection rules do not depend on it, so every seed selects the same
/// configuration.
fn library_order(seed: u64) -> Vec<RoundingScheme> {
    let mut order = LIBRARY.to_vec();
    let mut rng = Rng::new(seed, 0);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

fn set_up(seed: u64) -> Result<Bench, String> {
    let (plain, eval_set, acc_fp32) = model::load_checked()?;
    let total_weights: u64 = plain.groups().iter().map(|g| g.weight_count as u64).sum();
    // bench_report's `search_base`: 10 % accuracy tolerance, 8 bits per
    // weight, fractional widths up to 6.
    let base = FrameworkConfig {
        acc_tol: 0.1,
        memory_budget_bits: total_weights * 8,
        eval_batch: EVAL_BATCH,
        max_frac_bits: 6,
        ..FrameworkConfig::default()
    };
    Ok(Bench {
        timed: TimedCapsNet::new(plain.clone()),
        plain,
        eval_set,
        acc_fp32,
        base,
        schemes: library_order(seed),
    })
}

fn scheme_label(s: RoundingScheme) -> &'static str {
    match s {
        RoundingScheme::Truncation => "TRN",
        RoundingScheme::RoundToNearest => "RTN",
        RoundingScheme::Stochastic => "SR",
        _ => "other",
    }
}

/// The results a selection carries: one, or the two Path B slots.
fn results(sel: &Selection) -> Vec<&QuantResult> {
    match sel {
        Selection::Satisfied { result, .. } => vec![result],
        Selection::Fallback {
            memory, accuracy, ..
        } => vec![&memory.1, &accuracy.1],
    }
}

/// Same scheme(s), configurations and accuracy bits.
fn identical(a: &Selection, b: &Selection) -> bool {
    a == b
        && results(a)
            .iter()
            .zip(results(b))
            .all(|(x, y)| x.accuracy.to_bits() == y.accuracy.to_bits())
}

/// Re-evaluates each selected configuration with a cold, unaccelerated
/// evaluator; its accuracy must reproduce the reported one bit for bit.
fn cold_check(bench: &Bench, sel: &Selection) -> bool {
    results(sel).iter().all(|r| {
        let mut eval = Evaluator::with_accel(
            &bench.plain,
            &bench.eval_set,
            EVAL_BATCH,
            SearchAccel::naive(),
        );
        eval.accuracy(&r.config).to_bits() == r.accuracy.to_bits()
    })
}

/// Repeats the library search for `seconds` (at least `min_reps` times);
/// returns each repetition's wall and CPU seconds, and checks every
/// selection against `reference`'s (the first report, when `None`).
fn repeat(
    bench: &Bench,
    seconds: f64,
    min_reps: usize,
    reference: &mut Option<LibraryReport>,
    out: &mut Outcome,
) -> Result<Vec<(f64, f64)>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < min_reps || start.elapsed().as_secs_f64() < seconds {
        let (t, cpu) = (Instant::now(), proc::process_cpu_s()?);
        let report = run_library(&bench.timed, &bench.eval_set, &bench.base, &bench.schemes);
        times.push((t.elapsed().as_secs_f64(), proc::process_cpu_s()? - cpu));
        out.attempted += 1;
        match reference {
            Some(r) if !identical(&r.selection, &report.selection) => {
                out.failed += 1;
                out.correct = false;
            }
            Some(_) => {}
            None => *reference = Some(report),
        }
    }
    Ok(times)
}

/// The selected configuration's weight-memory reduction and accuracy
/// drop from FP32 in percentage points: Path A's single model, or Path
/// B's budget-respecting `model_memory`.
fn quality(bench: &Bench, sel: &Selection) -> (f64, f64) {
    let chosen = results(sel)[0];
    (
        f64::from(chosen.weight_mem_reduction),
        f64::from(bench.acc_fp32 - chosen.accuracy) * 100.0,
    )
}

/// The untraced run. Set-ups are spread over the run, one after each of
/// the first repetitions, so `setup_s` is not decided by one moment.
/// `cpu_ms_per_op` is the repetitions' total CPU time over their count:
/// one repetition's CPU time is a few dozen 10 ms clock ticks, too coarse
/// for a median.
pub fn run_workload(seed: u64, seconds: f64, setups: usize) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let start = Instant::now();
    let bench = set_up(seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let mut reference = None;
    let mut reps = Vec::new();
    let run_start = Instant::now();
    while reps.is_empty() || run_start.elapsed().as_secs_f64() < seconds {
        reps.extend(repeat(&bench, 0.0, 1, &mut reference, &mut out)?);
        if setup_s.len() < setups {
            let start = Instant::now();
            set_up(seed)?;
            setup_s.push(start.elapsed().as_secs_f64());
        }
    }
    let first = reference.expect("at least one repetition");
    let served = model::rtn_serving_config();
    let rtn_selects_served = first.runs.iter().any(|(scheme, r)| {
        *scheme == RoundingScheme::RoundToNearest
            && matches!(&r.outcome, qcapsnets::Outcome::Satisfied(q) if q.config == served)
    });
    if !rtn_selects_served {
        out.note(format!(
            "the RTN search no longer selects the configuration serve_fq_rtn serves, {served:?}"
        ));
    }
    let sel = first.selection;
    out.attempted += 1;
    if !cold_check(&bench, &sel) {
        out.failed += 1;
        out.correct = false;
    }
    let (mem_ratio, acc_drop) = quality(&bench, &sel);
    let (wall, cpu): (Vec<f64>, Vec<f64>) = reps.into_iter().unzip();
    out.note(format!(
        "run_library: {} repetitions, median wall time {:.6} s",
        wall.len(),
        stats::median(&wall).expect("repetitions")
    ));
    out.setup(&setup_s);
    out.metric(
        "cpu_ms_per_op",
        cpu.iter().sum::<f64>() * 1e3 / cpu.len() as f64,
        "ms",
        cpu.len(),
    );
    out.metric("mem_ratio", mem_ratio, "x", 1);
    out.metric("acc_drop_pp", acc_drop, "pp", 1);
    out.metric("peak_rss_mb", proc::peak_rss_mb()?, "MB", 1);
    Ok(out)
}

fn add(total: &mut EvalStats, s: &EvalStats) {
    total.evaluations += s.evaluations;
    total.memo_hits += s.memo_hits;
    total.stages_run += s.stages_run;
    total.stages_skipped += s.stages_skipped;
    total.early_accepts += s.early_accepts;
    total.early_rejects += s.early_rejects;
    total.speculative_probes += s.speculative_probes;
}

/// The traced run: untraced repetitions for the headline, then traced
/// ones that call `run` once per scheme (what `run_library` does) inside
/// `core.run` spans, and `select` on the reports.
pub fn traced(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let bench = set_up(seed)?;
    let mut reference = None;
    let untraced = repeat(&bench, seconds * 0.5, 3, &mut reference, &mut out)?;
    let untraced_cpu: f64 = untraced.iter().map(|r| r.1).sum();
    let reference = reference.expect("at least one repetition").selection;

    let t = trace::enable();
    let reg_before = Readings::now();
    let phase_start = t.now_ns();
    let (start, cpu_start) = (Instant::now(), proc::process_cpu_s()?);
    let (mut times, mut stats) = (Vec::new(), EvalStats::default());
    while times.len() < 3 || start.elapsed().as_secs_f64() < seconds * 0.5 {
        let rep = Instant::now();
        let runs: Vec<_> = bench
            .schemes
            .iter()
            .map(|&scheme| {
                let _span = t.enter_ambient("core.run", scheme_label(scheme));
                let cfg = FrameworkConfig {
                    scheme,
                    ..bench.base.clone()
                };
                (scheme, run(&bench.timed, &bench.eval_set, &cfg))
            })
            .collect();
        let sel = select(&runs);
        times.push(rep.elapsed().as_secs_f64());
        runs.iter().for_each(|(_, r)| add(&mut stats, &r.stats));
        out.attempted += 1;
        if !identical(&reference, &sel) {
            out.failed += 1;
            out.correct = false;
        }
    }
    let traced_cpu = proc::process_cpu_s()? - cpu_start;
    let reg_after = Readings::now();
    reg_after.record_deltas(t, &reg_before);
    // The operator's counters must tell the same story as the reports.
    if qcn_telemetry::timing_enabled() {
        let agree = [
            ("qcn_search_evaluations_total", stats.evaluations),
            ("qcn_search_memo_hits_total", stats.memo_hits),
            ("qcn_search_stages_run_total", stats.stages_run),
            ("qcn_search_stages_skipped_total", stats.stages_skipped),
        ]
        .iter()
        .all(|&(name, n)| reg_after.delta(&reg_before, &format!("registry.{name}")) == n as f64);
        out.attempted += 1;
        if !agree {
            out.note("registry search counters disagree with RunReport.stats".into());
            out.failed += 1;
            out.correct = false;
        }
    }
    t.count("phase.start_ns", phase_start as f64);
    t.count("core.library_calls", times.len() as f64);
    t.count("core.evaluations", stats.evaluations as f64);
    t.count("core.memo_hits", stats.memo_hits as f64);
    t.count("core.stages_run", stats.stages_run as f64);
    t.count("core.stages_skipped", stats.stages_skipped as f64);
    t.count(
        "core.early_exits",
        (stats.early_accepts + stats.early_rejects) as f64,
    );
    t.count("core.speculative_probes", stats.speculative_probes as f64);
    for (i, m) in model::stage_macs(&bench.plain).iter().enumerate() {
        t.count(&format!("model.macs.L{}", i + 1), *m as f64);
    }
    t.count("headline.untraced", untraced_cpu / untraced.len() as f64);
    t.count("headline.traced", traced_cpu / times.len() as f64);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_lists_each_scheme_once() {
        for seed in 0..20 {
            let mut order = library_order(seed);
            assert_eq!(order, library_order(seed));
            order.sort_by_key(|s| scheme_label(*s));
            assert_eq!(
                order,
                [
                    RoundingScheme::RoundToNearest,
                    RoundingScheme::Stochastic,
                    RoundingScheme::Truncation
                ]
            );
        }
    }
}
