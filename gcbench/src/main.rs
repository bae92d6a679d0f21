//! `gcbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path gcbench/Cargo.toml -- \
//!     --workload calm|paging|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! One run builds the workload's cells from the seed, then repeats whole
//! rounds for `--seconds` — each round times the cells' set-up, then runs
//! every cell through the simulator's public entry points — checks every
//! round, and prints the end-to-end metrics. With `--trace 1` it adds one
//! traced round and prints the per-layer metrics instead. The last line of
//! standard output is one JSON object; see README.md.

mod checks;
mod stats;
mod trace;
mod workload;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::rc::Rc;
use std::time::{Duration, Instant};

use stats::{cpu_seconds, geomean, median, peak_rss_mib, percentile};
use trace::{run_traced, setup_cpu, Tally};
use workload::{run_timed, Cell, CellOutcome, Workload};

/// Timed rounds per run at the least, so each cell's CPU time is the best
/// of three.
const MIN_ROUNDS: usize = 3;

/// Set-up samples per round at the most, while they stay within
/// [`SETUP_ROUND_BUDGET_S`] of CPU time together.
const SETUPS_PER_ROUND: usize = 7;
const SETUP_ROUND_BUDGET_S: f64 = 0.1;

/// Set in the child process that measures; see [`respawn`].
const CHILD_ENV: &str = "GCBENCH_MEASURING";

const USAGE: &str =
    "usage: gcbench --workload calm|paging|fleet [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload.clone_from(&value),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, not `{}`",
            workload::NAMES,
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// One metric as printed: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Everything one run reports.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Mean host nanoseconds per call.
fn per_call_ns(total: Duration, calls: u64) -> f64 {
    if calls == 0 {
        0.0
    } else {
        total.as_nanos() as f64 / calls as f64
    }
}

/// The simulated end-to-end metrics of one round of `cells`; failed cells
/// are left out.
///
/// The median pause is taken per collector and the collectors' medians
/// are combined by geometric mean. Pooled over every collector, the median
/// would fall between BC's sub-millisecond pauses and the baselines'
/// thrashing pauses, where few pauses lie, and move by 40% from one seed to
/// the next. The 99th percentile is pooled: it needs the pooled count to
/// leave ten pauses beyond it.
fn sim_metrics(cells: &[Cell], outcomes: &[CellOutcome]) -> (Vec<Metric>, String) {
    let ok: Vec<&CellOutcome> = outcomes.iter().filter(|c| c.ok()).collect();
    let execs: Vec<f64> = ok.iter().map(|c| c.exec().as_secs_f64()).collect();
    let mut by_collector: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for c in &ok {
        by_collector
            .entry(cells[c.cell].collector.label())
            .or_default()
            .extend(
                c.jvms
                    .iter()
                    .flat_map(|j| j.pauses.iter().map(|p| p.duration.as_nanos())),
            );
    }
    let mut medians = Vec::new();
    for pauses in by_collector.values_mut().filter(|p| !p.is_empty()) {
        pauses.sort_unstable();
        medians.push(percentile(pauses, 50.0) as f64 / 1e6);
    }
    let mut pooled: Vec<u64> = by_collector.into_values().flatten().collect();
    pooled.sort_unstable();
    let faults: u64 = ok
        .iter()
        .flat_map(|c| c.jvms.iter())
        .map(|j| j.vm.major_faults + j.vm.minor_faults)
        .sum();
    let geo = |v: &[f64]| if v.is_empty() { 0.0 } else { geomean(v) };
    let p99 = if pooled.is_empty() {
        0.0
    } else {
        percentile(&pooled, 99.0) as f64 / 1e6
    };
    let metrics = vec![
        ("sim_exec_geomean_s", geo(&execs), "s"),
        ("sim_pause_p50_ms", geo(&medians), "ms"),
        ("sim_pause_p99_ms", p99, "ms"),
        ("sim_page_faults", faults as f64, "count"),
    ];
    let note = format!(
        "{} of {} cells ok; {} pauses pooled over {} collectors",
        ok.len(),
        outcomes.len(),
        pooled.len(),
        medians.len()
    );
    (metrics, note)
}

fn layer_metrics(t: &Tally, overhead: f64) -> Vec<Metric> {
    let loop_self = t.loop_host.saturating_sub(t.step_host + t.event_host);
    let step_self = t.step_host.saturating_sub(t.heap_host);
    let traced_per_s = if t.gc_host.is_zero() {
        0.0
    } else {
        t.gc_traced as f64 / secs(t.gc_host)
    };
    let n = |v: u64| v as f64;
    vec![
        ("simulate.steps", n(t.loop_steps), "count"),
        ("simulate.self_host_s", secs(loop_self), "s"),
        ("simulate.deliveries", n(t.deliveries), "count"),
        ("workloads.steps", n(t.step_calls), "count"),
        ("workloads.self_host_s", secs(step_self), "s"),
        ("heap.alloc_calls", n(t.alloc_calls), "count"),
        (
            "heap.alloc_ns",
            per_call_ns(t.alloc_host, t.alloc_calls - t.gc_allocs),
            "ns",
        ),
        ("heap.gc_allocs", n(t.gc_allocs), "count"),
        ("heap.gc_host_s", secs(t.gc_host), "s"),
        ("heap.traced_per_host_s", traced_per_s, "1/s"),
        ("heap.gc_sim_s", t.gc_sim.as_secs_f64(), "s"),
        ("heap.write_ref_calls", n(t.write_ref_calls), "count"),
        (
            "heap.write_ref_ns",
            per_call_ns(t.write_ref_host, t.write_ref_calls),
            "ns",
        ),
        ("heap.read_calls", n(t.read_calls), "count"),
        ("heap.read_ns", per_call_ns(t.read_host, t.read_calls), "ns"),
        ("heap.objects_traced", n(t.gc.objects_traced), "count"),
        ("heap.trace_packets", n(t.gc.trace_packets), "count"),
        ("heap.trace_steals", n(t.gc.trace_steals), "count"),
        ("heap.pages_peak", n(t.pages_peak), "pages"),
        ("bookmarking.vm_event_calls", n(t.event_calls), "count"),
        ("bookmarking.vm_event_host_s", secs(t.event_host), "s"),
        ("bookmarking.vm_event_sim_s", t.event_sim.as_secs_f64(), "s"),
        (
            "bookmarking.vm_event_major_faults",
            n(t.event_faults),
            "count",
        ),
        ("bookmarking.bookmarks_set", n(t.gc.bookmarks_set), "count"),
        (
            "bookmarking.pages_scanned",
            n(t.gc.pages_bookmark_scanned),
            "count",
        ),
        (
            "bookmarking.pages_relinquished",
            n(t.gc.pages_relinquished),
            "count",
        ),
        (
            "bookmarking.pages_discarded",
            n(t.gc.pages_discarded),
            "count",
        ),
        ("vmm.touches", n(t.vm.touches), "count"),
        ("vmm.major_faults", n(t.vm.major_faults), "count"),
        ("vmm.minor_faults", n(t.vm.minor_faults), "count"),
        ("vmm.evictions", n(t.vm.evictions), "count"),
        ("vmm.hard_evictions", n(t.vm.hard_evictions), "count"),
        ("vmm.notices", n(t.vm.notices), "count"),
        (
            "vmm.mutator_major_faults",
            n(t.step_faults - t.gc_faults),
            "count",
        ),
        ("vmm.gc_major_faults", n(t.gc_faults), "count"),
        ("vmm.handler_major_faults", n(t.event_faults), "count"),
        ("trace.overhead", overhead, "ratio"),
    ]
}

/// Runs `w` for about `seconds` of whole rounds, then (with `trace`) one
/// traced round.
fn measure(w: &Workload, seconds: u64, trace: bool) -> Report {
    let mut problems = Vec::new();
    let mut notes = Vec::new();
    let start = Instant::now();
    // cell_cpu[c][r]: CPU seconds of cell c in round r.
    let mut cell_cpu = vec![Vec::new(); w.cells.len()];
    let mut rounds = 0;
    let mut first: Option<Vec<CellOutcome>> = None;
    let mut failed = 0u64;
    let mut round_wall = Vec::new();
    // cell_setup[c][k]: CPU seconds of the k-th set-up of cell c.
    let mut cell_setup = vec![Vec::new(); w.cells.len()];
    let mut setups = 0;
    while rounds < MIN_ROUNDS || start.elapsed() < Duration::from_secs(seconds) {
        // Set-up is sampled in every round, so `setup_s` samples the host
        // across the run as `cell_cpu_ms` does, not in one burst that a
        // moment of contention can shift as a whole; and several times per
        // round while it is cheap, since a millisecond sample varies by a
        // quarter from one to the next.
        let mut spent = 0.0;
        for _ in 0..SETUPS_PER_ROUND {
            for (i, s) in setup_cpu(&w.cells).into_iter().enumerate() {
                cell_setup[i].push(s);
                spent += s;
            }
            setups += 1;
            if spent >= SETUP_ROUND_BUDGET_S {
                break;
            }
        }
        let wall = Instant::now();
        let mut outcomes = Vec::with_capacity(w.cells.len());
        for (i, cell) in w.cells.iter().enumerate() {
            let t0 = cpu_seconds();
            outcomes.push(run_timed(i, cell));
            cell_cpu[i].push(cpu_seconds() - t0);
        }
        round_wall.push(wall.elapsed().as_secs_f64());
        rounds += 1;
        failed += outcomes.iter().filter(|c| !c.ok()).count() as u64;
        match &first {
            None => first = Some(outcomes),
            Some(f) => {
                if let Err(e) = checks::rounds_identical(f, &outcomes) {
                    problems.push(e);
                }
            }
        }
    }
    let first = first.expect("at least one round ran");
    // Per-cell medians, summed, as for the cells' run times: each cell's
    // median discards the bursts of contention that hit it.
    let setup_s: f64 = cell_setup.iter().map(|c| median(c)).sum();
    if let Err(e) = checks::check_round(&w.cells, &first) {
        problems.push(e);
    }
    for (cell, o) in w.cells.iter().zip(&first).filter(|(_, o)| !o.ok()) {
        notes.push(format!(
            "failed cell: {} (timed out: {})",
            cell.label, o.timed_out
        ));
    }
    // Per-cell minima over rounds: host contention only ever slows a cell,
    // and it comes and goes for seconds at a time, so a cell's fastest
    // round is its least disturbed one. Of five runs of `calm` on one host
    // these spread by 1.5%, per-cell medians by 8.9%. Their geometric mean
    // weighs every cell alike; a sum would follow the one cell whose cost
    // the seed moves most (BC at the heaviest pressure collects 52 to 234
    // times, and takes 0.5 to 2.3 s, by seed).
    let cell_best: Vec<f64> = cell_cpu
        .iter()
        .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let cells_cpu: f64 = cell_best.iter().sum();
    let (sim, sim_note) = sim_metrics(&w.cells, &first);
    let round_cpu: Vec<f64> = (0..rounds)
        .map(|r| cell_cpu.iter().map(|c| c[r]).sum())
        .collect();
    notes.push(format!(
        "{rounds} rounds of {} cells; round CPU s {round_cpu:.3?}; round wall s \
         {round_wall:.3?}; {setups} set-ups",
        w.cells.len(),
    ));
    notes.push(sim_note);
    let mut heaviest: Vec<(f64, &str)> = cell_best
        .iter()
        .zip(&w.cells)
        .map(|(&c, cell)| (c, cell.label.as_str()))
        .collect();
    heaviest.sort_by(|a, b| b.0.total_cmp(&a.0));
    heaviest.truncate(5);
    notes.push(format!("heaviest cells, best CPU s: {heaviest:.3?}"));

    let metrics = if trace {
        let tally = Rc::new(RefCell::new(Tally::default()));
        let t0 = cpu_seconds();
        let traced: Vec<CellOutcome> = w
            .cells
            .iter()
            .enumerate()
            .map(|(i, c)| run_traced(i, c, &tally))
            .collect();
        let traced_cpu = cpu_seconds() - t0;
        if let Err(e) = checks::traced_matches_timed(&first, &traced) {
            problems.push(e);
        }
        let t = tally.borrow();
        if t.step_faults + t.event_faults != t.vm.major_faults {
            problems.push(format!(
                "traced run: {} faults in steps and {} in handlers, {} in all",
                t.step_faults, t.event_faults, t.vm.major_faults
            ));
        }
        layer_metrics(&t, traced_cpu / cells_cpu)
    } else {
        let mut m = vec![
            ("cell_cpu_ms", 1e3 * geomean(&cell_best), "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ];
        m.extend(sim);
        m
    };
    Report {
        problems,
        attempted: (rounds * w.cells.len()) as u64,
        failed,
        metrics,
        notes,
    }
}

fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.problems.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// Runs the measurement in a child started from this still-small process.
/// Linux carries a process's peak RSS across `exec` from the process that
/// forked it (`cargo run`, several times larger than the benchmark), so
/// `peak_rss_mib` read in this process would report the launcher's size.
fn respawn() -> ExitCode {
    let mut args = std::env::args();
    let exe = args.next().expect("argv[0] names the benchmark binary");
    match Command::new(exe).args(args).env(CHILD_ENV, "1").status() {
        Ok(status) => ExitCode::from(status.code().map_or(1, |c| c as u8)),
        Err(e) => {
            eprintln!("gcbench: cannot start the measuring process: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os(CHILD_ENV).is_none() {
        return respawn();
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gcbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let w = Workload::new(&args.workload, args.seed).expect("workload name validated");
    let mut report = measure(&w, args.seconds, args.trace);
    if let Some((name, value, _)) = report.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        report
            .problems
            .push(format!("{name} is not a number: {value}"));
        report.metrics.retain(|(_, v, _)| v.is_finite());
    }
    println!("gcbench {} seed {}", w.name, args.seed);
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    for problem in &report.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!("{}", json(&report));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "fleet",
            "--seed",
            "9",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: "fleet".into(),
                seed: 9,
                seconds: 10,
                trace: true
            })
        );
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "calm", "--seed", "-1"]).is_err());
        assert!(args(&["--workload", "calm", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "calm", "--seed"]).is_err());
        assert!(args(&["--workload", "calm", "--bogus", "1"]).is_err());
        assert!(args(&[]).is_err());
    }

    /// Every metric a run prints is declared in BENCHMARK.json, and vice
    /// versa.
    fn assert_declared(metrics: &[Metric], section: &str) {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let rest = &BENCHMARK_JSON[start..];
        let body = &rest[..rest.find(']').expect("section closes")];
        for (name, value, unit) in metrics {
            assert!(value.is_finite(), "{name} = {value}");
            assert!(
                body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from {section}"
            );
        }
        assert_eq!(body.matches("\"name\"").count(), metrics.len(), "{section}");
    }

    /// The smallest scale at which each workload keeps its properties:
    /// `calm`'s heaps are 2x the paper's minimum heap, which runs out of
    /// memory below its standard scale; below 0.015, `paging`'s memory
    /// floor removes the pressure BC is checked to win under.
    const SMOKE_SCALES: [(&str, f64); 3] = [("calm", 0.03), ("paging", 0.015), ("fleet", 0.008)];

    /// Small runs of every workload, timed and traced: no cell fails, every
    /// check passes, the traced run reproduces the timed one, and every
    /// declared metric is printed.
    #[test]
    fn smoke_every_workload() {
        for (name, scale) in SMOKE_SCALES {
            let w = Workload::at_scale(name, 3, scale);
            let report = measure(&w, 0, false);
            assert_eq!(report.problems, Vec::<String>::new(), "{name}");
            assert_eq!(report.failed, 0, "{name}");
            assert_eq!(report.attempted, (MIN_ROUNDS * w.cells.len()) as u64);
            assert_declared(&report.metrics, "end_to_end");
            let traced = measure(&w, 0, true);
            assert_eq!(traced.problems, Vec::<String>::new(), "{name} traced");
            assert_declared(&traced.metrics, "per_layer");
        }
    }

    /// One seed gives bit-identical simulated metrics; another seed gives
    /// different inputs and still passes every check.
    #[test]
    fn seeds_repeat_and_vary() {
        let sim = |seed| {
            let report = measure(&Workload::at_scale("paging", seed, 0.015), 0, false);
            assert_eq!(report.problems, Vec::<String>::new());
            assert_eq!(report.failed, 0);
            report
                .metrics
                .into_iter()
                .filter(|(name, _, _)| name.starts_with("sim_"))
                .map(|(_, v, _)| v.to_bits())
                .collect::<Vec<u64>>()
        };
        assert_eq!(sim(11), sim(11));
        assert_ne!(sim(11), sim(12));
    }
}
