//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload of the search-pipeline benchmark and prints, as the
//! last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced). Progress and diagnostics go to standard
//! error; traced runs also write their summary and spans under
//! `perfbench/traces/`.
//!
//! `--seed` orders the operations of each pass; `--data-seed <n>` picks the
//! generator and churn-stream seed (default 42; 7 is held out).
//! `--record-expected` runs only the verification pass and prints the
//! expected-table rows of its answers.

use perfbench::check::ExpectedTable;
use perfbench::workload::Workload;
use perfbench::{run, Options, RunReport, DEFAULT_DATA_SEED};
use std::fmt::Write as _;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload <search_conc|search_reveng|churn_refresh> \
         --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>] [--record-expected]"
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

fn result_line(r: &RunReport) -> String {
    let mut m = String::new();
    for (i, (name, v, unit)) in r.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*v)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        r.correct() && r.metrics.iter().all(|(_, v, _)| v.is_finite()),
        r.attempted,
        r.failed
    )
}

fn write_trace(opts: &Options, r: &RunReport) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let stem = format!(
        "{}-seed{}-data{}",
        opts.workload.name(),
        opts.seed,
        opts.data_seed
    );
    let mut summary = String::new();
    for (name, v, unit) in r.metrics.iter().chain(&r.trace_extra) {
        let _ = writeln!(summary, "{name}\t{v}\t{unit}");
    }
    let res = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.tsv")), summary))
        .and_then(|()| std::fs::write(dir.join(format!("{stem}.spans.jsonl")), &r.spans_jsonl));
    if let Err(e) = res {
        eprintln!("perfbench: could not write the trace files: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data_seed = DEFAULT_DATA_SEED;
    let mut record = false;
    let mut i = 0;
    while i < args.len() {
        let val = args.get(i + 1).map(String::as_str);
        match (args[i].as_str(), val) {
            ("--record-expected", _) => {
                record = true;
                i += 1;
                continue;
            }
            ("--workload", Some(v)) => workload = Workload::parse(v),
            ("--seed", Some(v)) => seed = v.parse::<u64>().ok(),
            ("--seconds", Some(v)) => seconds = v.parse::<f64>().ok().filter(|s| *s >= 0.0),
            ("--trace", Some("0")) => trace = Some(false),
            ("--trace", Some("1")) => trace = Some(true),
            ("--data-seed", Some(v)) => match v.parse() {
                Ok(s) => data_seed = s,
                Err(_) => return usage("bad --data-seed"),
            },
            (a, _) => return usage(&format!("bad argument {a}")),
        }
        i += 2;
    }
    let Some(workload) = workload else {
        return usage("missing or unknown --workload");
    };
    let (Some(seed), Some(seconds), Some(trace)) = (seed, seconds, trace.or(Some(false))) else {
        return usage("missing --seed or --seconds");
    };
    let opts = Options {
        workload,
        seed,
        data_seed,
        seconds: if record { 0.0 } else { seconds },
        trace: trace && !record,
        max_passes: record.then_some(0),
    };
    if !record && !ExpectedTable::shipped().covers(data_seed) {
        eprintln!("perfbench: expected.tsv has no answers for data seed {data_seed}; record them with --record-expected");
    }
    let report = match run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for e in &report.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    if record {
        for (cell, a) in &report.pinned {
            println!("{}", a.table_row(data_seed, cell));
        }
        return ExitCode::SUCCESS;
    }
    for (name, v, unit) in &report.trace_extra {
        eprintln!("perfbench: {name} = {v} {unit}");
    }
    if opts.trace {
        write_trace(&opts, &report);
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}
