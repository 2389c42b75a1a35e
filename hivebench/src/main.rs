//! `hivebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics untraced, the per-layer metrics traced).

use hivebench::run::{self, Metric};
use std::process::ExitCode;

/// End-to-end metrics every workload reports in its result line, the ones
/// `BENCHMARK.json` bounds. The others are printed above it: see the
/// README for why they are not bounded.
const RESULT_METRICS: &[&str] = &[
    "setup_s",
    "stmt_per_s",
    "read_p50_ms",
    "read_tail_ms",
    "cpu_ms_per_stmt",
    "peak_rss_mb",
    "stored_bytes_per_row",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn json_metrics(ms: &[&Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hivebench: {e}");
            eprintln!(
                "usage: hivebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                hivebench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(mut w) = hivebench::workload(&args.workload, args.seed) else {
        eprintln!("hivebench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let out = match run::run(w.as_mut(), args.seconds, args.trace, args.seed) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("hivebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# {} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in out.end_to_end.iter().chain(&out.per_layer) {
        println!("{:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("# {n}");
    }
    if args.trace {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = hivebench::trace::write_jsonl(&path, &out.spans) {
            eprintln!("hivebench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("# {} spans written to {}", out.spans.len(), path.display());
        println!(
            "# statements whose children outlast them: {}",
            out.overfull_statements
        );
    }
    let reported: Vec<&Metric> = if args.trace {
        out.per_layer.iter().collect()
    } else {
        RESULT_METRICS
            .iter()
            .filter_map(|name| out.end_to_end.iter().find(|m| m.name == *name))
            .collect()
    };
    let expected = if args.trace {
        out.per_layer.len()
    } else {
        RESULT_METRICS.len()
    };
    if reported.len() != expected || reported.iter().any(|m| !m.value.is_finite()) {
        eprintln!("hivebench: a metric could not be measured (too few samples?)");
        return ExitCode::FAILURE;
    }
    let correct = out.failed == 0 && out.overfull_statements == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        json_metrics(&reported)
    );
    ExitCode::SUCCESS
}
