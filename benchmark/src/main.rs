//! Command line of the benchmark.
//!
//! ```text
//! ver-benchmark run    [--workload W] [--seed N] [--seconds S | --quick] [--trace 0|1] [--out FILE]
//! ver-benchmark repeat --sets N [--seed N] [--seconds S | --quick] [--out FILE]
//! ver-benchmark diff   BASE.json CANDIDATE.json
//! ```
//!
//! `run --workload W` measures in this process and prints, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; without `--workload` every workload runs in a
//! fresh child process. Exit code 1 means the correctness gate or `diff`
//! found a fault, 2 a usage or harness error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use ver_benchmark::json::Json;
use ver_benchmark::report::{diff, repeat, run_child};
use ver_benchmark::run::{run_workload, RunArgs};
use ver_benchmark::workloads::Kind;

const DEFAULT_SECONDS: f64 = 30.0;
const QUICK_SECONDS: f64 = 3.0;

struct Options {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
    out: Option<PathBuf>,
    scratch: PathBuf,
    files: Vec<PathBuf>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    // Scratch output stays inside the checkout: under `benchmark/` when
    // started from the repository root, else under the current directory.
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let home = if cwd.join("benchmark").is_dir() {
        cwd.join("benchmark")
    } else {
        cwd
    };
    let mut o = Options {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        sets: 5,
        out: None,
        scratch: home.join("out"),
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |v: &String| {
            v.parse::<f64>()
                .map_err(|_| format!("{arg}: bad number '{v}'"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload =
                    Some(Kind::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?);
            }
            "--seed" => {
                let v = value()?;
                o.seed = v.parse().map_err(|_| format!("--seed: bad number '{v}'"))?;
            }
            "--seconds" => o.seconds = number(value()?)?,
            "--quick" => o.seconds = QUICK_SECONDS,
            "--trace" => o.trace = number(value()?)? != 0.0,
            "--sets" => o.sets = number(value()?)? as usize,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            "--scratch" => o.scratch = PathBuf::from(value()?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => o.files.push(PathBuf::from(file)),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 600.0) || o.sets == 0 {
        return Err("--seconds must be in (0, 600] and --sets at least 1".into());
    }
    Ok(o)
}

/// Every metric by name with its unit, one per line.
fn print_metrics(record: &Json) {
    let workload = record.text("workload");
    for (name, m) in record.members("metrics") {
        println!(
            "{workload:<11} {name:<30} {:>14.4} {}",
            m.num("value"),
            m.text("unit")
        );
    }
    println!(
        "{workload:<11} attempted {} failed {} correct {}{}",
        record.num("attempted"),
        record.num("failed"),
        record.flag("correct"),
        if record.flag("noisy") {
            " (noisy: the calibration kernel drifted)"
        } else {
            ""
        }
    );
}

/// The four keys the driver reads, in its order.
fn driver_line(correct: bool, attempted: f64, failed: f64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", metrics),
    ])
    .render()
}

fn write_out(path: Option<&Path>, doc: &Json) -> Result<(), String> {
    match path {
        Some(p) => {
            std::fs::write(p, doc.render() + "\n").map_err(|e| format!("{}: {e}", p.display()))
        }
        None => Ok(()),
    }
}

fn cmd_run(o: &Options) -> Result<bool, String> {
    if let Some(kind) = o.workload {
        std::fs::create_dir_all(&o.scratch).map_err(|e| e.to_string())?;
        let record = run_workload(&RunArgs {
            kind,
            seed: o.seed,
            seconds: o.seconds,
            trace: o.trace,
            scratch: o.scratch.clone(),
        })
        .map_err(|e| e.to_string())?;
        write_out(o.out.as_deref(), &record)?;
        print_metrics(&record);
        let metrics = record.get("metrics").cloned().unwrap_or(Json::Null);
        println!(
            "{}",
            driver_line(
                record.flag("correct"),
                record.num("attempted"),
                record.num("failed"),
                metrics
            )
        );
        return Ok(record.flag("correct"));
    }

    let mut records = Vec::new();
    for kind in Kind::ALL {
        eprintln!("ver-benchmark: {}", kind.name());
        let record = run_child(kind, o.seed, o.seconds, o.trace, &o.scratch)?;
        print_metrics(&record);
        records.push(record);
    }
    let merged = records.iter().flat_map(|r| {
        let workload = r.text("workload");
        r.members("metrics")
            .iter()
            .map(move |(name, m)| (format!("{workload}/{name}"), m.clone()))
    });
    let correct = records.iter().all(|r| r.flag("correct"));
    println!(
        "{}",
        driver_line(
            correct,
            records.iter().map(|r| r.num("attempted")).sum(),
            records.iter().map(|r| r.num("failed")).sum(),
            Json::obj(merged)
        )
    );
    write_out(
        o.out.as_deref(),
        &Json::obj([("kind", Json::str("run")), ("runs", Json::Arr(records))]),
    )?;
    Ok(correct)
}

fn cmd_repeat(o: &Options) -> Result<bool, String> {
    let doc = repeat(o.sets, o.seed, o.seconds, &o.scratch)?;
    write_out(o.out.as_deref(), &doc)?;
    let mut correct = true;
    for (workload, w) in doc.members("workloads") {
        for (name, m) in w.members("metrics") {
            println!(
                "{workload:<11} {name:<13} median {:>12.4} q1 {:>12.4} q3 {:>12.4} n {} {}",
                m.num("median"),
                m.num("q1"),
                m.num("q3"),
                m.num("n"),
                m.text("unit")
            );
        }
        println!(
            "{workload:<11} attempted {} failed {} correct sets {}/{} noisy sets {}",
            w.num("attempted"),
            w.num("failed"),
            w.num("correct_sets"),
            o.sets,
            w.num("noisy_sets")
        );
        correct &= w.num("correct_sets") as usize == o.sets;
    }
    Ok(correct)
}

fn cmd_diff(o: &Options) -> Result<bool, String> {
    let [base, cand] = o.files.as_slice() else {
        return Err("diff needs two repeat files: BASE.json CANDIDATE.json".into());
    };
    let load = |p: &PathBuf| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{}: {e}", p.display()))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (table, regressed) = diff(&load(base)?, &load(cand)?);
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) => parse(rest).and_then(|o| match cmd.as_str() {
            "run" => cmd_run(&o),
            "repeat" => cmd_repeat(&o),
            "diff" => cmd_diff(&o),
            other => Err(format!("unknown command '{other}' (run, repeat, diff)")),
        }),
        None => Err("usage: ver-benchmark run|repeat|diff ... (see benchmark/README.md)".into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("ver-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
