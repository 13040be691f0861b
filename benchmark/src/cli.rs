//! Command line: the contract's one-workload invocation, `run` (every
//! workload, each in a fresh child process), and `compare`.

use crate::compare::compare;
use crate::json::Json;
use crate::spec::Spec;
use crate::workload::{nproc, run_end_to_end, run_layers, workloads, Record};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage:
  srsf-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--detail] [--trace-out FILE]
      one workload in this process; the last line of output is the result object
  srsf-benchmark run [--seed N] [--seconds S] [--repeat R] [--traced] [--smoke] [--out FILE]
      every workload, each run in a fresh child process; writes a results file
  srsf-benchmark compare A.json B.json
      medians, quartiles, ratios and verdicts against the bounds in BENCHMARK.json";

/// Prefix of the line a child prints its full record on for `run`.
const DETAIL: &str = "detail ";

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str) -> Result<Option<T>, String> {
        self.value(name)?
            .map(|v| v.parse().map_err(|_| format!("{name}: cannot parse `{v}`")))
            .transpose()
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

pub fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => run(args),
        Some("compare") => compare_files(args),
        Some(_) if args.0.iter().any(|a| a == "--workload") => one_workload(args),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

/// The contract's invocation: measure one workload, print every metric by
/// name with its unit, and end with the result object.
fn one_workload(mut args: Args) -> Result<bool, String> {
    let spec = Spec::embedded();
    let name = args.value("--workload")?.ok_or(USAGE)?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(spec.run_seconds);
    let traced = match args.value("--trace")?.as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    let smoke = args.flag("--smoke");
    let detail = args.flag("--detail");
    let trace_out = args.value("--trace-out")?;
    args.done()?;
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    let table = workloads(smoke);
    let w = table
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload `{name}`"))?;

    println!(
        "{name}: N = {}, rung N = {}, tol = {:e}, ranks = {}, seed = {seed}, {seconds} s, {}",
        w.case.n,
        w.rung_n,
        w.case.tol,
        w.case.ranks,
        if traced {
            "per-layer pass"
        } else {
            "end-to-end pass, tracing off"
        }
    );
    let rec = if traced {
        run_layers(w, seed, seconds)
    } else {
        run_end_to_end(w, seed, seconds)
    };

    let mut metrics = Vec::new();
    for def in spec.metrics(traced) {
        let value = rec
            .metric(&def.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| {
                format!(
                    "{name}: no finite value for `{}`; notes: {:?}",
                    def.name, rec.notes
                )
            })?;
        println!("  {:<40} {value:>16.9e} {}", def.name, def.unit);
        metrics.push((
            def.name.clone(),
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(&def.unit))]),
        ));
    }
    for (key, samples) in &rec.samples {
        println!("  samples {key}: {}", samples.len());
    }
    for note in &rec.notes {
        println!("  note: {note}");
    }
    println!(
        "  ops_attempted = {}, ops_failed = {}, wall = {:.2} s",
        rec.attempted, rec.failed, rec.wall_s
    );
    if let (Some(path), Some(trace)) = (&trace_out, &rec.trace) {
        write_file(Path::new(path), &trace.render())?;
        println!("  benchmark-side spans written to {path}");
    }
    if detail {
        println!("{DETAIL}{}", rec.to_json().render());
    }
    println!("{}", result_line(&rec, metrics).render());
    Ok(true)
}

fn result_line(rec: &Record, metrics: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("correct", Json::Bool(rec.failed == 0)),
        ("attempted", Json::Num(rec.attempted.max(1) as f64)),
        ("failed", Json::Num(rec.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> String {
    Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn environment(seed: u64, seconds: f64, repeat: u64, smoke: bool, traced: bool) -> Json {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        (
            "git_commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"], here)),
        ),
        (
            "git_dirty",
            Json::Bool(!command_line("git", &["status", "--porcelain"], here).is_empty()),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("rustflags", Json::str(env!("BENCH_RUSTFLAGS"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        ("nproc", Json::Num(nproc() as f64)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeat", Json::Num(repeat as f64)),
        ("smoke", Json::Bool(smoke)),
        ("traced", Json::Bool(traced)),
    ])
}

/// Run one workload in a fresh child process (so `VmHWM` and allocator
/// state are its own), echo its output, and return its full record.
fn child(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    trace_out: Option<&Path>,
) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--detail"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if smoke {
        cmd.arg("--smoke");
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut detail = None;
    let stdout = proc.stdout.take().expect("stdout is piped");
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("child output: {e}"))?;
        match line.strip_prefix(DETAIL) {
            Some(json) => detail = Some(Json::parse(json)?),
            None => println!("{line}"),
        }
    }
    let status = proc.wait().map_err(|e| format!("wait for child: {e}"))?;
    match detail {
        Some(d) if status.success() => Ok(d),
        // A crashed child is one failed operation of its workload.
        _ => Ok(Json::obj([
            ("workload", Json::str(name)),
            ("seed", Json::Num(seed as f64)),
            ("traced", Json::Bool(traced)),
            ("ops_attempted", Json::Num(1.0)),
            ("ops_failed", Json::Num(1.0)),
            ("metrics", Json::Obj(Vec::new())),
            (
                "notes",
                Json::Arr(vec![Json::str(format!("child exited with {status}"))]),
            ),
        ])),
    }
}

fn run(mut args: Args) -> Result<bool, String> {
    args.0.remove(0);
    let spec = Spec::embedded();
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let repeat: u64 = args.parsed("--repeat")?.unwrap_or(1).max(1);
    let smoke = args.flag("--smoke");
    let traced = args.flag("--traced");
    let seconds: f64 =
        args.parsed("--seconds")?
            .unwrap_or(if smoke { 1.0 } else { spec.run_seconds });
    let out = args.value("--out")?.map_or_else(
        || Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/run-seed{seed}.json")),
        PathBuf::from,
    );
    args.done()?;

    let mut runs = Vec::new();
    // The per-layer pass comes after every end-to-end number and feeds none.
    for pass_traced in [false, true] {
        if pass_traced && !traced {
            continue;
        }
        for (name, _) in &spec.workloads {
            for r in 0..if pass_traced { 1 } else { repeat } {
                let trace_out =
                    pass_traced.then(|| out.with_extension(format!("trace.{name}.json")));
                runs.push(child(
                    name,
                    seed + r,
                    seconds,
                    pass_traced,
                    smoke,
                    trace_out.as_deref(),
                )?);
            }
        }
    }
    let failed: f64 = runs
        .iter()
        .filter_map(|r| r.get("ops_failed")?.as_f64())
        .sum();
    let results = Json::obj([
        ("schema", Json::Num(1.0)),
        (
            "environment",
            environment(seed, seconds, repeat, smoke, traced),
        ),
        ("runs", Json::Arr(runs)),
    ]);
    write_file(&out, &results.render())?;
    println!(
        "results written to {}; {failed} failed operations",
        out.display()
    );
    Ok(failed == 0.0)
}

fn compare_files(mut args: Args) -> Result<bool, String> {
    args.0.remove(0);
    let files = args.done()?;
    let [a, b] = files.as_slice() else {
        return Err(USAGE.to_string());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare(&Spec::embedded(), &load(a)?, &load(b)?))
}
