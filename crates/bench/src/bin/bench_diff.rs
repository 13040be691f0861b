//! Print the ratios between two microbench reports (say, the parent
//! commit's and the working tree's, each written with `--json`).
//!
//! ```sh
//! cargo run --release -p srsf-bench --bin bench-diff -- parent.json change.json
//! ```
//!
//! Nothing here fails a build: the microbench is a probe of primitives,
//! and the gated comparison is the repo benchmark's (`benchmark/`).
//! Reads two `srsf-microbench/1` reports (see the README "Performance"
//! section for the schema) and prints, per case, the baseline and current
//! median times and the speedup `baseline / current` (>1 is faster).
//! Cases present in only one file are listed as `new` / `dropped` rather
//! than silently skipped. The parser is deliberately tiny — the schema
//! writes one case per line — so the bin adds no dependencies.

use std::process::ExitCode;

/// `(name, median_s)` pairs scraped from a `BENCH_*.json` report.
fn parse_cases(path: &str) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(name) = field_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(median) = field_f64(line, "\"median_s\": ") else {
            return Err(format!("{path}: case {name:?} has no median_s"));
        };
        out.push((name, median));
    }
    if out.is_empty() {
        return Err(format!("{path}: no cases found — not a microbench report?"));
    }
    Ok(out)
}

fn field_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(key)? + key.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn field_f64(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let end = line[start..]
        .find([',', '}'])
        .map(|i| i + start)
        .unwrap_or(line.len());
    line[start..end].trim().parse().ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [base_path, cur_path] = args.as_slice() else {
        eprintln!("usage: bench-diff BASELINE.json CURRENT.json");
        return ExitCode::FAILURE;
    };
    let (base, cur) = match (parse_cases(base_path), parse_cases(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for e in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench-diff: {e}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "{:<36} {:>14} {:>14} {:>9}",
        "case", "baseline", "current", "speedup"
    );
    for (name, cur_median) in &cur {
        match base.iter().find(|(n, _)| n == name) {
            Some((_, base_median)) => {
                let speedup = base_median / cur_median;
                println!(
                    "{name:<36} {:>14} {:>14} {:>8.2}x",
                    fmt_s(*base_median),
                    fmt_s(*cur_median),
                    speedup
                );
            }
            None => {
                println!(
                    "{name:<36} {:>14} {:>14} {:>9}",
                    "-",
                    fmt_s(*cur_median),
                    "new"
                );
            }
        }
    }
    for (name, base_median) in &base {
        if !cur.iter().any(|(n, _)| n == name) {
            println!(
                "{name:<36} {:>14} {:>14} {:>9}",
                fmt_s(*base_median),
                "-",
                "dropped"
            );
        }
    }

    // Within-rank scaling of the hybrid distributed driver: 1-thread vs
    // 4-thread medians of the same bit-identical factorization. >1 means
    // the worker pool + eager-send overlap win wall-clock; on a
    // single-core runner the ratio instead reports pure scheduling
    // overhead, which is worth seeing in the log too.
    let median_of = |name: &str| cur.iter().find(|(n, _)| n == name).map(|(_, m)| *m);
    if let (Some(t1), Some(t4)) = (
        median_of("dist_factorize/laplace_4096_p4_1t"),
        median_of("dist_factorize/laplace_4096_p4_4t"),
    ) {
        println!(
            "\nrank_threads 4t/1t: {:.2}x ({} -> {})",
            t1 / t4,
            fmt_s(t1),
            fmt_s(t4)
        );
    }

    // Compression: sketched vs full-CPQR medians of the same sequential
    // factorization, both from the *current* report. <1 would mean the
    // randomized sketch-then-ID default lost to the deterministic path it
    // replaced.
    if let (Some(sk), Some(cp)) = (
        median_of("factorize/laplace_4096_sketched"),
        median_of("factorize/laplace_4096_cpqr"),
    ) {
        println!(
            "factorize sketched vs cpqr: {:.2}x ({} -> {})",
            cp / sk,
            fmt_s(cp),
            fmt_s(sk)
        );
    }
    // The dense top block both ways, at the repo benchmark's two top
    // shapes: packed LDL^T over general LU of the same symmetric matrix
    // (<1 = LDL^T faster). Printed, not gated — this box's run-to-run
    // spread exceeds any margin worth enforcing.
    for tag in ["f64_1651", "c64_1251"] {
        for (what, suffix) in [("", ""), ("_solve", "_nrhs16")] {
            let (lu, ldlt) = (
                format!("lu{what}/{tag}{suffix}"),
                format!("ldlt{what}/{tag}{suffix}"),
            );
            if let (Some(t_lu), Some(t_ldlt)) = (median_of(&lu), median_of(&ldlt)) {
                println!(
                    "{ldlt} / {lu}: {:.2}x ({} vs {})",
                    t_ldlt / t_lu,
                    fmt_s(t_ldlt),
                    fmt_s(t_lu)
                );
            }
        }
    }
    // The blocked solve sweep's RHS-major panel kernels over the
    // column-major calls they replaced, same shapes and `nrhs` (<1 = the
    // panel kernel is faster). Printed, not gated, like the line above.
    for (panel, column_major) in [
        ("panel_mul/f64_16x349x41", "gemm/f64_349x41x16"),
        ("panel_mul_t/f64_16x349x41", "gemm/f64_349x41x16"),
        ("panel_lu/f64_16x41", "lu_solve/f64_41_nrhs16"),
        // The factorization's coupling solve `X_NR X_RR^{-T}`.
        ("panel_lu/f64_512x41", "lu_solve/f64_41_nrhs512"),
        ("panel_ldlt/f64_16x1651", "ldlt_solve/f64_1651_nrhs16"),
        ("panel_mul/c64_8x332x45", "gemm/c64_332x45x8"),
        ("panel_mul_t/c64_8x332x45", "gemm/c64_332x45x8"),
        ("panel_lu/c64_8x45", "lu_solve/c64_45_nrhs8"),
        ("panel_ldlt/c64_8x1251", "ldlt_solve/c64_1251_nrhs8"),
    ] {
        if let (Some(t_p), Some(t_c)) = (median_of(panel), median_of(column_major)) {
            println!(
                "{panel} / {column_major}: {:.2}x ({} vs {})",
                t_p / t_c,
                fmt_s(t_p),
                fmt_s(t_c)
            );
        }
    }

    // Tracing overhead: traced vs untraced medians of the same 4-rank
    // factorization, both from the *current* report. The span API
    // promises a branch-on-one-atomic no-op when disabled, so the ratio
    // should sit at 1.0 within noise.
    if let (Some(off), Some(on)) = (
        median_of("trace_overhead/laplace_4096_off"),
        median_of("trace_overhead/laplace_4096_on"),
    ) {
        println!(
            "trace overhead on/off: {:.3}x ({} -> {})",
            on / off,
            fmt_s(off),
            fmt_s(on)
        );
    }
    ExitCode::SUCCESS
}

fn fmt_s(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} us", s * 1e6)
    }
}
