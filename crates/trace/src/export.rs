//! Rank-0 exporters for gathered [`TraceReport`]s.
//!
//! * [`chrome_trace_json`] — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`. One
//!   *process* per rank (a `process_name` metadata event is emitted for
//!   every report, spans or not), one *thread* row per recorded thread.
//! * [`profile_table`] — a plain-text profile: per-label wall-clock
//!   totals, then the per-rank compute vs comm-wait split with bytes
//!   moved — the shape of the paper's phase-timing tables.

use crate::{Cat, TraceReport};

/// Escape a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond decimals, as trace-event `ts`/`dur`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

fn cat_str(cat: u8) -> &'static str {
    Cat::from_u8(cat).map(Cat::as_str).unwrap_or("unknown")
}

/// Render gathered per-rank reports as Chrome trace-event JSON: pid =
/// rank, tid = recorder thread, complete (`"ph":"X"`) events with
/// microsecond timestamps, payload bytes in `args`.
pub fn chrome_trace_json(reports: &[TraceReport]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: String, first: &mut bool| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&s);
    };
    for rep in reports {
        push(
            format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{},\"tid\":0,\
                 \"args\":{{\"name\":\"rank {}\"}}}}",
                rep.rank, rep.rank
            ),
            &mut first,
        );
        for s in &rep.spans {
            push(
                format!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{},\"tid\":{},\
                     \"ts\":{},\"dur\":{},\"args\":{{\"bytes\":{}}}}}",
                    esc(&s.name),
                    cat_str(s.cat),
                    rep.rank,
                    s.tid,
                    us(s.start_ns),
                    us(s.dur_ns),
                    s.bytes
                ),
                &mut first,
            );
        }
    }
    out.push_str("]}");
    out
}

/// Per-label accumulator for the profile table.
struct Row {
    cat: u8,
    name: String,
    count: u64,
    total_ns: u64,
    bytes: u64,
}

/// Render gathered reports as a plain-text profile table: one row per
/// span label (aggregated over ranks and threads, sorted by total
/// wall-clock), then a per-rank summary splitting compute from
/// comm-wait time with the bytes that moved under the comm spans.
pub fn profile_table(reports: &[TraceReport]) -> String {
    let mut rows: Vec<Row> = Vec::new();
    for rep in reports {
        for s in &rep.spans {
            match rows.iter_mut().find(|r| r.cat == s.cat && r.name == s.name) {
                Some(r) => {
                    r.count += 1;
                    r.total_ns = r.total_ns.saturating_add(s.dur_ns);
                    r.bytes = r.bytes.saturating_add(s.bytes);
                }
                None => rows.push(Row {
                    cat: s.cat,
                    name: s.name.clone(),
                    count: 1,
                    total_ns: s.dur_ns,
                    bytes: s.bytes,
                }),
            }
        }
    }
    rows.sort_by_key(|r| std::cmp::Reverse(r.total_ns));

    let mut out = String::new();
    out.push_str(&format!(
        "{:<44} {:>8} {:>7} {:>12} {:>12}\n",
        "span", "cat", "count", "total s", "bytes"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<44} {:>8} {:>7} {:>12.6} {:>12}\n",
            r.name,
            cat_str(r.cat),
            r.count,
            r.total_ns as f64 / 1e9,
            r.bytes
        ));
    }

    out.push_str(&format!(
        "\n{:<6} {:>12} {:>12} {:>14} {:>8}\n",
        "rank", "compute s", "comm-wait s", "bytes moved", "dropped"
    ));
    for rep in reports {
        let split = |want: Cat| -> u64 {
            rep.spans
                .iter()
                .filter(|s| s.cat == want as u8)
                .map(|s| s.dur_ns)
                .fold(0u64, u64::saturating_add)
        };
        let bytes: u64 = rep
            .spans
            .iter()
            .filter(|s| s.cat == Cat::Comm as u8)
            .map(|s| s.bytes)
            .fold(0u64, u64::saturating_add);
        out.push_str(&format!(
            "{:<6} {:>12.6} {:>12.6} {:>14} {:>8}\n",
            rep.rank,
            split(Cat::Compute) as f64 / 1e9,
            split(Cat::Comm) as f64 / 1e9,
            bytes,
            rep.dropped
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    /// Build a span literal for the tests below.
    fn span_for_test(
        cat: Cat,
        name: &str,
        tid: u32,
        start_ns: u64,
        dur_ns: u64,
        bytes: u64,
    ) -> Span {
        Span {
            cat: cat as u8,
            name: name.to_string(),
            tid,
            start_ns,
            dur_ns,
            bytes,
        }
    }

    fn sample() -> Vec<TraceReport> {
        vec![
            TraceReport {
                rank: 0,
                dropped: 0,
                spans: vec![
                    span_for_test(Cat::Phase, "level 3 interior", 0, 100, 5_000_000, 0),
                    span_for_test(
                        Cat::Comm,
                        "recv \"PHASE_UPDATE\"",
                        0,
                        5_100_000,
                        2_000,
                        4096,
                    ),
                ],
            },
            TraceReport {
                rank: 1,
                dropped: 2,
                spans: vec![span_for_test(
                    Cat::Compute,
                    "eliminate c0",
                    1,
                    50,
                    3_000_000,
                    0,
                )],
            },
        ]
    }

    #[test]
    fn chrome_json_shape() {
        let json = chrome_trace_json(&sample());
        // One process_name metadata event per rank, escaped span names.
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"name\":\"rank 0\""));
        assert!(json.contains("\"name\":\"rank 1\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("recv \\\"PHASE_UPDATE\\\""));
        assert!(json.contains("\"ts\":5100.000"));
        assert!(json.contains("\"bytes\":4096"));
        assert!(json.ends_with("]}"));
        // Empty reports still yield a process entry.
        let empty = chrome_trace_json(&[TraceReport {
            rank: 5,
            ..Default::default()
        }]);
        assert!(empty.contains("\"name\":\"rank 5\""));
    }

    #[test]
    fn profile_table_shape() {
        let text = profile_table(&sample());
        assert!(text.contains("level 3 interior"));
        assert!(text.contains("comm-wait s"));
        // Rank 0's comm bytes and rank 1's drop counter show up.
        assert!(text.contains("4096"));
        let rank1 = text.lines().last().expect("per-rank rows");
        assert!(rank1.trim_start().starts_with('1'));
        assert!(rank1.trim_end().ends_with('2'));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(esc("\u{1}"), "\\u0001");
    }
}
