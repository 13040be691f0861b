//! The srsf project-invariant lint pass: source-level rules clippy
//! cannot know.
//!
//! Rules (each names the invariant it pins):
//!
//! * `panic-site` — no `unwrap()` / `expect()` / `panic!` in non-test
//!   library code unless the line (or one of the three lines above it)
//!   carries an `// INVARIANT:` comment stating why it cannot fire.
//!   CLI binaries under `src/bin/` are exempt (a tool may panic on
//!   operator error; a library embedded in a 64-rank run must not).
//! * `codec-getter` — the panicking `ByteReader::get_*` decoders are
//!   for codec-internal use; everything outside `codec.rs` must use the
//!   `try_get_*` / `Wire::decode` error paths (or justify with
//!   `// INVARIANT:`).
//! * `tags-describe` — every public `tags::` constant must be named by
//!   the diagnostic decoder (`describe` / `kind_name`), so a receive
//!   timeout can always print its tag in algorithm terms.
//! * `commstats-mutation` — the §IV message/word counters may only be
//!   mutated in the approved counting sites (`world.rs`, `stats.rs`):
//!   serve-envelope frames stay uncounted *by construction*.
//! * `metrics-mutation` — the serve-metrics counters
//!   (`solves_served` / `solves_failed`) may only be mutated inside the
//!   registry module (`metrics.rs`): every observation goes through
//!   `MetricsRegistry::observe_solve`, so a snapshot is always
//!   internally consistent.
//! * `catch-unwind` — a panic is a bug and unwinds like one: rank
//!   failures travel as typed errors (`RecvError` → `FactorError` →
//!   `SrsfError`), never as panic messages caught and parsed back.
//!   Outside tests, `catch_unwind` appears only where the rank runtime
//!   turns a rank's end into its exit announcement or its relayed panic
//!   (`crates/runtime/src/{world,transport}.rs`) and in the model checker
//!   (`crates/verify/src`).
//! * `forbid-unsafe` — every crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * `pub-rent` — every `pub fn` of a library `src/` tree (outside
//!   `#[cfg(test)]`; `src/bin/` is not library code) is named by non-test
//!   code of another file — a library `src/` tree, `src/bin/`,
//!   `examples/` or `benchmark/src/` — or by the facade's docs
//!   (`src/lib.rs`) or `README.md`, or carries `#[doc(hidden)]` plus an
//!   `// ORACLE: <test>` comment naming the test it serves. Code under
//!   `tests/` and `benches/` is not a caller, and neither is a `pub use`
//!   re-export. The match is by name, so a function shares its rent with
//!   every other item of that name.
//!
//! The scanner is deliberately line-based and dependency-free: it strips
//! strings and comments, skips `#[cfg(test)]` regions and doc comments,
//! and never parses Rust properly — the rules are chosen so that this
//! is enough.

use std::collections::HashSet;
use std::fmt;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
pub struct Violation {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule slug.
    pub rule: &'static str,
    /// Human explanation.
    pub msg: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.msg
        )
    }
}

/// The panicking decoder methods defined on `ByteReader` in `codec.rs`
/// (`codec_getters_are_the_readers_panicking_getters` keeps the list in
/// step with that file).
const CODEC_GETTERS: &[&str] = &["get_u64", "get_mat"];

/// The `CommStats` counter fields with approved mutation sites.
const COMMSTATS_FIELDS: &[&str] = &["msgs_sent", "words_sent", "compute_s", "wait_s"];

/// Files allowed to mutate `CommStats` fields: the send/recv counting
/// paths and the stats type itself.
const COMMSTATS_APPROVED: &[&str] = &["world.rs", "stats.rs"];

/// The serve-metrics counters with an approved mutation site.
const METRICS_FIELDS: &[&str] = &["solves_served", "solves_failed"];

/// The one file allowed to mutate them: the registry module itself
/// (every observation goes through `MetricsRegistry::observe_solve`).
const METRICS_APPROVED: &[&str] = &["metrics.rs"];

/// The files and trees whose non-test code may call `catch_unwind`.
const CATCH_UNWIND_APPROVED: &[&str] = &[
    "crates/runtime/src/world.rs",
    "crates/runtime/src/transport.rs",
    "crates/verify/src",
];

/// Trees outside the crates whose non-test code counts as a `pub-rent`
/// caller.
const CALLER_DIRS: &[&str] = &["examples", "benchmark/src"];

/// Lint every workspace source tree under `root`. Returns all
/// violations, sorted by file and line.
pub fn lint_root(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = Vec::new();
    let mut src_dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let entries =
            std::fs::read_dir(&crates).map_err(|e| format!("{}: {e}", crates.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("{}: {e}", crates.display()))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                src_dirs.push(src);
            }
        }
    }
    for extra in ["src", "xtask/src"] {
        let dir = root.join(extra);
        if dir.is_dir() {
            src_dirs.push(dir);
        }
    }
    src_dirs.sort();
    for dir in &src_dirs {
        collect_rs(dir, &mut files)?;
    }

    let mut violations = Vec::new();
    // `pub-rent` inputs: the library trees (xtask is a tool, not a
    // library), their binaries, and the caller trees outside the crates.
    let (mut library, mut callers) = (Vec::new(), Vec::new());
    for file in &files {
        let (rel, content) = read_rel(root, file)?;
        violations.extend(lint_source(&rel, &content));
        if rel.starts_with("xtask") {
            continue;
        }
        if !rel.components().any(|c| c.as_os_str() == "bin") {
            library.push((rel.clone(), content.clone()));
        }
        callers.push((rel, content));
    }
    for extra in CALLER_DIRS {
        let dir = root.join(extra);
        let mut extra_files = Vec::new();
        if dir.is_dir() {
            collect_rs(&dir, &mut extra_files)?;
        }
        for file in &extra_files {
            callers.push(read_rel(root, file)?);
        }
    }
    // Crate roots: the entry point of every source tree found above.
    for dir in &src_dirs {
        for name in ["lib.rs", "main.rs"] {
            let entry = dir.join(name);
            if entry.is_file() {
                let content = std::fs::read_to_string(&entry)
                    .map_err(|e| format!("{}: {e}", entry.display()))?;
                let rel = entry.strip_prefix(root).unwrap_or(&entry).to_path_buf();
                violations.extend(check_forbid_unsafe(&rel, &content));
            }
        }
    }
    let mut surface = String::new();
    for doc in ["src/lib.rs", "README.md"] {
        if let Ok(text) = std::fs::read_to_string(root.join(doc)) {
            surface.push_str(&text);
        }
    }
    violations.extend(check_pub_rent(&library, &callers, &surface));
    let tags = root.join("crates/runtime/src/tags.rs");
    if tags.is_file() {
        let content =
            std::fs::read_to_string(&tags).map_err(|e| format!("{}: {e}", tags.display()))?;
        let rel = tags.strip_prefix(root).unwrap_or(&tags).to_path_buf();
        violations.extend(check_tags_described(&rel, &content));
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(violations)
}

/// A file's path relative to `root` and its content.
fn read_rel(root: &Path, file: &Path) -> Result<(PathBuf, String), String> {
    let content = std::fs::read_to_string(file).map_err(|e| format!("{}: {e}", file.display()))?;
    Ok((
        file.strip_prefix(root).unwrap_or(file).to_path_buf(),
        content,
    ))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        paths.push(entry.map_err(|e| format!("{}: {e}", dir.display()))?.path());
    }
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint one file's source text (path is used for reporting and for
/// file-scoped exemptions). Exposed for unit tests.
pub fn lint_source(path: &Path, content: &str) -> Vec<Violation> {
    let lines: Vec<&str> = content.lines().collect();
    let cleaned: Vec<String> = lines.iter().map(|l| clean_line(l)).collect();
    let in_test = test_region_mask(&cleaned);
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or_default();
    let is_codec = file_name == "codec.rs";
    let commstats_ok = COMMSTATS_APPROVED.contains(&file_name);
    let metrics_ok = METRICS_APPROVED.contains(&file_name);
    let unwind_ok = CATCH_UNWIND_APPROVED
        .iter()
        .any(|dir| path.starts_with(dir));
    let is_bin = path
        .components()
        .any(|c| c.as_os_str() == "bin" || c.as_os_str() == "examples");

    let justified = |i: usize| {
        let lo = i.saturating_sub(3);
        lines[lo..=i].iter().any(|l| l.contains("INVARIANT:"))
    };

    let mut out = Vec::new();
    for (i, clean) in cleaned.iter().enumerate() {
        if in_test[i] || clean.trim().is_empty() {
            continue;
        }
        for pat in [".unwrap(", ".expect(", "panic!", "unimplemented!", "todo!"] {
            if !is_bin && clean.contains(pat) && !justified(i) {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: i + 1,
                    rule: "panic-site",
                    msg: format!(
                        "`{pat}` in library code: return a typed error \
                         (SrsfError/CodecError) or justify with `// INVARIANT: ...`",
                        pat = pat.trim_start_matches('.').trim_end_matches('(')
                    ),
                });
                break;
            }
        }
        if !is_codec {
            for getter in CODEC_GETTERS {
                if calls_method(clean, getter) && !justified(i) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: "codec-getter",
                        msg: format!(
                            "panicking decoder `{getter}` outside codec.rs: use \
                             `try_{getter}` / `Wire::decode` and propagate CodecError"
                        ),
                    });
                    break;
                }
            }
        }
        if !unwind_ok && idents(clean).any(|id| id == "catch_unwind") {
            out.push(Violation {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "catch-unwind",
                msg: format!(
                    "`catch_unwind` outside the rank runtime ({}): a panic is a bug and \
                     unwinds; report failures as typed errors",
                    CATCH_UNWIND_APPROVED.join(", ")
                ),
            });
        }
        if !commstats_ok {
            for field in COMMSTATS_FIELDS {
                if mutates_field(clean, field) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: "commstats-mutation",
                        msg: format!(
                            "CommStats counter `{field}` mutated outside the approved \
                             counting sites ({})",
                            COMMSTATS_APPROVED.join(", ")
                        ),
                    });
                    break;
                }
            }
        }
        if !metrics_ok {
            for field in METRICS_FIELDS {
                if mutates_field(clean, field) || mutates_atomic(clean, field) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: i + 1,
                        rule: "metrics-mutation",
                        msg: format!(
                            "metrics counter `{field}` mutated outside the registry \
                             module ({}): go through MetricsRegistry::observe_solve",
                            METRICS_APPROVED.join(", ")
                        ),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// Check a crate root for the `#![forbid(unsafe_code)]` attribute.
pub fn check_forbid_unsafe(path: &Path, content: &str) -> Vec<Violation> {
    if content.contains("#![forbid(unsafe_code)]") {
        Vec::new()
    } else {
        vec![Violation {
            file: path.to_path_buf(),
            line: 1,
            rule: "forbid-unsafe",
            msg: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        }]
    }
}

/// Check that every public `tags::` constant (except the `*_BASE` range
/// markers) is named by the diagnostic strings in the same file.
pub fn check_tags_described(path: &Path, content: &str) -> Vec<Violation> {
    let strings = string_literals(content);
    let mut out = Vec::new();
    for (i, line) in content.lines().enumerate() {
        let trimmed = line.trim_start();
        let Some(rest) = trimmed.strip_prefix("pub const ") else {
            continue;
        };
        let Some(name) = rest.split(':').next().map(str::trim) else {
            continue;
        };
        if name.ends_with("_BASE") {
            continue;
        }
        let display = name
            .strip_prefix("KIND_")
            .or_else(|| name.strip_prefix("TAG_SERVE_"))
            .or_else(|| name.strip_prefix("TAG_"))
            .unwrap_or(name);
        if !strings.iter().any(|s| s.contains(display)) {
            out.push(Violation {
                file: path.to_path_buf(),
                line: i + 1,
                rule: "tags-describe",
                msg: format!(
                    "tag constant `{name}` is not named by describe()/kind_name(): \
                     a hang on this tag would be undiagnosable"
                ),
            });
        }
    }
    out
}

/// The `pub-rent` rule: flag every `pub fn` of `library` that no other
/// file of `callers` names in non-test code and `surface` (the facade's
/// docs and the README) does not name, unless it is marked
/// `#[doc(hidden)]` with an `// ORACLE:` comment. Both lists hold
/// `(path, content)`; `library` is a subset of `callers`.
pub fn check_pub_rent(
    library: &[(PathBuf, String)],
    callers: &[(PathBuf, String)],
    surface: &str,
) -> Vec<Violation> {
    let named: Vec<(&PathBuf, HashSet<String>)> = callers
        .iter()
        .map(|(path, content)| (path, code_idents(content)))
        .collect();
    let surface: HashSet<&str> = idents(surface).collect();
    let mut out = Vec::new();
    for (path, content) in library {
        let lines: Vec<&str> = content.lines().collect();
        let cleaned: Vec<String> = lines.iter().map(|l| clean_line(l)).collect();
        let in_test = test_region_mask(&cleaned);
        for (i, clean) in cleaned.iter().enumerate() {
            let Some(name) = (!in_test[i]).then(|| pub_fn_name(clean)).flatten() else {
                continue;
            };
            let via_macro = format!("$crate::{name}");
            let rented = surface.contains(name)
                || named.iter().any(|(other, ids)| {
                    (*other != path && ids.contains(name)) || ids.contains(&via_macro)
                });
            if rented || is_marked_oracle(&lines[..i]) {
                continue;
            }
            out.push(Violation {
                file: path.clone(),
                line: i + 1,
                rule: "pub-rent",
                msg: format!(
                    "`pub fn {name}` has no caller: no non-test code of another file, \
                     the facade docs or the README names it. Delete it, make it \
                     private, or mark a test oracle `#[doc(hidden)]` + `// ORACLE: <test>`"
                ),
            });
        }
    }
    out
}

/// The name of the function a cleaned line declares `pub` (`pub fn`,
/// `pub const fn`, ...). Restricted visibilities (`pub(crate)`) and
/// macro-generated names (`$name`) are not public functions.
fn pub_fn_name(clean: &str) -> Option<&str> {
    let mut rest = clean.trim_start().strip_prefix("pub ")?;
    for qualifier in ["const ", "async ", "unsafe "] {
        rest = rest.strip_prefix(qualifier).unwrap_or(rest);
    }
    let rest = rest.strip_prefix("fn ")?;
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// `true` if the attribute and comment lines directly above a declaration
/// hold both `#[doc(hidden)]` and an `ORACLE:` comment.
fn is_marked_oracle(above: &[&str]) -> bool {
    let head: Vec<&str> = above
        .iter()
        .rev()
        .map(|l| l.trim_start())
        .take_while(|l| l.starts_with("#[") || l.starts_with("//"))
        .collect();
    head.iter().any(|l| l.starts_with("#[doc(hidden)]"))
        && head
            .iter()
            .any(|l| l.starts_with("//") && l.contains("ORACLE:"))
}

/// The identifiers a file's non-test code names, `pub use` re-exports
/// excluded. A `$crate::` path in a macro body names its items for every
/// file the macro expands in, so its segments are prefixed `$crate::`
/// here for [`check_pub_rent`] to count from any file.
fn code_idents(content: &str) -> HashSet<String> {
    let cleaned: Vec<String> = content.lines().map(clean_line).collect();
    let in_test = test_region_mask(&cleaned);
    let mut in_reexport = false;
    let mut out = HashSet::new();
    for (clean, test) in cleaned.iter().zip(in_test) {
        in_reexport |= clean.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !clean.contains(';');
        } else if !test {
            out.extend(idents(clean).map(str::to_owned));
            for (at, _) in clean.match_indices("$crate::") {
                let path = &clean[at + "$crate::".len()..];
                let end = path
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == ':'))
                    .unwrap_or(path.len());
                out.extend(idents(&path[..end]).map(|id| format!("$crate::{id}")));
            }
        }
    }
    out
}

/// The identifier-shaped words of `text`.
fn idents(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// `true` if the line calls `.name(` or `.name::<`.
fn calls_method(clean: &str, name: &str) -> bool {
    let mut rest = clean;
    while let Some(pos) = rest.find(name) {
        let before_dot = pos > 0 && rest.as_bytes()[pos - 1] == b'.';
        let after = &rest[pos + name.len()..];
        if before_dot && (after.starts_with('(') || after.starts_with("::<")) {
            return true;
        }
        rest = &rest[pos + name.len()..];
    }
    false
}

/// `true` if the line assigns to `.field` (`=`, `+=`, `-=`, `*=`), but
/// not a comparison (`==`).
fn mutates_field(clean: &str, field: &str) -> bool {
    let mut rest = clean;
    let probe = format!(".{field}");
    while let Some(pos) = rest.find(&probe) {
        let after = rest[pos + probe.len()..].trim_start();
        if let Some(next) = after.strip_prefix(['+', '-', '*']) {
            if next.starts_with('=') {
                return true;
            }
        }
        if after.starts_with('=') && !after.starts_with("==") {
            return true;
        }
        rest = &rest[pos + probe.len()..];
    }
    false
}

/// `true` if the line writes to an atomic stored in `.field`
/// (`.field.store(`, `.field.fetch_add(`, `.field.fetch_sub(`). Loads
/// and comparisons are fine.
fn mutates_atomic(clean: &str, field: &str) -> bool {
    let mut rest = clean;
    let probe = format!(".{field}.");
    while let Some(pos) = rest.find(&probe) {
        let after = &rest[pos + probe.len()..];
        if ["store(", "fetch_add(", "fetch_sub("]
            .iter()
            .any(|m| after.starts_with(m))
        {
            return true;
        }
        rest = &rest[pos + probe.len()..];
    }
    false
}

/// Blank out string literals, char literals, and comments; drop doc
/// comments entirely. Good enough for pattern scanning — not a parser.
fn clean_line(line: &str) -> String {
    let trimmed = line.trim_start();
    if trimmed.starts_with("///") || trimmed.starts_with("//!") {
        return String::new();
    }
    let mut out = String::with_capacity(line.len());
    let bytes = line.as_bytes();
    let mut i = 0;
    let mut in_str = false;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if in_str {
            if c == '\\' {
                i += 2;
                out.push(' ');
                out.push(' ');
                continue;
            }
            if c == '"' {
                in_str = false;
                out.push('"');
            } else {
                out.push(' ');
            }
            i += 1;
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                out.push('"');
                i += 1;
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => break,
            '\'' if i + 2 < bytes.len() && bytes[i + 2] == b'\'' => {
                // A simple char literal like 'x'; lifetimes fall through.
                out.push_str("   ");
                i += 3;
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// Extract the contents of all double-quoted string literals.
fn string_literals(content: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    let bytes = content.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match &mut current {
            Some(s) => {
                if c == '\\' && i + 1 < bytes.len() {
                    s.push(bytes[i + 1] as char);
                    i += 2;
                    continue;
                }
                if c == '"' {
                    out.push(current.take().unwrap_or_default());
                } else {
                    s.push(c);
                }
                i += 1;
            }
            None => {
                if c == '"' {
                    current = Some(String::new());
                }
                i += 1;
            }
        }
    }
    out
}

/// Mark every line inside a `#[cfg(test)]` item (brace-balanced from
/// the attribute's first `{`).
fn test_region_mask(cleaned: &[String]) -> Vec<bool> {
    let mut mask = vec![false; cleaned.len()];
    let mut i = 0;
    while i < cleaned.len() {
        if !cleaned[i].contains("#[cfg(test)]") {
            i += 1;
            continue;
        }
        // Mark until the braces of the following item balance out.
        let mut depth = 0usize;
        let mut opened = false;
        let mut j = i;
        while j < cleaned.len() {
            mask[j] = true;
            for b in cleaned[j].bytes() {
                match b {
                    b'{' => {
                        depth += 1;
                        opened = true;
                    }
                    b'}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            j += 1;
            if opened && depth == 0 {
                break;
            }
        }
        i = j;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(src: &str) -> Vec<Violation> {
        lint_source(Path::new("crates/demo/src/lib.rs"), src)
    }

    #[test]
    fn flags_unwrap_without_invariant() {
        let v = lint("fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "panic-site");
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn accepts_justified_unwrap() {
        let v = lint(
            "fn f(x: Option<u32>) -> u32 {\n    // INVARIANT: x was checked non-empty above\n    \
             x.unwrap()\n}\n",
        );
        assert!(v.is_empty(), "{}", v[0]);
    }

    #[test]
    fn ignores_tests_docs_and_strings() {
        let src = r#"
/// Call `.unwrap()` at your peril.
fn f() -> &'static str {
    "never panic!()"
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
    }
}
"#;
        assert!(lint(src).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let v = lint("fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or_else(|| 3)\n}\n");
        assert!(v.is_empty());
    }

    #[test]
    fn flags_codec_getter_outside_codec() {
        let v = lint("fn f(r: &mut ByteReader) -> u64 {\n    r.get_u64()\n}\n");
        assert!(v.iter().any(|v| v.rule == "codec-getter"));
        let v = lint("fn f(r: &mut ByteReader) -> Mat<f64> {\n    r.get_mat::<f64>()\n}\n");
        assert!(v.iter().any(|v| v.rule == "codec-getter"));
    }

    /// `CODEC_GETTERS` is exactly the set of `pub fn get_*` in `codec.rs`:
    /// a listed getter that is gone guards nothing, and an unlisted one
    /// is not guarded.
    #[test]
    fn codec_getters_are_the_readers_panicking_getters() {
        let codec = include_str!("../../crates/runtime/src/codec.rs");
        let mut defined: Vec<&str> = codec
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("pub fn get_"))
            .map(|rest| {
                let end = rest.find(['(', '<']).unwrap_or(rest.len());
                &rest[..end]
            })
            .collect();
        defined.sort_unstable();
        let mut listed: Vec<&str> = CODEC_GETTERS
            .iter()
            .map(|g| g.trim_start_matches("get_"))
            .collect();
        listed.sort_unstable();
        assert_eq!(listed, defined);
    }

    #[test]
    fn codec_getters_allowed_in_codec_rs() {
        let v = lint_source(
            Path::new("crates/runtime/src/codec.rs"),
            "fn f(r: &mut ByteReader) -> u64 {\n    r.get_u64()\n}\n",
        );
        assert!(v.iter().all(|v| v.rule != "codec-getter"));
    }

    #[test]
    fn flags_commstats_mutation_outside_approved() {
        let v = lint("fn f(s: &mut CommStats) {\n    s.msgs_sent += 1;\n}\n");
        assert!(v.iter().any(|v| v.rule == "commstats-mutation"));
        // Comparison is not mutation.
        let v = lint("fn f(s: &CommStats) -> bool {\n    s.msgs_sent == 1\n}\n");
        assert!(v.iter().all(|v| v.rule != "commstats-mutation"));
    }

    #[test]
    fn commstats_mutation_allowed_in_world_rs() {
        let v = lint_source(
            Path::new("crates/runtime/src/world.rs"),
            "fn f(s: &mut CommStats) {\n    s.msgs_sent += 1;\n}\n",
        );
        assert!(v.iter().all(|v| v.rule != "commstats-mutation"));
    }

    #[test]
    fn flags_metrics_mutation_outside_registry() {
        let v = lint("fn f(m: &MetricsRegistry) {\n    m.solves_served.fetch_add(1, O);\n}\n");
        assert!(v.iter().any(|v| v.rule == "metrics-mutation"));
        let v = lint("fn f(s: &mut MetricsSnapshot) {\n    s.solves_failed = 0;\n}\n");
        assert!(v.iter().any(|v| v.rule == "metrics-mutation"));
        // Loads and comparisons are not mutation.
        let v = lint("fn f(s: &MetricsSnapshot) -> bool {\n    s.solves_served == 1\n}\n");
        assert!(v.iter().all(|v| v.rule != "metrics-mutation"));
        let v = lint("fn f(m: &MetricsRegistry) -> u64 {\n    m.solves_served.load(O)\n}\n");
        assert!(v.iter().all(|v| v.rule != "metrics-mutation"));
    }

    #[test]
    fn metrics_mutation_allowed_in_metrics_rs() {
        let v = lint_source(
            Path::new("crates/trace/src/metrics.rs"),
            "fn f(m: &MetricsRegistry) {\n    m.solves_served.fetch_add(1, O);\n}\n",
        );
        assert!(v.iter().all(|v| v.rule != "metrics-mutation"));
    }

    #[test]
    fn flags_catch_unwind_outside_the_runtime() {
        let src = "fn f() -> bool {\n    std::panic::catch_unwind(|| ()).is_ok()\n}\n";
        let flagged = |path: &str| {
            lint_source(Path::new(path), src)
                .iter()
                .any(|v| v.rule == "catch-unwind")
        };
        assert!(flagged("crates/core/src/solver.rs"));
        assert!(flagged("crates/runtime/src/codec.rs"));
        assert!(!flagged("crates/runtime/src/world.rs"));
        assert!(!flagged("crates/runtime/src/transport.rs"));
        assert!(!flagged("crates/verify/src/sched.rs"));
        // Tests, comments and strings are not calls.
        let quiet = "// catch_unwind\nfn f() -> &'static str {\n    \"catch_unwind\"\n}\n\
                     #[cfg(test)]\nmod tests {\n    fn t() {\n        \
                     let _ = std::panic::catch_unwind(|| ());\n    }\n}\n";
        let v = lint_source(Path::new("crates/core/src/solver.rs"), quiet);
        assert!(v.iter().all(|v| v.rule != "catch-unwind"));
    }

    #[test]
    fn forbid_unsafe_missing_and_present() {
        let p = Path::new("crates/demo/src/lib.rs");
        assert_eq!(check_forbid_unsafe(p, "pub fn f() {}\n").len(), 1);
        assert!(check_forbid_unsafe(p, "#![forbid(unsafe_code)]\npub fn f() {}\n").is_empty());
    }

    fn rent(library: &str, others: &[(&str, &str)], surface: &str) -> Vec<String> {
        let lib = (PathBuf::from("crates/demo/src/lib.rs"), library.to_string());
        let mut callers = vec![lib.clone()];
        callers.extend(
            others
                .iter()
                .map(|(p, c)| (PathBuf::from(p), c.to_string())),
        );
        check_pub_rent(&[lib], &callers, surface)
            .into_iter()
            .map(|v| {
                assert_eq!(v.rule, "pub-rent");
                v.msg.split('`').nth(1).unwrap_or_default().to_string()
            })
            .collect()
    }

    #[test]
    fn pub_rent_flags_a_function_only_its_own_file_names() {
        let lib = "pub fn a() -> u32 {\n    b()\n}\npub fn b() -> u32 {\n    1\n}\n\
                   pub(crate) fn c() {}\n";
        let main = ("examples/e.rs", "fn main() {\n    demo::a();\n}\n");
        assert_eq!(rent(lib, &[main], ""), ["pub fn b"]);
        // The facade docs or the README pay the rent too.
        assert!(rent(lib, &[main], "//! call `b` first").is_empty());
    }

    #[test]
    fn pub_rent_ignores_tests_reexports_and_comments() {
        let lib = "pub fn a() {}\n";
        let other = "pub use demo::a;\n// a()\n#[cfg(test)]\nmod tests {\n    fn t() {\n        \
                     super::a();\n    }\n}\n";
        assert_eq!(
            rent(lib, &[("crates/x/src/lib.rs", other)], ""),
            ["pub fn a"]
        );
        // A test-only function is not a public function to pay for.
        let lib = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        assert!(rent(lib, &[], "").is_empty());
    }

    #[test]
    fn pub_rent_accepts_marked_oracles_and_macro_paths() {
        let lib = "#[doc(hidden)]\n// ORACLE: the blocked-path test\npub fn naive() {}\n\
                   #[doc(hidden)]\npub fn hidden_only() {}\n\
                   pub fn hook() {}\nmacro_rules! m {\n    () => {\n        $crate::hook()\n    };\n}\n";
        assert_eq!(rent(lib, &[], ""), ["pub fn hidden_only"]);
    }

    #[test]
    fn tags_constants_must_be_described() {
        let p = Path::new("crates/runtime/src/tags.rs");
        let described = "pub const KIND_FOLD: u32 = 1;\nfn kind_name() -> &'static str { \
                         \"FOLD\" }\n";
        assert!(check_tags_described(p, described).is_empty());
        let undescribed = "pub const KIND_FOLD: u32 = 1;\npub const SERVE_BASE: u32 = 9;\n";
        let v = check_tags_described(p, undescribed);
        assert_eq!(v.len(), 1, "BASE constants are exempt, KIND_FOLD is not");
        assert_eq!(v[0].rule, "tags-describe");
    }
}
