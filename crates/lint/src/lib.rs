//! Workspace invariant lint: project rules `clippy` cannot express.
//!
//! Four rules, all lexical (the build environment is offline, so no `syn`):
//!
//! | rule | scope | what it enforces |
//! |------|-------|------------------|
//! | `no-unwrap` | non-test `crates/net`, `crates/core`, `crates/store` src | no `.unwrap()` / `.expect(` — fallible paths must return errors |
//! | `relaxed-ordering` | same | no `Ordering::Relaxed` on atomics; publish/ledger state needs `Acquire`/`Release`; metrics counters go through `skipweb_net::metrics::Counter`, not onto the allowlist |
//! | `wire-cap` | same | every allocation sized by a wire-read length (`vec![0u8; n as usize]`, `with_capacity(n as usize)`) must have a `MAX_FRAME` cap check in the preceding lines |
//! | `deprecated-api` | whole workspace | no internal use of items marked `#[deprecated]` |
//!
//! Known-and-justified violations live in the committed `lint.allow` at the
//! workspace root, one per line: `rule<TAB>path<TAB>needle` (the needle must
//! be a substring of the flagged line; `#` starts a comment). A violation
//! not covered by the allowlist makes `skipweb-lint` exit nonzero, so CI
//! blocks new ones while the committed debt stays visible and diffable; so
//! does an entry that covers nothing any more, so the list only shrinks.
//!
//! Lexical linting has known blind spots (macro-generated code, braces in
//! string literals confusing the `#[cfg(test)]` tracker) — rules here are
//! tuned to this workspace's idiom, and the fixtures under
//! `crates/lint/fixtures/` pin the behaviour for each rule.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// One rule violation at a specific source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (`no-unwrap`, `relaxed-ordering`, `wire-cap`,
    /// `deprecated-api`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub path: String,
    /// 1-based line number.
    pub line_no: usize,
    /// The offending line, trimmed.
    pub line: String,
}

/// Result of a full lint run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable report lines, ready to print.
    pub lines: Vec<String>,
    /// Number of files scanned.
    pub files_checked: usize,
    /// All violations found, allowlisted or not.
    pub total: usize,
    /// How many of `total` were covered by the allowlist.
    pub allowlisted: usize,
    /// Violations NOT covered by the allowlist — these fail the run.
    pub new_violations: Vec<Violation>,
    /// Allowlist entries that matched nothing — these fail the run too.
    pub stale_allow: Vec<String>,
}

impl Outcome {
    /// Whether the run passes: no new violation and no stale entry.
    pub fn passed(&self) -> bool {
        self.new_violations.is_empty() && self.stale_allow.is_empty()
    }
}

/// Crates whose non-test sources must be panic-free and ordering-disciplined.
const STRICT_PREFIXES: &[&str] = &["crates/net/src/", "crates/core/src/", "crates/store/src/"];

/// How many preceding lines the `wire-cap` rule searches for a `MAX_FRAME`
/// guard before a length-sized allocation.
const WIRE_CAP_WINDOW: usize = 12;

/// Walks up from the current directory to the first `Cargo.toml` declaring
/// `[workspace]`.
pub fn workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(body) = std::fs::read_to_string(&manifest) {
            if body.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Strips a trailing `//` comment, with just enough string-literal awareness
/// to not truncate `"http://…"`. Lines that are entirely a doc or line
/// comment become empty.
fn strip_line_comment(line: &str) -> &str {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip the escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return &line[..i];
            }
            _ => {}
        }
        i += 1;
    }
    line
}

fn count_braces(code: &str) -> i64 {
    let mut depth = 0i64;
    let mut in_str = false;
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1,
            b'"' => in_str = !in_str,
            b'{' if !in_str => depth += 1,
            b'}' if !in_str => depth -= 1,
            _ => {}
        }
        i += 1;
    }
    depth
}

/// Marks each line that belongs to a `#[cfg(test)]` item (the attribute
/// line, the item header, and everything until its closing brace) — every
/// line of a file that is a test module itself (`#![cfg(test)]`).
fn test_line_mask(lines: &[&str]) -> Vec<bool> {
    let test_file = lines
        .iter()
        .any(|l| l.trim_start().starts_with("#![cfg(test)]"));
    let mut mask = vec![test_file; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = strip_line_comment(lines[i]);
        if code.trim_start().starts_with("#[cfg(test)]") {
            // Consume through the guarded item's braced body.
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                let body = strip_line_comment(lines[j]);
                let d = count_braces(body);
                if d != 0 || body.contains('{') {
                    opened = true;
                }
                depth += d;
                if opened && depth <= 0 {
                    break;
                }
                // A `#[cfg(test)]` on a brace-less item (e.g. `use`) ends at
                // the first `;` before any `{`.
                if !opened && body.contains(';') {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

fn is_strict(path: &str) -> bool {
    STRICT_PREFIXES.iter().any(|p| path.starts_with(p))
}

/// Extracts the item name from a definition line like `pub fn foo(` /
/// `struct Bar {`.
fn item_name(code: &str) -> Option<String> {
    let toks: Vec<&str> = code
        .split(|c: char| c.is_whitespace() || "(<{;:".contains(c))
        .filter(|t| !t.is_empty())
        .collect();
    let keywords = ["fn", "struct", "enum", "trait", "type", "const", "mod"];
    for (i, tok) in toks.iter().enumerate() {
        if keywords.contains(tok) {
            return toks.get(i + 1).map(|n| n.to_string());
        }
    }
    None
}

fn contains_word(haystack: &str, needle: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = haystack[start..].find(needle) {
        let abs = start + pos;
        let before_ok = abs == 0
            || !haystack[..abs]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let end = abs + needle.len();
        let after_ok = end >= haystack.len()
            || !haystack[end..]
                .chars()
                .next()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

/// Lints a set of workspace sources given as `(workspace-relative path,
/// contents)` pairs. Pure — the binary and the self-tests both call this.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Violation> {
    let mut violations = Vec::new();

    // Pass 1: collect #[deprecated] item names and their definition sites.
    let mut deprecated: BTreeMap<String, String> = BTreeMap::new(); // name -> defining path
    for (path, body) in files {
        let lines: Vec<&str> = body.lines().collect();
        for (i, raw) in lines.iter().enumerate() {
            let code = strip_line_comment(raw);
            if !code.trim_start().starts_with("#[deprecated") {
                continue;
            }
            // The deprecated item's definition follows, possibly after more
            // attributes or the rest of a multi-line #[deprecated(...)].
            for follow in lines.iter().skip(i + 1).take(8) {
                let fcode = strip_line_comment(follow).trim_start();
                if fcode.is_empty() || fcode.starts_with("#[") || fcode.starts_with(')') {
                    continue;
                }
                if let Some(name) = item_name(fcode) {
                    deprecated.entry(name).or_insert_with(|| path.clone());
                }
                break;
            }
        }
    }

    // Pass 2: per-file line rules.
    for (path, body) in files {
        let lines: Vec<&str> = body.lines().collect();
        let in_test = test_line_mask(&lines);
        let strict = is_strict(path);
        // The wire-cap rule only makes sense where lengths are decoded from
        // untrusted bytes; elsewhere `with_capacity(n as usize)` is normal
        // arithmetic sizing.
        let decodes_wire = body.contains("WireReader")
            || body.contains("MAX_FRAME")
            || body.contains("from_le_bytes")
            || body.contains("from_be_bytes");
        let mut flag = |rule: &'static str, line_no: usize, line: &str| {
            violations.push(Violation {
                rule,
                path: path.clone(),
                line_no,
                line: line.trim().to_string(),
            });
        };
        for (i, raw) in lines.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            let code = strip_line_comment(raw);
            if code.trim().is_empty() {
                continue;
            }
            if strict {
                if code.contains(".unwrap()") || code.contains(".expect(") {
                    flag("no-unwrap", i + 1, raw);
                }
                if code.contains("Ordering::Relaxed") {
                    flag("relaxed-ordering", i + 1, raw);
                }
                let allocates = decodes_wire
                    && (code.contains("vec![0u8;") || code.contains("with_capacity("))
                    && code.contains("as usize");
                if allocates {
                    let guarded = (i.saturating_sub(WIRE_CAP_WINDOW)..=i)
                        .any(|j| strip_line_comment(lines[j]).contains("MAX_FRAME"));
                    if !guarded {
                        flag("wire-cap", i + 1, raw);
                    }
                }
            }
            for (name, def_path) in &deprecated {
                if def_path == path {
                    continue; // uses inside the defining file are its own business
                }
                if code.trim_start().starts_with("#[deprecated") {
                    continue;
                }
                if contains_word(code, name) {
                    flag("deprecated-api", i + 1, raw);
                }
            }
        }
    }
    violations
}

/// One parsed `lint.allow` entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry silences.
    pub rule: String,
    /// Workspace-relative path it applies to.
    pub path: String,
    /// Substring of the flagged line that must match.
    pub needle: String,
}

/// Parses `lint.allow` bodies: `rule<TAB>path<TAB>needle`, `#` comments.
pub fn parse_allowlist(body: &str) -> Vec<AllowEntry> {
    body.lines()
        .map(str::trim_end)
        .filter(|l| !l.is_empty() && !l.trim_start().starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.splitn(3, '\t');
            Some(AllowEntry {
                rule: parts.next()?.trim().to_string(),
                path: parts.next()?.trim().to_string(),
                needle: parts.next()?.to_string(),
            })
        })
        .collect()
}

/// Splits violations into (allowlisted, new) and reports allow entries that
/// matched nothing.
pub fn apply_allowlist(
    violations: Vec<Violation>,
    allow: &[AllowEntry],
) -> (Vec<Violation>, Vec<Violation>, Vec<AllowEntry>) {
    let mut matched = vec![false; allow.len()];
    let mut allowed = Vec::new();
    let mut fresh = Vec::new();
    for v in violations {
        let hit = allow.iter().enumerate().find(|(_, a)| {
            a.rule == v.rule && a.path == v.path && v.line.contains(a.needle.trim())
        });
        match hit {
            Some((i, _)) => {
                matched[i] = true;
                allowed.push(v);
            }
            None => fresh.push(v),
        }
    }
    let stale = allow
        .iter()
        .zip(&matched)
        .filter(|(_, m)| !**m)
        .map(|(a, _)| a.clone())
        .collect();
    (allowed, fresh, stale)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name == "target" || name == ".git" || name == "fixtures" {
                continue;
            }
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Collects the `(relative path, contents)` pairs [`lint_sources`] wants:
/// every `.rs` file under `crates/*/src` and the root `src/`, plus the
/// vendored stand-ins (for `#[deprecated]` definitions), excluding
/// `target/` and lint fixtures.
pub fn collect_sources(root: &Path) -> Vec<(String, String)> {
    let mut paths = Vec::new();
    for base in ["crates", "src", "vendor"] {
        walk_rs(&root.join(base), &mut paths);
    }
    let mut files = Vec::new();
    for path in paths {
        // Only src/ trees: integration tests and benches may unwrap freely.
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let in_src = rel.starts_with("src/") || rel.contains("/src/");
        if !in_src {
            continue;
        }
        if let Ok(body) = std::fs::read_to_string(&path) {
            files.push((rel, body));
        }
    }
    files
}

/// Full run: collect sources, lint, apply `lint.allow`, format a report.
pub fn run(root: &Path, list_all: bool) -> Outcome {
    let files = collect_sources(root);
    let violations = lint_sources(&files);
    let allow_body = std::fs::read_to_string(root.join("lint.allow")).unwrap_or_default();
    let allow = parse_allowlist(&allow_body);
    let total = violations.len();
    let (allowed, fresh, stale) = apply_allowlist(violations, &allow);

    let mut lines = Vec::new();
    if list_all {
        for v in &allowed {
            lines.push(format!(
                "[allowed] {}\t{}:{}\t{}",
                v.rule, v.path, v.line_no, v.line
            ));
        }
    }
    for v in &fresh {
        lines.push(format!("{}\t{}:{}\t{}", v.rule, v.path, v.line_no, v.line));
    }
    for a in &stale {
        lines.push(format!(
            "[stale allow] {}\t{}\t{}",
            a.rule, a.path, a.needle
        ));
    }
    Outcome {
        lines,
        files_checked: files.len(),
        total,
        allowlisted: allowed.len(),
        new_violations: fresh,
        stale_allow: stale
            .iter()
            .map(|a| format!("{}\t{}\t{}", a.rule, a.path, a.needle))
            .collect(),
    }
}
