//! Self-tests pinning each lint rule against the committed fixtures.
//!
//! The fixtures are fed through [`skipweb_lint::lint_sources`] under
//! synthetic workspace-relative paths, so these tests exercise exactly the
//! code path the `skipweb-lint` binary runs — only the filesystem walk is
//! bypassed. The exit-status test runs the binary itself over a scratch
//! workspace.

use skipweb_lint::{apply_allowlist, lint_sources, parse_allowlist, Violation};

const NO_UNWRAP: &str = include_str!("../fixtures/no_unwrap.rs");
const RELAXED: &str = include_str!("../fixtures/relaxed_ordering.rs");
const WIRE_CAP: &str = include_str!("../fixtures/wire_cap.rs");
const DEPRECATED: &str = include_str!("../fixtures/deprecated_api.rs");

fn lint_one(path: &str, body: &str) -> Vec<Violation> {
    lint_sources(&[(path.to_string(), body.to_string())])
}

fn by_rule<'a>(vs: &'a [Violation], rule: &str) -> Vec<&'a Violation> {
    vs.iter().filter(|v| v.rule == rule).collect()
}

#[test]
fn no_unwrap_flags_both_calls_but_not_test_module() {
    let vs = lint_one("crates/net/src/fixture.rs", NO_UNWRAP);
    let hits = by_rule(&vs, "no-unwrap");
    assert_eq!(hits.len(), 2, "one per .unwrap()/.expect( call: {vs:?}");
    assert!(hits[0].line.contains(".unwrap()"));
    assert!(hits[1].line.contains(".expect("));
    // The .unwrap() inside #[cfg(test)] mod tests must be masked out.
    let test_mod_line = NO_UNWRAP
        .lines()
        .position(|l| l.contains("mod tests"))
        .expect("fixture has a test module")
        + 1;
    assert!(
        hits.iter().all(|v| v.line_no < test_mod_line),
        "test-module unwrap leaked through the cfg(test) mask: {hits:?}"
    );
}

#[test]
fn an_out_of_line_test_module_is_masked_whole() {
    let body = format!("#![cfg(test)]\n\n{NO_UNWRAP}");
    let vs = lint_one("crates/core/src/engine/tests.rs", &body);
    assert!(by_rule(&vs, "no-unwrap").is_empty(), "{vs:?}");
}

#[test]
fn no_unwrap_only_applies_to_strict_crates() {
    let vs = lint_one("crates/bench/src/fixture.rs", NO_UNWRAP);
    assert!(
        by_rule(&vs, "no-unwrap").is_empty(),
        "bench is not a strict crate: {vs:?}"
    );
}

#[test]
fn relaxed_ordering_flags_relaxed_store_only() {
    let vs = lint_one("crates/core/src/fixture.rs", RELAXED);
    let hits = by_rule(&vs, "relaxed-ordering");
    assert_eq!(hits.len(), 1, "exactly the Relaxed store: {vs:?}");
    assert!(hits[0].line.contains("Ordering::Relaxed"));
    assert!(
        !vs.iter().any(|v| v.line.contains("Ordering::Release")),
        "the Release store is correct and must not be flagged"
    );
}

#[test]
fn wire_cap_flags_unguarded_allocation_only() {
    let vs = lint_one("crates/store/src/fixture.rs", WIRE_CAP);
    let hits = by_rule(&vs, "wire-cap");
    assert_eq!(hits.len(), 1, "only the unguarded decoder: {vs:?}");
    let unguarded_fn = WIRE_CAP
        .lines()
        .position(|l| l.contains("fn decode_unguarded"))
        .expect("fixture defines decode_unguarded")
        + 1;
    let guarded_fn = WIRE_CAP
        .lines()
        .position(|l| l.contains("fn decode_guarded"))
        .expect("fixture defines decode_guarded")
        + 1;
    assert!(
        hits[0].line_no > unguarded_fn && hits[0].line_no < guarded_fn,
        "flagged line must be inside decode_unguarded: {hits:?}"
    );
}

#[test]
fn wire_cap_needs_a_wire_decoding_file() {
    // The same allocation pattern in a file that never decodes wire bytes is
    // ordinary arithmetic sizing and must not trip the rule.
    let body = "pub fn grow(n: u32) -> Vec<u8> {\n    vec![0u8; n as usize]\n}\n";
    let vs = lint_one("crates/core/src/fixture.rs", body);
    assert!(by_rule(&vs, "wire-cap").is_empty(), "{vs:?}");
}

#[test]
fn deprecated_api_flags_cross_file_use_only() {
    let caller = "pub fn route(x: u32) -> u32 {\n    old_route(x)\n}\n\
                  pub fn bold_router(x: u32) -> u32 {\n    x\n}\n";
    let files = vec![
        (
            "crates/core/src/old_api.rs".to_string(),
            DEPRECATED.to_string(),
        ),
        ("crates/bench/src/caller.rs".to_string(), caller.to_string()),
    ];
    let vs = lint_sources(&files);
    let hits = by_rule(&vs, "deprecated-api");
    assert_eq!(hits.len(), 1, "exactly the cross-file call: {vs:?}");
    assert_eq!(hits[0].path, "crates/bench/src/caller.rs");
    assert!(hits[0].line.contains("old_route(x)"));
    // `bold_router` contains `old_route` as a substring but not as a word.
    assert!(
        !hits.iter().any(|v| v.line.contains("bold_router")),
        "word-boundary check failed: {hits:?}"
    );
}

#[test]
fn allowlist_parses_tabs_and_skips_comments() {
    let body = "# comment line\n\
                \n\
                no-unwrap\tcrates/net/src/a.rs\t.expect(\"len checked\")\n\
                relaxed-ordering\tcrates/net/src/b.rs\tcounter.fetch_add\n";
    let entries = parse_allowlist(body);
    assert_eq!(entries.len(), 2);
    assert_eq!(entries[0].rule, "no-unwrap");
    assert_eq!(entries[0].path, "crates/net/src/a.rs");
    assert_eq!(entries[0].needle, ".expect(\"len checked\")");
}

#[test]
fn allowlist_splits_matched_fresh_and_stale() {
    let violations = vec![
        Violation {
            rule: "no-unwrap",
            path: "crates/net/src/a.rs".to_string(),
            line_no: 3,
            line: "let x = v.pop().expect(\"len checked\");".to_string(),
        },
        Violation {
            rule: "no-unwrap",
            path: "crates/net/src/a.rs".to_string(),
            line_no: 9,
            line: "let y = other.unwrap();".to_string(),
        },
    ];
    let allow = parse_allowlist(
        "no-unwrap\tcrates/net/src/a.rs\t.expect(\"len checked\")\n\
         no-unwrap\tcrates/net/src/gone.rs\tnever matches\n",
    );
    let (allowed, fresh, stale) = apply_allowlist(violations, &allow);
    assert_eq!(allowed.len(), 1, "the expect is allowlisted");
    assert_eq!(allowed[0].line_no, 3);
    assert_eq!(fresh.len(), 1, "the bare unwrap is a new violation");
    assert_eq!(fresh[0].line_no, 9);
    assert_eq!(stale.len(), 1, "the gone.rs entry matched nothing");
    assert_eq!(stale[0].path, "crates/net/src/gone.rs");
}

/// Runs the `skipweb-lint` binary over a one-file workspace whose
/// allowlist is `allow`, returning (exit success, stdout).
fn run_binary_with_allowlist(tag: &str, allow: &str) -> (bool, String) {
    let root = std::env::temp_dir().join(format!("skipweb-lint-{}-{tag}", std::process::id()));
    let src = root.join("crates/core/src");
    std::fs::create_dir_all(&src).expect("create scratch workspace");
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write manifest");
    std::fs::write(src.join("lib.rs"), "pub fn id(x: u32) -> u32 {\n    x\n}\n")
        .expect("write source");
    std::fs::write(root.join("lint.allow"), allow).expect("write allowlist");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_skipweb-lint"))
        .current_dir(&root)
        .output()
        .expect("run skipweb-lint");
    std::fs::remove_dir_all(&root).ok();
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn a_stale_allowlist_entry_fails_the_binary_and_is_named() {
    let (ok, stdout) = run_binary_with_allowlist(
        "stale",
        "relaxed-ordering\tcrates/core/src/lib.rs\tcounter.fetch_add\n",
    );
    assert!(!ok, "a stale entry must fail the run:\n{stdout}");
    assert!(
        stdout
            .contains("[stale allow] relaxed-ordering\tcrates/core/src/lib.rs\tcounter.fetch_add"),
        "the stale entry is named:\n{stdout}"
    );
    // The same clean workspace with nothing stale passes.
    let (ok, stdout) = run_binary_with_allowlist("clean", "# nothing allowed\n");
    assert!(ok, "a clean workspace passes:\n{stdout}");
}

#[test]
fn committed_allowlist_is_clean_against_the_workspace() {
    // The real end-to-end run the binary performs: zero new violations and
    // zero stale entries against the committed lint.allow.
    let root = skipweb_lint::workspace_root().expect("test runs inside the workspace");
    let outcome = skipweb_lint::run(&root, false);
    assert!(
        outcome.new_violations.is_empty(),
        "new lint violations:\n{}",
        outcome.lines.join("\n")
    );
    assert!(
        outcome.stale_allow.is_empty(),
        "stale lint.allow entries:\n{}",
        outcome.stale_allow.join("\n")
    );
}
