//! `skipweb-lint`: enforce workspace invariants clippy cannot express.
//!
//! Run from anywhere inside the workspace:
//!
//! ```text
//! cargo run -p skipweb-lint            # exit 1 on new violations or stale allowlist entries
//! cargo run -p skipweb-lint -- --list  # print every violation incl. allowlisted
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let list_all = std::env::args().any(|a| a == "--list");
    let root = match skipweb_lint::workspace_root() {
        Some(root) => root,
        None => {
            eprintln!("skipweb-lint: could not locate the workspace root (no Cargo.toml with [workspace] above the current directory)");
            return ExitCode::from(2);
        }
    };
    let outcome = skipweb_lint::run(&root, list_all);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!(
        "skipweb-lint: {} file(s) checked, {} violation(s) ({} allowlisted, {} new){}",
        outcome.files_checked,
        outcome.total,
        outcome.allowlisted,
        outcome.new_violations.len(),
        if outcome.stale_allow.is_empty() {
            String::new()
        } else {
            format!(", {} stale allowlist entr(ies)", outcome.stale_allow.len())
        },
    );
    if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
