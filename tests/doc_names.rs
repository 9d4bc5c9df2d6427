//! The docs name only things that exist.
//!
//! Every backticked Rust path (`a::b`) in DESIGN.md, README.md and
//! EXPERIMENTS.md must name identifiers present in the Rust sources (code,
//! not comments), and every backticked repository path must exist. A doc
//! sentence about a deleted function, option or file fails here instead of
//! surviving as a stale claim.

use std::collections::HashSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every `.rs` file under `dir`, build output excluded.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            if !path.ends_with("target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every identifier in the workspace's Rust sources, comments left out.
fn source_identifiers() -> HashSet<String> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark"] {
        rust_files(&root().join(dir), &mut files);
    }
    let mut identifiers = HashSet::new();
    for file in files {
        for line in fs::read_to_string(&file).expect("readable source").lines() {
            let line = line.trim_start();
            if line.starts_with("//") {
                continue;
            }
            let code = line.split(" // ").next().unwrap_or_default();
            identifiers.extend(
                code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                    .filter(|word| !word.is_empty())
                    .map(str::to_string),
            );
        }
    }
    identifiers
}

/// The backticked spans of a Markdown document with the line each starts
/// on; fenced code blocks are skipped and a span may wrap a line.
fn code_spans(text: &str) -> Vec<(usize, String)> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
        }
        prose.push('\n');
    }
    let mut spans = Vec::new();
    let mut line = 1;
    for (i, piece) in prose.split('`').enumerate() {
        if i % 2 == 1 && !piece.is_empty() {
            spans.push((line, piece.replace('\n', " ")));
        }
        line += piece.matches('\n').count();
    }
    spans
}

/// `span` as a repository path (`tests/faults.rs`, `scripts/expected/`,
/// optionally with a `:line` suffix), if it looks like one.
fn repo_path(span: &str) -> Option<&str> {
    let path = match span.split_once(':') {
        Some((path, line)) if line.chars().all(|c| c.is_ascii_digit() || c == '–') => path,
        Some(_) => return None,
        None => span,
    };
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_.-/".contains(c);
    (path.contains('/') && path.starts_with(|c: char| c.is_ascii_alphanumeric()))
        .then_some(path)
        .filter(|path| path.chars().all(path_char))
}

/// Expands one brace group: `{mean,sample}_time_us` → both names.
fn expand_braces(segment: &str) -> Vec<String> {
    match (segment.find('{'), segment.find('}')) {
        (Some(open), Some(close)) if open < close => segment[open + 1..close]
            .split(',')
            .map(|alt| {
                format!(
                    "{}{}{}",
                    &segment[..open],
                    alt.trim(),
                    &segment[close + 1..]
                )
            })
            .collect(),
        _ => vec![segment.to_string()],
    }
}

/// What a `a::b` span fails to name: identifiers absent from the sources
/// and repository paths absent from the tree. Arguments and generics are
/// cut off; spans that are not paths (`[A::V, B::W]`) name nothing.
fn missing_names(span: &str, identifiers: &HashSet<String>) -> Vec<String> {
    let path = span.split(['(', '<']).next().unwrap_or_default();
    let mut compact = String::new();
    let mut depth = 0;
    for c in path.chars() {
        depth += i32::from(c == '{') - i32::from(c == '}');
        if !(c.is_whitespace() && depth > 0) {
            compact.push(c);
        }
    }
    if compact.contains(char::is_whitespace) || !compact.starts_with(char::is_alphanumeric) {
        return Vec::new();
    }
    let is_crate = |name: &str| {
        let short = name.strip_prefix("coign_").unwrap_or(name);
        name == "coign" || root().join("crates").join(short).is_dir()
    };
    let mut missing = Vec::new();
    for (i, segment) in compact.split("::").enumerate() {
        if let Some(file) = repo_path(segment) {
            if !root().join(file).exists() {
                missing.push(file.to_string());
            }
            continue;
        }
        for name in expand_braces(segment) {
            if !(identifiers.contains(&name) || i == 0 && is_crate(&name)) {
                missing.push(name);
            }
        }
    }
    missing
}

#[test]
fn docs_name_only_identifiers_and_paths_that_exist() {
    let identifiers = source_identifiers();
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("readable doc");
        for (line, span) in code_spans(&text) {
            let missing = if span.contains("::") {
                missing_names(&span, &identifiers)
            } else {
                repo_path(&span)
                    .filter(|path| !root().join(path).exists())
                    .map(str::to_string)
                    .into_iter()
                    .collect()
            };
            stale.extend(
                missing
                    .iter()
                    .map(|name| format!("{doc}:{line}: `{span}` names `{name}`")),
            );
        }
    }
    assert!(
        stale.is_empty(),
        "doc spans naming nothing that exists:\n{}",
        stale.join("\n")
    );
}

#[test]
fn the_check_sees_a_deleted_name_and_a_missing_path() {
    // Names here are made up: a real deleted name quoted in this file
    // would count as present in the sources.
    let identifiers: HashSet<String> = ["Transport", "preflight"].map(String::from).into();
    assert!(missing_names("Transport::preflight", &identifiers).is_empty());
    assert_eq!(
        missing_names("Transport::teleport", &identifiers),
        vec!["teleport"]
    );
    assert_eq!(
        missing_names("Transport::{preflight, link}(a, b)", &identifiers),
        vec!["link"]
    );
    assert_eq!(
        missing_names("coign_dcom::Transport", &identifiers),
        Vec::<String>::new()
    );
    assert!(missing_names("[A::V, B::W]", &identifiers).is_empty());
    assert_eq!(repo_path("src/fig3.rs:12"), Some("src/fig3.rs"));
    assert_eq!(repo_path("chrome://tracing"), None);
    assert!(!root().join(repo_path("src/fig3.rs").unwrap()).exists());
    assert_eq!(
        code_spans("a `x::y`\n```\n`no`\n```\n`wrapped\nspan`"),
        vec![(1, "x::y".to_string()), (5, "wrapped span".to_string())]
    );
}
