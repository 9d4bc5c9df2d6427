//! EXPERIMENTS.md quotes the pinned paper reproduction by hand. These tests
//! keep it honest: every "Ours" cell of Tables 2, 3 and 4, and Table 5's
//! largest absolute error, must equal the matching row of
//! `scripts/expected/repro_all.txt` — the file `scripts/ci.sh` diffs a
//! fresh `repro_all` run against.

const DOC: &str = include_str!("../EXPERIMENTS.md");
const PINNED: &str = include_str!("../scripts/expected/repro_all.txt");

/// (first cell, last cell) of every body row of the Markdown table in the
/// EXPERIMENTS.md section whose heading starts with `heading`.
fn doc_rows(heading: &str) -> Vec<(&'static str, &'static str)> {
    let section = DOC
        .split("\n## ")
        .find(|s| s.starts_with(heading))
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no section {heading:?}"));
    section
        .lines()
        .filter(|line| line.starts_with("| "))
        .skip(1)
        .map(|line| {
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            (cells[0], cells[cells.len() - 1])
        })
        .collect()
}

/// The whitespace-split rows of the pinned table titled `title`: the lines
/// between its `---` rule and the next blank line.
fn pinned_rows(title: &str) -> Vec<Vec<&'static str>> {
    let mut lines = PINNED.lines().skip_while(|line| !line.starts_with(title));
    lines
        .find(|line| line.starts_with("---"))
        .unwrap_or_else(|| panic!("repro_all.txt has no table {title:?}"));
    lines
        .take_while(|line| !line.is_empty())
        .map(|line| line.split_whitespace().collect())
        .collect()
}

#[test]
fn table2_ours_matches_the_pinned_reproduction() {
    let doc = doc_rows("Table 2");
    let pinned = pinned_rows("Table 2.");
    assert_eq!(doc.len(), pinned.len(), "Table 2 row count");
    // Same classifier order; the two spell the names differently.
    for ((name, ours), row) in doc.iter().zip(&pinned) {
        let values: Vec<&str> = ours.split(" / ").collect();
        assert_eq!(values, row[row.len() - 4..], "Table 2, {name}");
    }
}

#[test]
fn table3_ours_matches_the_pinned_reproduction() {
    let doc = doc_rows("Table 3");
    let pinned = pinned_rows("Table 3.");
    assert_eq!(doc.len(), pinned.len(), "Table 3 row count");
    for ((depth, ours), row) in doc.iter().zip(&pinned) {
        assert_eq!(*depth, row[0], "Table 3 depth order");
        let values: Vec<&str> = ours.split(" / ").collect();
        assert_eq!(values, [row[1], row[3]], "Table 3, depth {depth}");
    }
}

#[test]
fn table4_ours_matches_the_pinned_reproduction() {
    let doc = doc_rows("Table 4");
    let pinned = pinned_rows("Table 4.");
    assert_eq!(doc.len(), 23, "Table 4 covers all 23 scenarios");
    assert_eq!(doc.len(), pinned.len(), "Table 4 row count");
    for ((scenario, ours), row) in doc.iter().zip(&pinned) {
        assert_eq!(*scenario, row[0], "Table 4 scenario order");
        // "0.241 → 0.241 (**0%**)" against "0.241  0.241  0%".
        let values: Vec<&str> = ours
            .split(|c: char| c.is_whitespace() || "→()*".contains(c))
            .filter(|token| !token.is_empty())
            .collect();
        assert_eq!(values, row[1..], "Table 4, {scenario}");
    }
}

#[test]
fn table5_largest_error_matches_the_pinned_reproduction() {
    let pinned = PINNED
        .lines()
        .find_map(|line| line.strip_prefix("Largest absolute error: "))
        .expect("repro_all.txt states Table 5's largest error");
    let doc = DOC
        .split("largest absolute error **")
        .nth(1)
        .and_then(|rest| rest.split("**").next())
        .expect("EXPERIMENTS.md states Table 5's largest error");
    assert_eq!(doc.replace(' ', ""), pinned);
}
