//! The complete reproduction, in-process.
//!
//! `repro_all` prints every table and figure in paper order, then the §3.2
//! overhead summary — the text `scripts/expected/repro_all.txt` pins.
//! `repro_all <name>…` prints only the named sections, in the order given.

use coign_bench::{registry, DEFAULT_SECTIONS};
use std::io::{self, StdoutLock, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let sections = registry::<StdoutLock>();
    let names: Vec<String> = std::env::args().skip(1).collect();
    let lookup = |name: &String| sections.iter().find(|(known, _)| known == name);
    if let Some(unknown) = names.iter().find(|name| lookup(name).is_none()) {
        let valid = sections.map(|(name, _)| name).join(" ");
        eprintln!("repro_all: unknown section `{unknown}`; valid sections: {valid}");
        return ExitCode::from(2);
    }
    let mut out = io::stdout().lock();
    let result = if names.is_empty() {
        let rule = "=".repeat(78);
        sections[..DEFAULT_SECTIONS]
            .iter()
            .try_for_each(|(_, section)| writeln!(out, "{rule}").and_then(|()| section(&mut out)))
            .and_then(|()| writeln!(out, "{rule}\nAll tables and figures reproduced."))
    } else {
        let mut chosen = names.iter().filter_map(lookup);
        chosen.try_for_each(|(_, section)| section(&mut out))
    };
    if let Err(e) = result {
        eprintln!("repro_all: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
