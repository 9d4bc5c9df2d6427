//! Drives the compiled `coign` binary end to end through its command-line
//! interface — argument parsing, exit codes, and the on-disk workflow.

use std::path::PathBuf;
use std::process::{Command, Stdio};

fn coign(args: &[&str]) -> (bool, String, String) {
    let exe = env!("CARGO_BIN_EXE_coign");
    let output = Command::new(exe).args(args).output().expect("spawn coign");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

fn temp(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("coign_bin_{tag}_{}.cimg", std::process::id()));
    path
}

#[test]
fn usage_on_no_arguments() {
    let (ok, _, err) = coign(&[]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let (ok, _, err) = coign(&["defenestrate"]);
    assert!(!ok);
    assert!(err.contains("USAGE"));
}

#[test]
fn full_workflow_through_the_binary() {
    let image = temp("flow");
    let image_str = image.to_str().unwrap();

    let (ok, out, _) = coign(&["instrument", "benefits", image_str]);
    assert!(ok, "instrument failed");
    assert!(out.contains("coignrte.dll"));

    let (ok, out, _) = coign(&["profile", image_str, "b_vueone"]);
    assert!(ok, "profile failed");
    assert!(out.contains("messages"));

    let (ok, out, _) = coign(&["analyze", image_str]);
    assert!(ok, "analyze failed");
    assert!(out.contains("coignlte.dll"));

    let (ok, out, _) = coign(&["run", image_str, "b_vueone"]);
    assert!(ok, "run failed");
    assert!(out.contains("cross-machine"));

    let (ok, out, _) = coign(&["show", image_str]);
    assert!(ok, "show failed");
    assert!(out.contains("distributed"));

    let (ok, _, err) = coign(&["profile", image_str, "no_such_scenario"]);
    assert!(!ok);
    assert!(err.contains("error:"));

    let (ok, _, _) = coign(&["strip", image_str]);
    assert!(ok, "strip failed");
    std::fs::remove_file(&image).ok();
}

#[test]
fn check_reports_diagnostics_with_exit_semantics() {
    let image = temp("check");
    let image_str = image.to_str().unwrap();
    let (ok, _, _) = coign(&["instrument", "photodraw", image_str]);
    assert!(ok, "instrument failed");

    // Healthy image: warnings only (PhotoDraw's opaque-pointer interfaces),
    // exit 0, no profiling data needed.
    let (ok, out, _) = coign(&["check", image_str]);
    assert!(ok, "check should exit 0 without error diagnostics: {out}");
    assert!(out.contains("COIGN010"));
    assert!(out.contains("COIGN012"));
    assert!(out.contains("0 error(s)"));

    // JSON mode is machine-readable and carries the same codes.
    let (ok, out, _) = coign(&["check", image_str, "--json"]);
    assert!(ok);
    assert!(out.trim_end().starts_with("{\"errors\":0,"));
    assert!(out.contains("\"code\":\"COIGN010\""));
    assert!(out.contains("\"severity\":\"warn\""));

    std::fs::remove_file(&image).ok();
}

#[test]
fn check_exits_nonzero_on_error_diagnostics() {
    let image = temp("checkerr");
    let image_str = image.to_str().unwrap();
    let (ok, _, _) = coign(&["instrument", "octarine", image_str]);
    assert!(ok);

    // Corrupt the configuration record: undecodable garbage is COIGN035.
    let bytes = std::fs::read(&image).unwrap();
    let mut img = coign_com::AppImage::decode(&bytes).unwrap();
    img.set_config_record(vec![0xba, 0xad]);
    std::fs::write(&image, img.encode()).unwrap();

    let (ok, out, _) = coign(&["check", image_str]);
    assert!(!ok, "error diagnostics must produce a failure exit");
    assert!(out.contains("COIGN035"));

    let (ok, out, _) = coign(&["check", image_str, "--json"]);
    assert!(!ok);
    assert!(out.contains("\"code\":\"COIGN035\""));

    std::fs::remove_file(&image).ok();
}

#[test]
fn closed_stdout_is_a_failed_write_not_a_panic() {
    // `coign show img | head -1` with `head` gone before the one write:
    // the child's stdout is a pipe whose read end is already closed.
    let image = temp("closed_stdout");
    let image_str = image.to_str().unwrap();
    let (ok, _, _) = coign(&["instrument", "benefits", image_str]);
    assert!(ok, "instrument failed");
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let output = Command::new(env!("CARGO_BIN_EXE_coign"))
        .args(["show", image_str])
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("spawn coign");
    let err = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(&image).ok();
}

#[test]
fn errors_surface_on_stderr_with_failure_exit() {
    let (ok, out, err) = coign(&["show", "/definitely/not/a/file.cimg"]);
    assert!(!ok);
    assert!(out.is_empty());
    assert!(err.contains("error:"));
}

/// An instrumented Octarine image whose classifier table names a
/// classification interned after the descriptor holding it: IFCB
/// descriptor 1's only chain entry is classification 7.
fn forward_reference_image(tag: &str) -> PathBuf {
    let image = temp(tag);
    let (ok, _, _) = coign(&["instrument", "octarine", image.to_str().unwrap()]);
    assert!(ok, "instrument failed");
    let mut table = coign_com::codec::Encoder::new();
    table.put_u8(4); // IFCB classifier,
    table.put_bool(false); // full stack walk,
    table.put_seq(1); // one descriptor: IFCB,
    table.put_u8(4);
    table.put_guid(coign_com::Guid::NULL);
    table.put_seq(1); // one chain entry: who = 7, clsid, iid, method.
    table.put_u32(7);
    table.put_guid(coign_com::Guid::NULL);
    table.put_guid(coign_com::Guid::NULL);
    table.put_u32(0);
    let record = coign::config::ConfigRecord::profiling(table.finish());
    let mut img = coign_com::AppImage::decode(&std::fs::read(&image).unwrap()).unwrap();
    img.set_config_record(record.encode());
    std::fs::write(&image, img.encode()).unwrap();
    image
}

#[test]
fn parallel_profiling_refuses_a_forward_reference_table() {
    // Forked workers used to panic absorbing this table back.
    let image = forward_reference_image("fwdref_profile");
    let args = ["profile", image.to_str().unwrap(), "o_newdoc", "o_oldwp0"];
    let (ok, _, err) = coign(&[&args[..], &["--jobs", "2"]].concat());
    assert!(!ok);
    assert!(err.contains("interned after it"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_file(&image).ok();
}

#[test]
fn serve_refuses_a_window_past_its_bound() {
    // `--window u64::MAX` used to overflow the simulated server clock.
    let dir = temp("serve_window").with_extension("d");
    let (ok, _, err) = coign(&["gen", "--seed", "3", "--emit", dir.to_str().unwrap()]);
    assert!(ok, "gen failed: {err}");
    let image = dir.join("gen-3-small.cimg");
    let image = image.to_str().unwrap();
    let (ok, _, err) = coign(&["profile", image, "g_main"]);
    assert!(ok, "profile failed: {err}");
    let (ok, _, err) = coign(&[
        "serve",
        image,
        "g_main",
        "ethernet",
        "--sessions",
        "200",
        "--seed",
        "7",
        "--window",
        "18446744073709551615",
    ]);
    assert!(!ok);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("--window"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_reports_a_forward_reference_table() {
    let image = forward_reference_image("fwdref_check");
    let (ok, out, _) = coign(&["check", image.to_str().unwrap()]);
    assert!(!ok, "a table parallel profiling cannot load is an error");
    assert!(out.contains("COIGN035"), "{out}");
    std::fs::remove_file(&image).ok();
}
