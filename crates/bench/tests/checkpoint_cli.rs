//! Kill-mode crash test for the `campaign` binary: a run hard-killed by a
//! `HAYAT_FAILPOINT=...:kill` fault (process exits with no unwinding, like
//! an OOM kill) must resume from its checkpoint to a result byte-identical
//! to an uninterrupted run's JSON export. Bad checkpoint flags must fail
//! fast, before any setup, with one line of text.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("hayat_cli_{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&path).ok();
    path
}

/// Shared tiny-campaign flags: 2 chips × 4 epochs on a 4×4 mesh.
const FLAGS: &[&str] = &[
    "--chips",
    "2",
    "--years",
    "1",
    "--epoch",
    "0.25",
    "--window",
    "0.1",
    "--mesh",
    "4",
    "--policies",
    "hayat",
];

fn campaign_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(FLAGS).env_remove("HAYAT_FAILPOINT");
    cmd
}

#[test]
fn hard_killed_campaign_resumes_to_an_identical_result() {
    let reference_json = scratch("reference.json");
    let resumed_json = scratch("resumed.json");
    let checkpoint = scratch("cli.ckpt");

    let reference = campaign_cmd()
        .args(["--json", reference_json.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert!(
        reference.status.success(),
        "uninterrupted run failed: {}",
        String::from_utf8_lossy(&reference.stderr)
    );

    // Kill the process outright at the 6th epoch, with 4 workers so the
    // crash lands mid-flight in a genuinely parallel pool. The resume below
    // deliberately uses the default worker count: checkpoints written under
    // any `--jobs` must resume under any other.
    let killed = campaign_cmd()
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--every", "1"])
        .args(["--jobs", "4"])
        .env("HAYAT_FAILPOINT", "campaign.epoch:6:kill")
        .output()
        .expect("run campaign binary");
    assert_eq!(
        killed.status.code(),
        Some(137),
        "kill mode must exit with the SIGKILL convention code; stderr: {}",
        String::from_utf8_lossy(&killed.stderr)
    );
    assert!(checkpoint.exists(), "the checkpoint must survive the kill");

    let resumed = campaign_cmd()
        .args(["--resume", checkpoint.to_str().unwrap()])
        .args(["--json", resumed_json.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert!(
        resumed.status.success(),
        "resume failed: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resumed.stdout).contains("resuming from checkpoint"),
        "resume must announce itself"
    );

    let expected = std::fs::read(&reference_json).expect("reference JSON written");
    let actual = std::fs::read(&resumed_json).expect("resumed JSON written");
    assert!(
        expected == actual,
        "resumed campaign JSON must be byte-identical to the uninterrupted run"
    );

    for path in [&reference_json, &resumed_json] {
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_dir_all(&checkpoint).ok();
}

#[test]
fn malformed_failpoint_spec_aborts_instead_of_running_vacuously() {
    let checkpoint = scratch("badspec.ckpt");
    let out = campaign_cmd()
        .args(["--checkpoint", checkpoint.to_str().unwrap()])
        .env("HAYAT_FAILPOINT", "not-a-spec")
        .output()
        .expect("run campaign binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("site:hit:mode"),
        "the error must explain the expected format"
    );
    std::fs::remove_dir_all(&checkpoint).ok();
}

/// Asserts that `out` is an exit-2 refusal whose stderr is exactly one line
/// containing `needle`.
fn assert_refused(out: &std::process::Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "one line of text, got: {stderr}");
    assert!(stderr.contains(needle), "got: {stderr}");
}

#[test]
fn zero_or_non_numeric_cadence_is_refused_in_one_line() {
    let checkpoint = scratch("every0.ckpt");
    let out = campaign_cmd()
        .args(["--checkpoint", checkpoint.to_str().unwrap(), "--every", "0"])
        .output()
        .expect("run campaign binary");
    assert_refused(&out, "--every");
    assert!(!checkpoint.exists(), "nothing may run before the refusal");

    for every in ["0", "soon"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig7_10"))
            .args(["--quick", "--checkpoint", checkpoint.to_str().unwrap()])
            .args(["--every", every])
            .env_remove("HAYAT_FAILPOINT")
            .output()
            .expect("run fig7_10 binary");
        assert_refused(&out, "--every");
    }
    assert!(!checkpoint.exists());
}

#[test]
fn resume_from_a_missing_checkpoint_is_refused_in_one_line() {
    let missing = scratch("missing.ckpt");
    let out = campaign_cmd()
        .args(["--resume", missing.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert_refused(&out, "no checkpoint");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

#[test]
fn resume_of_a_directory_without_a_manifest_starts_fresh() {
    // A kill between a fresh run's directory creation and its first
    // manifest write leaves an empty directory, or one holding only
    // `tail.json`. Neither holds committed progress, so `--resume` runs the
    // campaign from scratch, checkpointed into the same directory.
    let reference_json = scratch("fresh_reference.json");
    let reference = campaign_cmd()
        .args(["--json", reference_json.to_str().unwrap()])
        .output()
        .expect("run campaign binary");
    assert!(reference.status.success());
    let expected = std::fs::read(&reference_json).expect("reference JSON written");

    for (name, tail_only) in [("empty.ckpt", false), ("tail_only.ckpt", true)] {
        let checkpoint = scratch(name);
        std::fs::create_dir_all(&checkpoint).unwrap();
        if tail_only {
            std::fs::write(
                checkpoint.join("tail.json"),
                r#"{"completed":[],"in_flight":null}"#,
            )
            .unwrap();
        }
        let resumed_json = scratch(&format!("{name}.json"));
        let resumed = campaign_cmd()
            .args(["--resume", checkpoint.to_str().unwrap()])
            .args(["--json", resumed_json.to_str().unwrap()])
            .output()
            .expect("run campaign binary");
        assert!(
            resumed.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        let actual = std::fs::read(&resumed_json).expect("resumed JSON written");
        assert!(
            expected == actual,
            "{name}: JSON differs from the uninterrupted run"
        );
        assert!(
            checkpoint.join("manifest.json").is_file(),
            "{name}: the fresh run must checkpoint into the same directory"
        );
        std::fs::remove_file(&resumed_json).ok();
        std::fs::remove_dir_all(&checkpoint).ok();
    }
    std::fs::remove_file(&reference_json).ok();
}

fn fig7_10_cmd() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig7_10"));
    cmd.env_remove("HAYAT_FAILPOINT");
    cmd
}

/// The two retired decision-oracle flags: the table-path and search-path
/// selectors.
fn retired_flags() -> [String; 2] {
    ["table", "search"].map(|knob| format!("--{knob}-path"))
}

/// The retired execution flags with the values they used to take: work
/// stealing, core pinning and the lockstep batch width.
const RETIRED_EXECUTION_FLAGS: [[&str; 2]; 3] = [
    ["--schedule", "steal"],
    ["--pin", "cores"],
    ["--batch", "8"],
];

#[test]
fn fig7_10_refuses_unknown_and_retired_flags_in_one_line() {
    let [table, search] = retired_flags();
    let [[schedule, steal], [pin, cores], [batch, width]] = RETIRED_EXECUTION_FLAGS;
    let cases: [&[&str]; 7] = [
        &["--quick", "--bogus-flag", "7"],
        &["--quick", search.as_str(), "exhaustive"],
        &["--quick", table.as_str(), "oracle"],
        &["--quick", schedule, steal],
        &["--quick", pin, cores],
        &["--quick", batch, width],
        &["--quick", "--jobs"],
    ];
    for args in cases {
        let out = fig7_10_cmd()
            .args(args)
            .output()
            .expect("run fig7_10 binary");
        assert_refused(&out, args[1]);
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{args:?}");
    }
}

#[test]
fn fig7_10_refuses_a_missing_json_directory_before_running() {
    let missing = scratch("no_such_json_dir");
    let out = fig7_10_cmd()
        .args(["--quick", "--json", missing.to_str().unwrap()])
        .output()
        .expect("run fig7_10 binary");
    assert_refused(&out, "--json");
    assert!(String::from_utf8_lossy(&out.stdout).is_empty());
}

#[test]
fn campaign_refuses_the_retired_oracle_flags() {
    let oracle_flags = retired_flags().map(|flag| [flag, "fast".to_owned()]);
    let execution_flags = RETIRED_EXECUTION_FLAGS.map(|pair| pair.map(str::to_owned));
    for args in oracle_flags.iter().chain(&execution_flags) {
        let out = campaign_cmd()
            .args(args)
            .output()
            .expect("run campaign binary");
        assert_refused(&out, &args[0]);
        assert!(String::from_utf8_lossy(&out.stdout).is_empty(), "{args:?}");
    }
}
