//! End-to-end crash recovery through the real binary.
//!
//! A `rap stream` process is killed mid-stream by its own deterministic
//! `--crash-after` abort (which dies via `SIGABRT` without unwinding,
//! exactly like `kill -9` as far as the filesystem is concerned), the last
//! bytes of its WAL are torn off as a crash mid-append would leave them,
//! and the summary of the resumed run is compared field for field against
//! a clean run that never crashed. This is the binary-level version of the
//! recovery proptest in the root `tests/stream_recovery.rs`: it exercises
//! argument parsing, source reconstruction, the stderr report of the
//! dropped tail, and exit codes as well.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Temp-file path unique to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rap_crash_recovery_{}_{name}", std::process::id()))
}

/// Writes the 6x6 grid graph + flows fixture for `test` and returns the
/// paths.
fn fixture(test: &str) -> (PathBuf, PathBuf) {
    let gp = temp(&format!("{test}_graph.txt"));
    let fp = temp(&format!("{test}_flows.csv"));
    let grid = rap_graph::GridGraph::new(6, 6, rap_graph::Distance::from_feet(250));
    let mut f = std::fs::File::create(&gp).unwrap();
    rap_graph::io::write_text(grid.graph(), &mut f).unwrap();
    std::fs::write(
        &fp,
        "origin,destination,volume,alpha\n0,35,900,0.3\n5,30,500,0.2\n18,3,750,0.25\n",
    )
    .unwrap();
    (gp, fp)
}

/// The `rap stream` arguments of a 150-delta synthetic run over the
/// fixture, followed by `extra`.
fn stream_args(gp: &std::path::Path, fp: &std::path::Path, extra: &[&str]) -> Vec<String> {
    let mut v: Vec<String> = [
        "stream",
        "--graph",
        gp.to_str().unwrap(),
        "--flows",
        fp.to_str().unwrap(),
        "--shop",
        "14",
        "--k",
        "2",
        "--d",
        "2000",
        "--check-interval",
        "8",
        "--threads",
        "2",
        "--metrics-interval",
        "50",
        "--synthetic",
        "150",
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    v.extend(extra.iter().map(ToString::to_string));
    v
}

/// Runs the `rap` binary with `args`.
fn rap(args: &[String]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(args)
        .output()
        .expect("spawn rap")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Pulls a `"field": value` line out of the pretty-printed summary JSON.
///
/// The NDJSON events carry some of the same keys (a `metrics` event has
/// `live_flows`, `checks`, `repairs`, …) but start with `{`, so only a line
/// that starts with the key is a summary line.
fn summary_field(report: &str, field: &str) -> String {
    let key = format!("\"{field}\":");
    report
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with(&key))
        .unwrap_or_else(|| panic!("summary field {field} missing in:\n{report}"))
        .trim_end_matches(',')
        .to_string()
}

/// Runs a durable stream that aborts right after journaling `crash_after`
/// items; asserts it died and left its WAL behind.
fn crash(gp: &std::path::Path, fp: &std::path::Path, durable: &[&str], crash_after: &str) {
    let mut crash_args = durable.to_vec();
    crash_args.extend(["--crash-after", crash_after]);
    let out = rap(&stream_args(gp, fp, &crash_args));
    assert!(
        !out.status.success(),
        "the crash run must die, got: {}",
        stdout(&out)
    );
}

#[test]
fn killed_stream_resumes_bit_identically() {
    let (gp, fp) = fixture("killed");
    let wal = temp("crash.wal");
    let snap = temp("crash.snap");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();

    // Reference: the same stream, never crashed, no durability at all.
    let clean = rap(&stream_args(&gp, &fp, &[]));
    assert!(
        clean.status.success(),
        "clean run failed:\n{}",
        stdout(&clean)
    );
    let clean = stdout(&clean);

    // Crashed run: durable, aborted hard after 67 journaled items (mid
    // WAL-suffix, past the first rotation at 40).
    let durable = [
        "--wal",
        wal.to_str().unwrap(),
        "--snapshot",
        snap.to_str().unwrap(),
        "--snapshot-every",
        "40",
        "--fsync",
        "always",
    ];
    crash(&gp, &fp, &durable, "67");

    // Tear the last 3 bytes off the log, as a crash mid-append would: the
    // last record is lost and its item is read again from the source.
    let log = std::fs::read(&wal).expect("the crashed run must leave its WAL behind");
    assert!(!log.is_empty(), "items 40..67 are in the WAL");
    std::fs::write(&wal, &log[..log.len() - 3]).unwrap();

    // Resume: same scenario + source arguments, plus --resume.
    let mut resume_args = durable.to_vec();
    resume_args.extend(["--resume", "true"]);
    let argv = stream_args(&gp, &fp, &resume_args);
    let out = rap(&argv);
    let resumed = stdout(&out);
    assert!(out.status.success(), "resume failed:\n{resumed}");
    assert!(resumed.contains("\"action\":\"resume\""), "{resumed}");
    let report = stderr(&out);
    assert!(
        report.starts_with("rap stream: resume dropped the WAL tail from byte ")
            && report.contains("(torn record payload)")
            && report.lines().count() == 1,
        "one stderr line reports the torn tail, got:\n{report}"
    );

    // The resumed run's final accounting matches the never-crashed run
    // exactly — epoch, objective (bit-for-bit in its printed form), the
    // delta counters and the maintenance counters.
    for field in [
        "final_epoch",
        "final_objective",
        "deltas_applied",
        "deltas_rejected",
        "live_flows",
        "forced_compactions",
        "checks",
        "repairs",
        "resolves",
    ] {
        assert_eq!(
            summary_field(&clean, field),
            summary_field(&resumed, field),
            "field {field} diverged\nclean:\n{clean}\nresumed:\n{resumed}"
        );
    }

    // After the clean finish the WAL is truncated and a final snapshot is
    // in place: a second resume with an exhausted source is a silent no-op
    // that still reports the same totals.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
    let out = rap(&argv);
    assert!(
        out.status.success(),
        "second resume failed:\n{}",
        stdout(&out)
    );
    assert_eq!(stderr(&out), "", "nothing was dropped");
    assert_eq!(
        summary_field(&resumed, "final_objective"),
        summary_field(&stdout(&out), "final_objective")
    );

    for p in [&wal, &snap, &gp, &fp] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn wal_of_a_missing_snapshot_does_not_resume() {
    let (gp, fp) = fixture("orphan");
    let wal = temp("orphan.wal");
    let snap = temp("orphan.snap");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();

    // A snapshot at item 40, items 40..67 in the WAL.
    let wal_arg = ["--wal", wal.to_str().unwrap()];
    let durable = [
        &wal_arg[..],
        &[
            "--snapshot",
            snap.to_str().unwrap(),
            "--snapshot-every",
            "40",
        ],
    ]
    .concat();
    crash(&gp, &fp, &durable, "67");
    let log = std::fs::read(&wal).unwrap();

    // Resuming the log without its snapshot — not passed, or deleted —
    // would replay items 40..67 onto the state of item 0. Both refuse
    // with a typed error and leave the log as it was.
    std::fs::remove_file(&snap).unwrap();
    for args in [&wal_arg[..], &durable] {
        let argv = stream_args(&gp, &fp, &[args, &["--resume", "true"]].concat());
        let out = rap(&argv);
        assert_eq!(out.status.code(), Some(2), "{}", stdout(&out));
        let report = stderr(&out);
        assert!(
            report.starts_with("error: durability failure: snapshot section `wal` malformed")
                && report.contains("source item 40")
                && report.contains("not this stream's log"),
            "{report}"
        );
        assert_eq!(std::fs::read(&wal).unwrap(), log);
    }

    for p in [&wal, &snap, &gp, &fp] {
        std::fs::remove_file(p).ok();
    }
}
