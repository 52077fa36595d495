//! End-to-end crash recovery through the real binary.
//!
//! A `rap stream` process is killed mid-stream — once by its own
//! deterministic `--crash-after` abort (which dies via `SIGABRT` without
//! unwinding, exactly like `kill -9` as far as the filesystem is
//! concerned), and the summary of the resumed run is compared field for
//! field against a clean run that never crashed. This is the binary-level
//! version of the in-process recovery tests in `rap-stream`: it exercises
//! argument parsing, source reconstruction, and exit codes as well.

use std::path::PathBuf;
use std::process::Command;

/// Temp-file path unique to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rap_crash_recovery_{}_{name}", std::process::id()))
}

/// Writes the 6x6 grid graph + flows fixture and returns the paths.
fn fixture() -> (PathBuf, PathBuf) {
    let gp = temp("graph.txt");
    let fp = temp("flows.csv");
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

/// Runs the `rap` binary with `args`, returning (status code, stdout).
fn rap(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(args)
        .output()
        .expect("spawn rap");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
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

#[test]
fn killed_stream_resumes_bit_identically() {
    let (gp, fp) = fixture();
    let wal = temp("crash.wal");
    let snap = temp("crash.snap");
    std::fs::remove_file(&wal).ok();
    std::fs::remove_file(&snap).ok();

    let base = |extra: &[&str]| -> Vec<String> {
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
    };

    // Reference: the same stream, never crashed, no durability at all.
    let (code, clean) = rap(&base(&[]).iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code, Some(0), "clean run failed:\n{clean}");

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
    let mut crash_args = durable.to_vec();
    crash_args.extend(["--crash-after", "67"]);
    let argv = base(&crash_args);
    let out = Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(argv.iter().map(String::as_str))
        .output()
        .expect("spawn rap");
    assert!(
        !out.status.success(),
        "the crash run must die, got: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(wal.exists(), "the crashed run must leave its WAL behind");

    // Resume: same scenario + source arguments, plus --resume.
    let mut resume_args = durable.to_vec();
    resume_args.extend(["--resume", "true"]);
    let argv = base(&resume_args);
    let (code, resumed) = rap(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code, Some(0), "resume failed:\n{resumed}");
    assert!(resumed.contains("\"action\":\"resume\""), "{resumed}");

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
    // in place: a second resume with an exhausted source is a no-op that
    // still reports the same totals.
    assert_eq!(std::fs::metadata(&wal).unwrap().len(), 0);
    let (code, again) = rap(&argv.iter().map(String::as_str).collect::<Vec<_>>());
    assert_eq!(code, Some(0), "second resume failed:\n{again}");
    assert_eq!(
        summary_field(&resumed, "final_objective"),
        summary_field(&again, "final_objective")
    );

    for p in [&wal, &snap, &gp, &fp] {
        std::fs::remove_file(p).ok();
    }
}
