//! The commands that build a scenario from a graph and flows write nothing
//! to stderr on success, through the real binary: `rap stream` and
//! `rap snapshot save` build through the same front door as `rap place`,
//! at any `--threads`.

use std::path::PathBuf;
use std::process::Command;

/// Temp-file path unique to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rap_quiet_stderr_{}_{name}", std::process::id()))
}

/// Writes a 6x6 grid and three flows from distinct origins for `test`;
/// returns the graph and flows paths.
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

/// Runs `rap` with `args`; asserts a clean exit and an empty stderr.
fn assert_quiet(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(args)
        .output()
        .expect("spawn rap");
    assert!(out.status.success(), "rap {args:?} failed: {out:?}");
    assert!(
        out.stderr.is_empty(),
        "rap {args:?} wrote to stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn stream_writes_nothing_to_stderr() {
    let (gp, fp) = fixture("stream");
    let (g, f) = (gp.to_str().unwrap(), fp.to_str().unwrap());
    for threads in [&["--threads", "1"][..], &[]] {
        let mut args = vec![
            "stream",
            "--graph",
            g,
            "--flows",
            f,
            "--shop",
            "14",
            "--k",
            "2",
            "--synthetic",
            "50",
        ];
        args.extend_from_slice(threads);
        assert_quiet(&args);
    }
    for path in [gp, fp] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn snapshot_save_writes_nothing_to_stderr() {
    let (gp, fp) = fixture("save");
    let snap = temp("save.snap");
    assert_quiet(&[
        "snapshot",
        "save",
        "--file",
        snap.to_str().unwrap(),
        "--graph",
        gp.to_str().unwrap(),
        "--flows",
        fp.to_str().unwrap(),
        "--shop",
        "14",
    ]);
    for path in [gp, fp, snap] {
        let _ = std::fs::remove_file(path);
    }
}
