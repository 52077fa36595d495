//! `rap stream` without `--out`, through the real binary: events reach
//! stdout while the stream is still running, and a stdout that closed
//! turns into an error exit rather than a panic.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

/// Temp-file path unique to this test process.
fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rap_stream_stdout_{}_{name}", std::process::id()))
}

/// The `rap stream` command line over a 6x6 grid fixture written for
/// `test`, with `source` appended.
fn stream_args(test: &str, source: &[&str]) -> Vec<String> {
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
    let mut args: Vec<String> = [
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
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    args.extend(source.iter().map(ToString::to_string));
    args
}

#[test]
fn events_reach_stdout_while_the_stream_runs() {
    // A stdin source keeps the stream open until the test closes it.
    let mut child = Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(stream_args("live", &["--deltas", "-"]))
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn rap");
    let stdout = child.stdout.take().unwrap();
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.expect("stdout is UTF-8")).is_err() {
                break;
            }
        }
    });

    let Ok(first) = rx.recv_timeout(Duration::from_secs(60)) else {
        let _ = child.kill();
        panic!("no event reached stdout while the source was still open");
    };
    assert!(first.contains("\"action\":\"initial\""), "{first}");
    assert!(
        child.try_wait().unwrap().is_none(),
        "the stream is still waiting on stdin"
    );

    let mut stdin = child.stdin.take().unwrap();
    let delta = r#"{"op":"add","origin":2,"destination":33,"volume":100,"alpha":0.1}"#;
    writeln!(stdin, "{delta}").unwrap();
    drop(stdin);
    assert!(child.wait().unwrap().success());
    reader.join().unwrap();
    let rest: Vec<String> = rx.try_iter().collect();
    assert!(
        rest.iter().any(|l| l.starts_with("stream done: 1 applied")),
        "{rest:?}"
    );
    assert_eq!(rest.last().map(String::as_str), Some("}"));
}

#[test]
fn a_closed_stdout_is_an_error_exit_not_a_panic() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rap"))
        .args(stream_args("closed", &["--synthetic", "50"]))
        .stdout(Stdio::from(writer))
        .output()
        .expect("spawn rap");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.starts_with("error: event sink failed"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
