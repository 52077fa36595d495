//! `rap snapshot` — save, load, and verify checksummed scenario snapshots.
//!
//! ```text
//! rap snapshot save   --file scenario.snap --graph g.txt --flows f.csv --shop 12
//! rap snapshot load   --file scenario.snap
//! rap snapshot verify --file scenario.snap
//! ```
//!
//! `save` builds the scenario from its on-disk inputs and writes the binary
//! snapshot atomically; `load` fully decodes it back into a live scenario
//! (checksums, structure, and state invariants all validated); `verify`
//! checks checksums and structure only — no graph rebuild, no Dijkstra —
//! and prints the header facts. All three exit nonzero on any corruption,
//! with a typed reason.

use super::place::read_flows;
use crate::args::Args;
use crate::CliError;
use rap_core::{
    decode_snapshot_with_threads, encode_snapshot, read_snapshot_file, verify_snapshot,
    write_snapshot_atomic, FaultPlan, MutableScenario,
};
use rap_graph::{Distance, NodeId};
use rap_traffic::parallel::default_threads;
use rap_traffic::FlowSet;
use std::fmt::Write as _;
use std::path::Path;

/// Options accepted by `rap snapshot`.
pub const USAGE: &str = "\
rap snapshot save   --file PATH --graph FILE --flows FILE --shop NODE
                    [--utility threshold|linear|sqrt] [--d FEET]
rap snapshot load   --file PATH
rap snapshot verify --file PATH
rap snapshot info   --file PATH

save     build the scenario from its inputs and write a checksummed binary
         snapshot (atomically: temp file + fsync + rename)
load     decode the snapshot back into a live scenario, validating every
         checksum and structural invariant, and report its state
verify   validate checksums and structure only (no scenario rebuild) and
         print the header facts
info     print the RAPSNAP1 header, the per-section directory
         (offset/length/CRC32), and counts
All subcommands exit nonzero on corruption with a typed reason.";

fn save(args: &Args, file: &Path) -> Result<String, CliError> {
    let graph_path = args.required("graph")?;
    let flows_path = args.required("flows")?;
    let shop: u32 = args.required_parsed("shop", "node id")?;
    let (utility, d) = super::utility_and_threshold(args, "linear")?;
    let threads = default_threads();
    let graph = rap_graph::io::read_text(std::fs::File::open(graph_path)?)?;
    let (specs, _) = read_flows(flows_path, false)?;
    let flows = FlowSet::route_parallel(&graph, specs, threads)?;
    let scenario = MutableScenario::new_with_threads(
        graph,
        flows,
        vec![NodeId::new(shop)],
        utility.instantiate(Distance::from_feet(d)),
        threads,
    )?;
    let bytes = encode_snapshot(&scenario, None, 0, &[])?;
    write_snapshot_atomic(file, &bytes, &FaultPlan::none())?;
    Ok(format!(
        "snapshot saved: {} ({} bytes, {} flows, {} nodes)\n",
        file.display(),
        bytes.len(),
        scenario.live_flows(),
        scenario.graph().node_count(),
    ))
}

fn load(file: &Path) -> Result<String, CliError> {
    let bytes = read_snapshot_file(file, &FaultPlan::none())?;
    let contents = decode_snapshot_with_threads(&bytes, default_threads())?;
    let scenario = contents.scenario;
    let mut out = format!(
        "snapshot ok: {} ({} bytes)\n  epoch {}  compactions {}  live flows {}  entries {} ({} dead)\n  source position {}\n",
        file.display(),
        bytes.len(),
        scenario.epoch(),
        scenario.compactions(),
        scenario.live_flows(),
        scenario.total_entries(),
        scenario.dead_entries(),
        contents.source_position,
    );
    match &contents.placement {
        Some(p) => {
            let raps: Vec<String> = p.raps().iter().map(|r| r.raw().to_string()).collect();
            let _ = writeln!(out, "  placement [{}]", raps.join(", "));
        }
        None => out.push_str("  no placement recorded\n"),
    }
    if !contents.extra.is_empty() {
        let _ = writeln!(out, "  extra section: {} bytes", contents.extra.len());
    }
    Ok(out)
}

fn verify(file: &Path) -> Result<String, CliError> {
    let bytes = read_snapshot_file(file, &FaultPlan::none())?;
    let info = verify_snapshot(&bytes)?;
    Ok(format!(
        "snapshot valid: {} (version {}, {} bytes)\n  epoch {}  compactions {}  next stable id {}  source position {}\n  graph: {} nodes, {} edges, {} shop(s)\n  flows: {} records, {} base entries, {} overlay entries\n  utility: {} (D = {} ft)\n  placement: {}  extra: {} bytes\n",
        file.display(),
        info.version,
        info.file_len,
        info.epoch,
        info.compactions,
        info.next_stable,
        info.source_position,
        info.node_count,
        info.edge_count,
        info.shop_count,
        info.flow_count,
        info.entry_count,
        info.overlay_count,
        info.utility,
        info.threshold_feet,
        if info.placement_len > 0 {
            format!("{} RAP(s)", info.placement_len)
        } else {
            "none".into()
        },
        info.extra_len,
    ))
}

fn info(file: &Path) -> Result<String, CliError> {
    let bytes = read_snapshot_file(file, &FaultPlan::none())?;
    let header = verify_snapshot(&bytes)?;
    let mut out = format!(
        "snapshot: {} (magic RAPSNAP1, version {}, {} bytes, file crc32 0x{:08X})\n",
        file.display(),
        header.version,
        header.file_len,
        header.file_crc32,
    );
    let _ = writeln!(
        out,
        "  epoch {}  compactions {}  next stable id {}  source position {}",
        header.epoch, header.compactions, header.next_stable, header.source_position,
    );
    let _ = writeln!(
        out,
        "  counts: {} nodes, {} edges, {} shop(s), {} flows, {} entries (+{} overlay), {} placement RAP(s), {} extra bytes",
        header.node_count,
        header.edge_count,
        header.shop_count,
        header.flow_count,
        header.entry_count,
        header.overlay_count,
        header.placement_len,
        header.extra_len,
    );
    out.push_str("  sections (id, name, offset, length, crc32):\n");
    for s in &header.sections {
        let _ = writeln!(
            out,
            "    {:>2}  {:<15} {:>10}  {:>10}  0x{:08X}",
            s.id, s.name, s.offset, s.len, s.crc32
        );
    }
    Ok(out)
}

/// Runs the command.
///
/// # Errors
///
/// Argument failures, I/O failures, and every flavor of snapshot
/// corruption (as [`CliError::Snapshot`]).
pub fn run(args: &Args) -> Result<String, CliError> {
    let sub = args
        .positionals()
        .first()
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("snapshot needs a subcommand\n\n{USAGE}")))?;
    let file = std::path::PathBuf::from(args.required("file")?);
    match sub {
        "save" => save(args, &file),
        "load" => load(&file),
        "verify" => verify(&file),
        "info" => info(&file),
        other => Err(CliError::Usage(format!(
            "unknown snapshot subcommand `{other}` (expected save, load, verify, or info)\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes a 5×5 grid graph + two-flow CSV into the test's scratch dir.
    fn fixture(dir: &crate::TestDir) -> (std::path::PathBuf, std::path::PathBuf) {
        let gp = dir.path("graph.txt");
        let fp = dir.path("flows.csv");
        let grid = rap_graph::GridGraph::new(5, 5, Distance::from_feet(200));
        let mut f = std::fs::File::create(&gp).unwrap();
        rap_graph::io::write_text(grid.graph(), &mut f).unwrap();
        std::fs::write(
            &fp,
            "origin,destination,volume,alpha\n0,24,900,0.3\n4,20,500,0.2\n",
        )
        .unwrap();
        (gp, fp)
    }

    #[test]
    fn save_rejects_a_zero_threshold() {
        let dir = crate::TestDir::new("snapshot_save_rejects_a_zero_threshold");
        let (gp, fp) = fixture(&dir);
        let snap = dir.path("zero.snap");
        let argv = [
            "save",
            "--file",
            snap.to_str().unwrap(),
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "12",
            "--d",
            "0",
        ];
        assert!(matches!(
            run(&Args::parse(argv).unwrap()),
            Err(CliError::Usage(ref m)) if m.contains("--d")
        ));
        assert!(!snap.exists(), "a rejected save must write nothing");
    }

    #[test]
    fn save_verify_load_roundtrip_and_corruption_is_typed() {
        let dir =
            crate::TestDir::new("snapshot_save_verify_load_roundtrip_and_corruption_is_typed");
        let (gp, fp) = fixture(&dir);
        let snap = dir.path("roundtrip.snap");
        let argv = [
            "save",
            "--file",
            snap.to_str().unwrap(),
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "12",
            "--d",
            "1500",
        ];
        let report = run(&Args::parse(argv).unwrap()).unwrap();
        assert!(report.contains("snapshot saved"), "{report}");

        let verify_argv = ["verify", "--file", snap.to_str().unwrap()];
        let report = run(&Args::parse(verify_argv).unwrap()).unwrap();
        assert!(report.contains("snapshot valid"), "{report}");
        assert!(report.contains("25 nodes"), "{report}");
        assert!(report.contains("linear"), "{report}");

        let load_argv = ["load", "--file", snap.to_str().unwrap()];
        let report = run(&Args::parse(load_argv).unwrap()).unwrap();
        assert!(report.contains("snapshot ok"), "{report}");
        assert!(report.contains("live flows 2"), "{report}");

        // Corrupt one byte: verify and load both fail with a typed error.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            run(&Args::parse(verify_argv).unwrap()),
            Err(CliError::Snapshot(_))
        ));
        assert!(matches!(
            run(&Args::parse(load_argv).unwrap()),
            Err(CliError::Snapshot(_))
        ));
    }

    #[test]
    fn info_prints_header_and_section_directory() {
        let dir = crate::TestDir::new("snapshot_info_prints_header_and_section_directory");
        let (gp, fp) = fixture(&dir);
        let snap = dir.path("info.snap");
        let argv = [
            "save",
            "--file",
            snap.to_str().unwrap(),
            "--graph",
            gp.to_str().unwrap(),
            "--flows",
            fp.to_str().unwrap(),
            "--shop",
            "12",
        ];
        run(&Args::parse(argv).unwrap()).unwrap();

        let info_argv = ["info", "--file", snap.to_str().unwrap()];
        let report = run(&Args::parse(info_argv).unwrap()).unwrap();
        assert!(report.contains("magic RAPSNAP1, version 1"), "{report}");
        // The CRC folded from the section checksums is the whole file's.
        let crc = rap_core::snapshot_crc32(&std::fs::read(&snap).unwrap());
        assert!(
            report.contains(&format!("file crc32 0x{crc:08X})")),
            "{report}"
        );
        assert!(report.contains("25 nodes"), "{report}");
        for section in [
            "meta",
            "points",
            "edges",
            "shops",
            "flows",
            "paths",
            "entries",
            "overlay",
            "placement",
            "extra",
        ] {
            assert!(report.contains(section), "missing `{section}` in {report}");
        }

        // A flipped byte surfaces as a typed snapshot error, not a report.
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        assert!(matches!(
            run(&Args::parse(info_argv).unwrap()),
            Err(CliError::Snapshot(_))
        ));
    }

    #[test]
    fn missing_subcommand_is_usage() {
        assert!(matches!(
            run(&Args::parse(["--file", "x.snap"]).unwrap()),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&Args::parse(["frob", "--file", "x.snap"]).unwrap()),
            Err(CliError::Usage(_))
        ));
    }
}
