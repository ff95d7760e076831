//! Snapshot study (`snapshot` figure target): what the binary CSR snapshot
//! buys at tenant-load time. For each dataset on the ladder, the graph is
//! generated once (the "build" a restart would otherwise repeat), saved,
//! loaded back, and fingerprint-checked; the table compares generator wall
//! to snapshot load wall — for both the copying reader and the zero-copy
//! `mmap` path — and reports the on-disk size
//! plus how many CSR bytes the mapped load actually copied (0 on the
//! mapping fast path).

use graph_core::{
    graph_fingerprint, load_snapshot, load_snapshot_mapped, save_snapshot, DatasetId,
    SnapshotVerify,
};
use std::time::{Duration, Instant};

/// One dataset's round-trip measurements.
#[derive(Debug, Clone)]
pub struct Row {
    pub dataset: DatasetId,
    pub vertices: usize,
    pub edges: usize,
    /// Wall time of the generator build (what the snapshot path skips).
    pub build: Duration,
    pub save: Duration,
    /// Copying-reader load wall.
    pub load: Duration,
    /// Zero-copy load wall (checksum verified during load).
    pub mmap_eager: Duration,
    /// CSR bytes the mapped load copied — 0 on the mapping fast path, the
    /// full section size on the portable fallback.
    pub mmap_owned_bytes: usize,
    /// Snapshot size on disk.
    pub bytes: u64,
    /// Whether the loaded graph fingerprints identical to the original.
    pub roundtrip_ok: bool,
}

/// Measures the snapshot round-trip on each dataset in `ladder`.
pub fn run(ladder: &[DatasetId]) -> Vec<Row> {
    ladder
        .iter()
        .map(|&dataset| {
            // Generate fresh (never from the shared cache): the row
            // compares generation wall to snapshot-load wall.
            let t0 = Instant::now();
            let g = dataset.generate();
            let build = t0.elapsed();
            let path = std::env::temp_dir().join(format!(
                "fast-sm-snapshot-{dataset}-{}.bin",
                std::process::id()
            ));
            let t0 = Instant::now();
            save_snapshot(&g, &path).expect("snapshot write");
            let save = t0.elapsed();
            let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            let t0 = Instant::now();
            let loaded = load_snapshot(&path).expect("snapshot read");
            let load = t0.elapsed();
            let fingerprint = graph_fingerprint(&g);
            // The mmap load verifies during load; its wall includes a
            // fingerprint touch of every mapped section, so the page-fault
            // cost of actually *reading* the graph is charged to the load,
            // not hidden.
            let t0 = Instant::now();
            let eager = load_snapshot_mapped(&path, SnapshotVerify::Eager)
                .expect("mapped eager read")
                .into_graph();
            assert_eq!(
                graph_fingerprint(&eager),
                fingerprint,
                "{dataset}: eager mapped load changed the graph"
            );
            let mmap_eager = t0.elapsed();
            let mmap_owned_bytes = eager.owned_csr_bytes();
            std::fs::remove_file(&path).ok();
            let roundtrip_ok = graph_fingerprint(&loaded) == fingerprint;
            assert!(roundtrip_ok, "{dataset}: snapshot round-trip changed the graph");
            Row {
                dataset,
                vertices: g.vertex_count(),
                edges: g.edge_count(),
                build,
                save,
                load,
                mmap_eager,
                mmap_owned_bytes,
                bytes,
                roundtrip_ok,
            }
        })
        .collect()
}

/// Renders the round-trip table.
pub fn render(rows: &[Row]) -> String {
    let header: Vec<String> = [
        "dataset", "|V|", "|E|", "build", "save", "load", "mmap", "copied", "size", "speedup",
        "roundtrip",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let speedup = if r.load.as_secs_f64() > 0.0 {
                format!("{:.1}x", r.build.as_secs_f64() / r.load.as_secs_f64())
            } else {
                "-".to_string()
            };
            vec![
                r.dataset.to_string(),
                graph_core::format_count(r.vertices),
                graph_core::format_count(r.edges),
                format!("{:.1?}", r.build),
                format!("{:.1?}", r.save),
                format!("{:.1?}", r.load),
                format!("{:.1?}", r.mmap_eager),
                if r.mmap_owned_bytes == 0 {
                    "0 (zero-copy)".to_string()
                } else {
                    format!("{:.1} MiB", r.mmap_owned_bytes as f64 / (1024.0 * 1024.0))
                },
                format!("{:.1} MiB", r.bytes as f64 / (1024.0 * 1024.0)),
                speedup,
                if r.roundtrip_ok { "ok" } else { "MISMATCH" }.to_string(),
            ]
        })
        .collect();
    format!(
        "Binary CSR snapshot round-trip (tenant load path: load replaces build on restart; \
         mmap is the zero-copy loader, checksum verified during load, \
         'copied' is the CSR bytes the mapped graph owns — 0 means it borrows the mapping)\n{}",
        crate::harness::render_table(&header, &body)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot acceptance bar: loading preserves the graph
    /// bit-for-bit and is cheaper than regenerating it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow in debug: generates DG01 twice; covered by the release-mode CI step"
    )]
    fn roundtrip_is_faithful_and_faster_than_build() {
        let rows = run(&[DatasetId::Dg01]);
        let r = &rows[0];
        assert!(r.roundtrip_ok, "fingerprint mismatch after round-trip");
        assert!(r.bytes > 0);
        assert!(
            r.load < r.build,
            "loading ({:?}) should beat regenerating ({:?})",
            r.load,
            r.build
        );
        assert!(
            r.mmap_eager < r.build,
            "mapped loading ({:?}) should beat regenerating ({:?})",
            r.mmap_eager,
            r.build
        );
        #[cfg(all(unix, target_endian = "little", target_pointer_width = "64"))]
        assert_eq!(
            r.mmap_owned_bytes, 0,
            "the mapping fast path must not copy CSR sections"
        );
    }
}
