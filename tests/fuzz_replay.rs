//! Replays the frozen fuzz corpus in `tests/fuzz_corpus/`.
//!
//! Each case is a deterministic abuse of a golden snapshot (truncation,
//! magic/version/checksum tampering, v2 directory corruption — see
//! `cc_analyze::fuzz::emit_corpus`), and `MANIFEST.tsv` pins the *exact*
//! typed error it must produce. A drift in any loader's rejection behavior
//! — a new panic, a weaker error, or a case that suddenly loads — fails
//! here with the case name. `proto__*.bin` cases are corrupt `ccd` wire
//! bursts (length-prefix lies, truncated batches, req_id collisions)
//! replayed through the framing validator instead of the snapshot
//! loaders. Regenerate intentionally with:
//! `cargo run -p cc-analyze -- fuzz --emit-corpus tests/fuzz_corpus`.

use std::path::Path;

use cc_core::{DistOracle, PathOracle, SnapshotError};

fn load_any(mut bytes: &[u8]) -> Result<(), SnapshotError> {
    match bytes.get(..4) {
        Some(b"CCRO") => PathOracle::load(&mut bytes).map(|_| ()),
        _ => DistOracle::load(&mut bytes).map(|_| ()),
    }
}

#[test]
fn every_frozen_case_reproduces_its_pinned_error() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fuzz_corpus");
    let manifest =
        std::fs::read_to_string(dir.join("MANIFEST.tsv")).expect("tests/fuzz_corpus/MANIFEST.tsv");

    let mut cases = 0;
    let mut proto_cases = 0;
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let (file, expected) = line
            .split_once('\t')
            .unwrap_or_else(|| panic!("malformed manifest line: {line:?}"));
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));

        if file.starts_with("proto__") {
            match std::panic::catch_unwind(|| cc_analyze::fuzz::check_frames(&bytes)) {
                Ok(Err(e)) => assert_eq!(
                    e, expected,
                    "{file}: diagnostic drifted from the pinned manifest entry"
                ),
                Ok(Ok(n)) => panic!("{file}: corrupt burst parsed cleanly ({n} frames)"),
                Err(_) => panic!("{file}: framing validator panicked"),
            }
            cases += 1;
            proto_cases += 1;
            continue;
        }

        let got = std::panic::catch_unwind(|| load_any(&bytes));
        match got {
            Ok(Err(e)) => assert_eq!(
                e.to_string(),
                expected,
                "{file}: error drifted from the pinned manifest entry"
            ),
            Ok(Ok(())) => panic!("{file}: corrupt snapshot loaded cleanly"),
            Err(_) => panic!("{file}: loader panicked instead of returning a typed error"),
        }
        cases += 1;
    }
    assert!(
        cases >= 50,
        "corpus went missing: only {cases} cases replayed"
    );
    assert!(
        proto_cases >= 6,
        "protocol corpus went missing: only {proto_cases} proto cases replayed"
    );
}

/// The committed goldens this build must load: the corpus generator's
/// bases must stay valid, or the abuse cases above are testing mutations
/// of garbage.
const LOADABLE_GOLDENS: [&str; 4] = [
    "oracle_full_v2.snap",
    "oracle_rowsparse_v2.snap",
    "oracle_symmetric_v2.snap",
    "paths_v2.snap",
];

/// The committed goldens this build must turn away by version: the retired
/// v1 stream format and the crafted future-version fixture.
const UNSUPPORTED_GOLDENS: [(&str, u16); 5] = [
    ("oracle_full_v1.snap", 1),
    ("oracle_rowsparse_v1.snap", 1),
    ("oracle_symmetric_v1.snap", 1),
    ("paths_v1.snap", 1),
    ("oracle_v255.snap", 255),
];

#[test]
fn golden_snapshots_still_load_cleanly() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let read = |name: &str| std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    for name in LOADABLE_GOLDENS {
        load_any(&read(name)).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    for (name, version) in UNSUPPORTED_GOLDENS {
        match load_any(&read(name)) {
            Err(SnapshotError::UnsupportedVersion(v)) if v == version => {}
            other => panic!("{name}: expected UnsupportedVersion({version}), got {other:?}"),
        }
    }
    // Every committed golden is in exactly one of the two lists.
    let mut listed: Vec<&str> = LOADABLE_GOLDENS
        .into_iter()
        .chain(UNSUPPORTED_GOLDENS.map(|(name, _)| name))
        .collect();
    listed.sort_unstable();
    let mut present: Vec<String> = std::fs::read_dir(&dir)
        .expect("tests/golden")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|name| name.ends_with(".snap"))
        .collect();
    present.sort_unstable();
    assert_eq!(
        present, listed,
        "tests/golden drifted from the pinned lists"
    );
}
