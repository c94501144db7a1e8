//! Output checking: a digest of each point's deterministic [`Entry`] and
//! the committed reference digests (`refs.txt`) every run is checked
//! against.
//!
//! An [`Entry`] holds only simulated results — wall-clock telemetry
//! lives beside it on `Evaluation`, not in it — so its compact JSON is
//! the deterministic output of a point. The same JSON comes back from
//! the daemon (`Response::Entry` keeps the tree, and re-rendering it is
//! byte-identical), so sweep entries and serve replies share one digest.

use std::collections::BTreeMap;

use serde::{Serialize, Value};
use sparsepipe_bench::sweep::Entry;

/// The committed references, one `<app>-<matrix>@<scale> <digest>` line
/// per point of the two pools.
pub const REFS: &str = include_str!("../refs.txt");

/// Where `--bless` writes the references.
pub const REFS_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/refs.txt");

/// The identity of one point, as used in `refs.txt`.
pub fn point_key(app: &str, matrix: &str, scale: u64) -> String {
    format!("{app}-{matrix}@{scale}")
}

/// 64-bit FNV-1a of an entry tree's compact JSON, in hex.
pub fn value_digest(entry: &Value) -> String {
    let json = serde_json::to_string(entry).expect("value trees always render");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in json.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// [`value_digest`] of an in-process [`Entry`].
pub fn entry_digest(entry: &Entry) -> String {
    value_digest(&entry.to_value())
}

/// Reference digests by point key.
#[derive(Debug, Clone, Default)]
pub struct Refs(BTreeMap<String, String>);

impl Refs {
    /// The references compiled into this binary.
    pub fn committed() -> Refs {
        Refs::parse(REFS)
    }

    /// Parses `refs.txt` text; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Refs {
        Refs(
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .filter_map(|l| l.split_once(' '))
                .map(|(k, d)| (k.to_string(), d.trim().to_string()))
                .collect(),
        )
    }

    /// Records `digest` for `key` (used by `--bless`).
    pub fn insert(&mut self, key: String, digest: String) {
        self.0.insert(key, digest);
    }

    /// Number of points with a reference.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no point has a reference.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Checks one point's digest against its reference.
    ///
    /// # Errors
    ///
    /// A message naming the point when the digest differs or the point
    /// has no reference.
    pub fn check(&self, key: &str, digest: &str) -> Result<(), String> {
        match self.0.get(key) {
            Some(want) if want == digest => Ok(()),
            Some(want) => Err(format!("{key}: digest {digest}, reference {want}")),
            None => Err(format!("{key}: no reference digest")),
        }
    }

    /// The `refs.txt` text.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Reference digests of each point's Entry (see README.md). Re-bless only\n\
             # with a change that intentionally alters simulated output.\n",
        );
        for (k, d) in &self.0 {
            out.push_str(&format!("{k} {d}\n"));
        }
        out
    }
}
