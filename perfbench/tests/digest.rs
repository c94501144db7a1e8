//! The output check itself: the digest routine reproduces the committed
//! golden sweep (`crates/bench/tests/golden/sweep.json`, Quick × 15 apps
//! at scale 64, read only) and flags a one-field perturbation.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use serde::Value;
use sparsepipe_bench::datasets::{DatasetSpec, MatrixSet};
use sparsepipe_bench::sweep::EvalRequest;
use sparsepipe_core::MatrixCache;
use sparsepipe_perfbench::digest::{entry_digest, point_key, value_digest, Refs};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../crates/bench/tests/golden/sweep.json"
);
const SCALE: u64 = 64;

fn golden_entries() -> Vec<Value> {
    let text = std::fs::read_to_string(GOLDEN).expect("golden sweep is committed");
    let sweep = serde_json::from_str(&text).expect("golden sweep parses");
    sweep
        .get("entries")
        .and_then(Value::as_seq)
        .expect("golden sweep has entries")
        .to_vec()
}

fn key_of(entry: &Value) -> String {
    let field = |k: &str| {
        entry
            .get(k)
            .and_then(Value::as_str)
            .expect("entry names its point")
    };
    point_key(field("app"), &field("matrix").to_lowercase(), SCALE)
}

/// Replaces the number at `path` with `f(old)`.
fn perturb(v: &mut Value, path: &[&str], f: impl FnOnce(f64) -> f64) {
    let Value::Map(fields) = v else {
        panic!("not a map at {path:?}")
    };
    let slot = &mut fields
        .iter_mut()
        .find(|(k, _)| k == path[0])
        .unwrap_or_else(|| panic!("no field {}", path[0]))
        .1;
    if path.len() > 1 {
        return perturb(slot, &path[1..], f);
    }
    let old = slot.as_f64().expect("a numeric leaf");
    *slot = Value::Float(f(old));
}

#[test]
fn digests_reproduce_the_golden_sweep() {
    let golden = golden_entries();
    let mut refs = Refs::default();
    for entry in &golden {
        refs.insert(key_of(entry), value_digest(entry));
    }
    let apps = sparsepipe_apps::registry::all();
    assert_eq!(golden.len(), apps.len() * MatrixSet::Quick.ids().len());

    let cache = MatrixCache::new();
    let mut checked = 0;
    for &id in MatrixSet::Quick.ids() {
        let dataset = DatasetSpec::new(id, SCALE).load().expect("synthetic loads");
        for app in &apps {
            let entry = EvalRequest::new(app, &dataset, SCALE)
                .cache(&cache)
                .run()
                .expect("golden points evaluate")
                .evaluation
                .entry;
            let key = point_key(app.name, id.code(), SCALE);
            refs.check(&key, &entry_digest(&entry))
                .unwrap_or_else(|e| panic!("live entry does not match the golden: {e}"));
            checked += 1;
        }
    }
    assert_eq!(checked, golden.len());
}

#[test]
fn a_one_field_perturbation_is_flagged() {
    let golden = golden_entries();
    let entry = &golden[0];
    let key = key_of(entry);
    let mut refs = Refs::default();
    refs.insert(key.clone(), value_digest(entry));
    assert!(refs.check(&key, &value_digest(entry)).is_ok());

    for path in [
        &["sim", "total_cycles"][..],
        &["cpu", "runtime_s"][..],
        &["iterations"][..],
    ] {
        let mut bad = entry.clone();
        perturb(&mut bad, path, |x| x + 1.0);
        let err = refs
            .check(&key, &value_digest(&bad))
            .expect_err("a perturbed entry must not match its reference");
        assert!(err.contains(&key), "{err}");
    }

    // A perturbed reference flags the untouched entry the same way.
    let perturbed_refs = Refs::parse(
        &refs
            .render()
            .replace(&value_digest(entry), "0000000000000000"),
    );
    assert!(perturbed_refs.check(&key, &value_digest(entry)).is_err());
}
