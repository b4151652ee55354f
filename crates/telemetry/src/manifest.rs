//! Per-run provenance manifests.
//!
//! A [`RunManifest`] collects everything needed to re-run and audit
//! one invocation of a binary — RNG seeds, population parameters,
//! per-artifact wall times, a git-describe-style version string, and
//! a final dump of every registry metric family (the same
//! [`Registry::gather`](crate::registry::Registry::gather) walk that
//! `/metrics` renders) — and writes it as a single pretty-printed JSON
//! document (`run_manifest.json` by convention).

use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;
use crate::prom::{rendered_name, Family, SampleValue};

/// Schema identifier stamped into every manifest, bumped whenever the
/// layout changes incompatibly.
pub const MANIFEST_SCHEMA: &str = "accordion.run-manifest/3";

/// Accumulates provenance for one run.
#[derive(Debug)]
pub struct RunManifest {
    tool: String,
    started: Instant,
    started_unix_ms: u128,
    argv: Vec<String>,
    seeds: Vec<(String, u64)>,
    params: Vec<(String, Json)>,
    artifacts: Vec<ArtifactRecord>,
}

/// Wall-time record of one generated artifact.
#[derive(Debug, Clone)]
pub struct ArtifactRecord {
    /// Artifact id (e.g. `fig5b`).
    pub id: String,
    /// Wall-clock time to generate it.
    pub elapsed: Duration,
    /// Size of the rendered report in bytes.
    pub report_bytes: usize,
}

impl RunManifest {
    /// Starts a manifest for `tool`, capturing the command line and
    /// start time.
    pub fn new(tool: &str) -> Self {
        Self {
            tool: tool.to_string(),
            started: Instant::now(),
            started_unix_ms: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| d.as_millis())
                .unwrap_or(0),
            argv: std::env::args().collect(),
            seeds: Vec::new(),
            params: Vec::new(),
            artifacts: Vec::new(),
        }
    }

    /// Records a named RNG seed.
    pub fn record_seed(&mut self, name: &str, seed: u64) {
        self.seeds.push((name.to_string(), seed));
    }

    /// Records a named run parameter.
    pub fn record_param(&mut self, name: &str, value: Json) {
        self.params.push((name.to_string(), value));
    }

    /// Records one generated artifact.
    pub fn record_artifact(&mut self, id: &str, elapsed: Duration, report_bytes: usize) {
        self.artifacts.push(ArtifactRecord {
            id: id.to_string(),
            elapsed,
            report_bytes,
        });
    }

    /// Renders the manifest, appending the global registry's metric
    /// families as an object keyed by exposition name (the "final
    /// metric dump").
    pub fn to_json(&self) -> Json {
        let artifacts = self
            .artifacts
            .iter()
            .map(|a| {
                Json::obj(vec![
                    ("id", Json::str(&a.id)),
                    ("elapsed_ms", Json::Num(a.elapsed.as_secs_f64() * 1e3)),
                    ("report_bytes", Json::Num(a.report_bytes as f64)),
                ])
            })
            .collect();
        let pairs = vec![
            ("schema".to_string(), Json::str(MANIFEST_SCHEMA)),
            ("tool".to_string(), Json::str(&self.tool)),
            ("version".to_string(), Json::str(version_string())),
            (
                "started_unix_ms".to_string(),
                Json::Num(self.started_unix_ms as f64),
            ),
            (
                "elapsed_ms".to_string(),
                Json::Num(self.started.elapsed().as_secs_f64() * 1e3),
            ),
            (
                "argv".to_string(),
                Json::Arr(self.argv.iter().map(Json::str).collect()),
            ),
            (
                "seeds".to_string(),
                Json::Obj(
                    self.seeds
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "parameters".to_string(),
                Json::Obj(
                    self.params
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect(),
                ),
            ),
            ("artifacts".to_string(), Json::Arr(artifacts)),
            (
                "metrics".to_string(),
                families_json(&crate::registry::global().gather()),
            ),
        ];
        Json::Obj(pairs)
    }

    /// Writes the manifest (pretty-printed) to `path`, creating parent
    /// directories as needed.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json().render_pretty())
    }
}

/// Gathered metric families as one JSON object keyed by exposition
/// name (`pool_tasks_total`). Each family holds its `type`, `help` and
/// `samples`, keyed by canonical label body (`""` when unlabelled): a
/// counter or gauge value, or a histogram's `count`, `sum`, bucket
/// `bounds` and per-bucket counts (the last one the overflow bucket).
fn families_json(families: &[Family]) -> Json {
    let nums = |xs: Vec<f64>| Json::Arr(xs.into_iter().map(Json::Num).collect());
    let value = |v: &SampleValue| match v {
        SampleValue::Scalar(x) => Json::Num(*x),
        SampleValue::Hist(h) => Json::obj(vec![
            ("count", Json::Num(h.count as f64)),
            ("sum", Json::Num(h.sum)),
            ("bounds", nums(h.bounds.clone())),
            (
                "buckets",
                nums(h.buckets.iter().map(|&c| c as f64).collect()),
            ),
        ]),
    };
    let family = |fam: &Family| {
        let samples = fam
            .samples
            .iter()
            .map(|s| (s.labels.clone(), value(&s.value)));
        Json::obj(vec![
            ("type", Json::str(fam.kind.as_str())),
            ("help", Json::str(&fam.help)),
            ("samples", Json::Obj(samples.collect())),
        ])
    };
    Json::Obj(
        families
            .iter()
            .map(|f| (rendered_name(f), family(f)))
            .collect(),
    )
}

/// A git-describe-style version: the crate version plus, when a `.git`
/// directory is discoverable from the current directory upward, the
/// short commit hash of `HEAD` (e.g. `0.1.0+g8b7c30d`).
pub fn version_string() -> String {
    let base = env!("CARGO_PKG_VERSION");
    match git_head_short() {
        Some(short) => format!("{base}+g{short}"),
        None => base.to_string(),
    }
}

fn git_head_short() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let hash = if let Some(refname) = head.strip_prefix("ref: ") {
                match std::fs::read_to_string(git.join(refname)) {
                    Ok(h) => h.trim().to_string(),
                    // Packed refs fallback.
                    Err(_) => {
                        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                        packed
                            .lines()
                            .find(|l| l.ends_with(refname))
                            .and_then(|l| l.split_whitespace().next())?
                            .to_string()
                    }
                }
            } else {
                head.to_string()
            };
            if hash.len() >= 7 && hash.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Some(hash[..7].to_string());
            }
            return None;
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn manifest_renders_and_parses() {
        let mut m = RunManifest::new("test-tool");
        m.record_seed("population", 2014);
        m.record_param("chips", Json::Num(5.0));
        m.record_artifact("fig5b", Duration::from_millis(12), 345);
        let rendered = m.to_json().render_pretty();
        let parsed = json::parse(&rendered).expect("manifest is valid JSON");
        assert_eq!(
            parsed.get("schema").and_then(Json::as_str),
            Some(MANIFEST_SCHEMA)
        );
        assert_eq!(parsed.get("tool").and_then(Json::as_str), Some("test-tool"));
        assert_eq!(
            parsed
                .get("seeds")
                .and_then(|s| s.get("population"))
                .and_then(Json::as_f64),
            Some(2014.0)
        );
        assert!(parsed.get("metrics").is_some());
        let artifacts = match parsed.get("artifacts") {
            Some(Json::Arr(a)) => a,
            other => panic!("artifacts not an array: {other:?}"),
        };
        assert_eq!(artifacts[0].get("id").and_then(Json::as_str), Some("fig5b"));
    }

    #[test]
    fn version_string_has_base_version() {
        let v = version_string();
        assert!(v.starts_with(env!("CARGO_PKG_VERSION")), "{v}");
    }

    #[test]
    fn manifest_writes_to_disk() {
        let dir = std::env::temp_dir().join("accordion-telemetry-test");
        let path = dir.join("run_manifest.json");
        let m = RunManifest::new("writer-test");
        m.write(&path).expect("write manifest");
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(json::parse(&text).is_ok());
        let _ = std::fs::remove_file(&path);
    }
}
