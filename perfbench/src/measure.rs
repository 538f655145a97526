//! Sample statistics, digest folding, pins and the host fingerprint.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mcnet_sim::json::Json;

/// The benchmark's own directory (pins, trace output).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark builds against.
pub fn repo_root() -> PathBuf {
    bench_dir().join("..")
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (`p` in percent).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64 / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of a fixed ladder that leaves at least ten
/// samples beyond it, with its value: `(percentile, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = values.len();
    let beyond = |p: f64| n - (p * n as f64 / 100.0).ceil() as usize;
    let p = LADDER.into_iter().find(|&p| beyond(p) >= 10).unwrap_or(50.0);
    (p, percentile(values, p))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a fold of run digests in run order (the fold `figures` uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(FNV_OFFSET)
    }
}

impl Fold {
    pub fn push(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// CPU time of this process, all threads, in seconds. The kernel leaves
/// out time the hypervisor stole from the VM's vCPUs, which wall-clock time
/// includes: on a shared host that steal came and went within minutes and
/// moved wall-clock passes by half.
pub fn process_cpu_s() -> f64 {
    cpu_clock(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU time of the calling thread in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock(3) // CLOCK_THREAD_CPUTIME_ID
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn cpu_clock(clock: i32) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on
    // 64-bit Linux), `clock` is one of the kernel's CPU-time clock ids, and
    // the call writes only into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU-time clocks through 64-bit Linux clock_gettime");

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host a result was measured on: results compare only within a host.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let host = BTreeMap::from([
        ("nproc", Json::from_u64(nproc as u64)),
        ("cpu", Json::String(cpu)),
        ("rustc", Json::String(env!("PERFBENCH_RUSTC").into())),
        ("commit", Json::String(git_commit(&repo_root()))),
    ]);
    Json::Object(host.into_iter().map(|(k, v)| (k.to_string(), v)).collect()).to_compact()
}

/// The checked-out commit, read from `.git` without running git; `unknown`
/// outside a git checkout.
fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Pinned workload digests: `workload -> seed -> digest`, stored beside the
/// benchmark and regenerated only by `--pin`.
pub fn pins_path() -> PathBuf {
    bench_dir().join("pins.json")
}

pub type Pins = BTreeMap<String, BTreeMap<String, String>>;

pub fn load_pins() -> Result<Pins, String> {
    let path = pins_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut pins = Pins::new();
    for (workload, seeds) in doc.as_object().into_iter().flatten() {
        let Some(seeds) = seeds.as_object() else { continue };
        let entry = pins.entry(workload.clone()).or_default();
        for (seed, digest) in seeds {
            if let Some(d) = digest.as_str() {
                entry.insert(seed.clone(), d.to_string());
            }
        }
    }
    Ok(pins)
}

pub fn save_pins(pins: &Pins) -> Result<(), String> {
    let doc = Json::Object(
        pins.iter()
            .map(|(w, seeds)| {
                let seeds = seeds
                    .iter()
                    .map(|(s, d)| (s.clone(), Json::String(d.clone())))
                    .collect::<BTreeMap<_, _>>();
                (w.clone(), Json::Object(seeds))
            })
            .collect(),
    );
    let path = pins_path();
    std::fs::write(&path, doc.to_pretty() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The pinned run digests of the repository's exemplar specs.
pub fn golden_digests() -> Result<BTreeMap<String, String>, String> {
    let path = repo_root().join("specs/goldens/digests.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .as_object()
        .and_then(|o| o.get("digests"))
        .and_then(Json::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(k, v)| v.as_str().map(|d| (k.clone(), d.to_string())))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p, t) = (process_cpu_s(), thread_cpu_s());
        let mut x = 0u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(thread_cpu_s() > t && process_cpu_s() > p);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), (95.0, 190.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v).0, 90.0);
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v).0, 50.0);
    }

    #[test]
    fn fold_matches_fnv1a_over_le_bytes() {
        let mut fold = Fold::default();
        fold.push(0x0201);
        let mut expected = FNV_OFFSET;
        for byte in [1u64, 2, 0, 0, 0, 0, 0, 0] {
            expected = (expected ^ byte).wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fold.0, expected);
    }
}
