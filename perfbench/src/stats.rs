//! Small numeric helpers and readers for the daemon's `stats` and
//! `metrics` replies.

use std::collections::BTreeMap;

use tarr_trace::json::Json;

/// FNV-1a, 64-bit: reply fingerprints for the byte-identity check.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples; 0 if empty.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A Prometheus text exposition as `series → value` (series = name plus
/// its label set, verbatim).
pub fn prometheus(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// The `text` of a `metrics` reply, parsed.
pub fn metrics_reply(reply: &str) -> Result<BTreeMap<String, f64>, String> {
    let j = tarr_trace::json::parse(reply)?;
    let text = j
        .get("text")
        .and_then(Json::as_str)
        .ok_or("metrics reply without text")?;
    Ok(prometheus(text))
}

/// Histogram `(sum seconds, count)` of `family` for `op`.
pub fn hist(m: &BTreeMap<String, f64>, family: &str, op: Option<&str>) -> (f64, f64) {
    let label = op.map(|o| format!("{{op=\"{o}\"}}")).unwrap_or_default();
    let get = |suffix: &str| {
        m.get(&format!("{family}_{suffix}{label}"))
            .copied()
            .unwrap_or(0.0)
    };
    (get("sum"), get("count"))
}

/// The cache families `stats` reports, and their counters.
pub const CACHES: [&str; 4] = ["mapping", "comm", "sched", "price"];
pub const OUTCOMES: [&str; 3] = ["hit", "miss", "coalesced"];

/// Cache counters of the named clusters in a `stats` reply, summed:
/// `[cache][outcome]`.
pub fn cache_counts(reply: &str, clusters: &[&str]) -> Result<[[u64; 3]; 4], String> {
    let j = tarr_trace::json::parse(reply)?;
    let caches = j
        .get("cluster_caches")
        .ok_or("stats reply without cluster_caches")?;
    let mut out = [[0u64; 3]; 4];
    for name in clusters {
        let Some(c) = caches.get(name) else { continue };
        for (i, cache) in CACHES.iter().enumerate() {
            for (k, outcome) in OUTCOMES.iter().enumerate() {
                out[i][k] += c
                    .get(cache)
                    .and_then(|f| f.get(outcome))
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
        }
    }
    Ok(out)
}
