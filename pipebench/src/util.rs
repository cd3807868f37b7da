//! Small helpers: order statistics, digests and field lookups in the
//! service's JSON replies.

use std::time::Duration;

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks; `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// FNV-1a over `bytes`: a digest for byte-identity checks.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A report's JSON with its wall-clock field pinned to zero, the form in
/// which reports from different runs are compared.
pub fn pin_elapsed(json: &str) -> String {
    const KEY: &str = "\"elapsed_seconds\":";
    let Some(at) = json.find(KEY) else {
        return json.to_string();
    };
    let start = at + KEY.len();
    let end = json[start..]
        .find([',', '}'])
        .map_or(json.len(), |n| start + n);
    format!("{}0{}", &json[..start], &json[end..])
}

/// The digest of a report with elapsed time pinned.
pub fn report_digest(json: &str) -> u64 {
    fnv64(pin_elapsed(json).as_bytes())
}

/// The unsigned integer after `"key":` in a JSON text.
pub fn u64_field(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let digits: String = json[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The string after `"key":"` in a JSON text (no escapes expected).
pub fn str_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = json.find(&pat)? + pat.len();
    let end = json[start..].find('"')? + start;
    Some(&json[start..end])
}

/// The value of an unlabelled sample `name value` on a Prometheus page.
pub fn expo_value(page: &str, name: &str) -> Option<f64> {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
}
