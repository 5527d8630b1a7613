//! Sample statistics and process counters read from `/proc`.

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs` (sorted in place).
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(f64::total_cmp);
    let pos = q * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    xs[lo] + (pos - lo as f64) * (xs[hi] - xs[lo])
}

pub fn median(xs: &mut [f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Process user + system CPU seconds, all threads (`/proc/self/stat`
/// fields 14 and 15, in the kernel's fixed 100 Hz `USER_HZ` ticks).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; fields after it
    // start behind the closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    // `rest` starts at field 3, so fields 14/15 sit at indices 11/12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Cumulative `(steal, total)` CPU ticks of the machine (`/proc/stat`).
/// Steal is time the hypervisor ran something else on this machine's
/// virtual CPUs; it inflates every wall-time figure and is reported with
/// each run so runs taken under host contention can be recognized.
pub fn cpu_steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .expect("aggregate cpu line")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM line");
    kib / 1024.0
}

/// `max|y − y_ref| / max|y_ref|` over all channels; `NaN` on a shape
/// mismatch so the caller's finiteness check rejects it.
pub fn rel_err(y: &[Vec<f64>], y_ref: &[Vec<f64>]) -> f64 {
    if y.len() != y_ref.len() || y.iter().zip(y_ref).any(|(a, b)| a.len() != b.len()) {
        return f64::NAN;
    }
    let mut diff = 0.0f64;
    let mut peak = 0.0f64;
    for (a, b) in y.iter().zip(y_ref) {
        for (p, q) in a.iter().zip(b) {
            if !p.is_finite() {
                return f64::NAN;
            }
            diff = diff.max((p - q).abs());
            peak = peak.max(q.abs());
        }
    }
    diff / peak
}
