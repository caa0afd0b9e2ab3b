//! Process memory figures from `/proc/self`.
//!
//! Peak RSS is read from `VmHWM`. After set-up the benchmark resets the
//! peak to the current RSS by writing `5` to `/proc/self/clear_refs`, so
//! the timed phase's peak is measured on its own and memory moved into
//! set-up shows in `mem.rss_after_setup_mb`. Where the reset is refused,
//! the peak is the whole process's and [`peak_was_reset`] says so.

use std::cell::Cell;

thread_local! {
    static RESET_OK: Cell<bool> = const { Cell::new(true) };
}

fn status_kb(field: &str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

fn kb_to_mb(kb: u64) -> f64 {
    kb as f64 * 1024.0 / 1e6
}

/// Current resident set size in MB (0 where `/proc` is unavailable).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, kb_to_mb)
}

/// Peak resident set size in MB since the last reset.
pub fn peak_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, kb_to_mb)
}

/// Reset the peak RSS to the current RSS. Returns whether the kernel
/// accepted the reset; once refused, later peaks are whole-process.
pub fn reset_peak() -> bool {
    let ok = std::fs::write("/proc/self/clear_refs", "5").is_ok();
    if !ok {
        RESET_OK.with(|r| r.set(false));
    }
    ok
}

/// Did every peak reset so far succeed?
pub fn peak_was_reset() -> bool {
    RESET_OK.with(|r| r.get())
}
