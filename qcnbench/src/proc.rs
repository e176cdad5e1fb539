//! Process and thread readings from `/proc`: CPU time and peak memory.
//!
//! CPU time excludes the time the host's hypervisor keeps a virtual CPU
//! off its physical core, which on a shared machine makes per-operation
//! CPU cost far steadier than wall-clock latency.

/// User + system CPU seconds from a `stat` file of `/proc`.
fn cpu_s(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of them, in clock ticks of 1/100 s.
    let rest = stat
        .rfind(')')
        .and_then(|i| stat.get(i + 2..))
        .ok_or_else(|| format!("malformed {path}"))?;
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        f.get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("malformed {path}"))
    };
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// CPU seconds used so far by every thread of this process.
pub fn process_cpu_s() -> Result<f64, String> {
    cpu_s("/proc/self/stat")
}

/// CPU seconds used so far by the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    cpu_s("/proc/thread-self/stat")
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work() {
        let before = (process_cpu_s().unwrap(), thread_cpu_s().unwrap());
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 120 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(thread_cpu_s().unwrap() > before.1);
        assert!(process_cpu_s().unwrap() > before.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
