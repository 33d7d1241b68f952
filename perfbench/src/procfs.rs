//! Process CPU time, peak memory and cache size from `/proc` and `/sys`.

use std::fs;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 on Linux regardless of the kernel's `HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU time in clock ticks from the text of
/// `/proc/self/stat` (fields 14 and 15). The command name in field 2
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // `rest` starts at field 3 (state): utime is the 12th token after it.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set size in KiB (`VmHWM`) from the text of
/// `/proc/self/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Steal ticks and all ticks of the machine from the text of
/// `/proc/stat`: its `cpu` line holds user, nice, system, idle, iowait,
/// irq, softirq, steal, ... in clock ticks. Steal is time a virtual CPU
/// was runnable but the hypervisor ran something else.
pub fn parse_stat_steal(stat: &str) -> Option<(u64, u64)> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .ok()?;
    // guest and guest_nice (fields 9 and 10) are already inside user and nice.
    let all = ticks.iter().take(8).sum();
    Some((*ticks.get(7)?, all))
}

/// A sysfs cache size such as `107520K` or `2M`, in bytes.
pub fn parse_cache_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|v| v * mult)
}

/// This process's user + system CPU time so far, in seconds.
pub fn cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or(0.0, |t| t as f64 / USER_HZ)
}

/// This process's peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 * 1024.0 / 1e6)
}

/// The machine's steal ticks and all ticks so far, from `/proc/stat`.
pub fn host_steal_ticks() -> Option<(u64, u64)> {
    parse_stat_steal(&fs::read_to_string("/proc/stat").ok()?)
}

/// Size of the last-level cache seen by CPU 0, in bytes: the highest
/// `level` among its data or unified caches in sysfs.
pub fn llc_bytes() -> Option<u64> {
    let dir = fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let p = e.ok()?.path();
        let kind = fs::read_to_string(p.join("type")).ok()?;
        if kind.trim() == "Instruction" {
            return None;
        }
        let level: u32 = fs::read_to_string(p.join("level"))
            .ok()?
            .trim()
            .parse()
            .ok()?;
        let size = parse_cache_size(&fs::read_to_string(p.join("size")).ok()?)?;
        Some((level, size))
    })
    .max()
    .map(|(_, size)| size)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (perf bench) (x)) S 1 4242 4242 0 -1 4194304 2345 0 0 0 \
                        731 58 0 0 20 0 5 0 123456 1234567 890 18446744073709551615";

    #[test]
    fn stat_cpu_ticks_skip_a_command_name_with_spaces_and_parens() {
        assert_eq!(parse_stat_cpu_ticks(STAT), Some(731 + 58));
    }

    #[test]
    fn stat_parser_rejects_truncated_text() {
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t 2000000 kB\nVmHWM:\t  1536000 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1_536_000));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn steal_is_the_eighth_tick_count_of_the_cpu_line() {
        let stat = "cpu  544038 0 228100 642614 518 0 3138 15100 7 0\n\
                    cpu0 272019 0 114050 321307 259 0 1569 7550 0 0\nintr 1 2\n";
        assert_eq!(
            parse_stat_steal(stat),
            Some((15100, 544038 + 228100 + 642614 + 518 + 3138 + 15100))
        );
        assert_eq!(parse_stat_steal("cpu  1 2 3\n"), None);
        assert_eq!(parse_stat_steal("intr 1 2\n"), None);
    }

    #[test]
    fn cache_sizes_carry_their_suffix() {
        assert_eq!(parse_cache_size("107520K\n"), Some(107_520 * 1024));
        assert_eq!(parse_cache_size("2M"), Some(2 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("K"), None);
    }

    #[test]
    fn live_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
    }
}
