//! Host facts and process-level measurements: peak resident memory,
//! process CPU time, and the facts every result is recorded with.

/// Peak resident set size of this process (`VmHWM`), in MB (2^20 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(target_os = "linux")]
mod clock {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clk: i32, ts: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn process_cpu_s() -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        if rc != 0 {
            return 0.0;
        }
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    }
}

#[cfg(not(target_os = "linux"))]
mod clock {
    pub fn process_cpu_s() -> f64 {
        0.0
    }
}

/// CPU seconds used so far by all threads of this process.
pub use clock::process_cpu_s;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `(key, value)` facts recorded with every result.
pub fn facts() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("pool_threads", rayon::current_num_threads().to_string()),
        (
            "RAYON_NUM_THREADS",
            std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into()),
        ),
        ("cpu_model", cpu_model()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("build_profile", env!("PERFBENCH_PROFILE").to_string()),
    ]
}
