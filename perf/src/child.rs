//! Run one child process and collect its resource usage.
//!
//! `std` reaps children without exposing `rusage`, and the per-child CPU
//! time, peak RSS, context switches and page faults are exactly what the
//! benchmark needs next to wall time. The only way to get them per child
//! (not summed over all children, as `getrusage(RUSAGE_CHILDREN)` gives)
//! is `wait4`, so this module holds the harness's one `unsafe` block. std
//! already links libc; no dependency is added.

#![allow(unsafe_code)]

use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is the 64-bit Linux one");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

impl Timeval {
    fn seconds(&self) -> f64 {
        self.tv_sec as f64 + self.tv_usec as f64 * 1e-6
    }
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    ru_ixrss: i64,
    ru_idrss: i64,
    ru_isrss: i64,
    ru_minflt: i64,
    ru_majflt: i64,
    ru_nswap: i64,
    ru_inblock: i64,
    ru_oublock: i64,
    ru_msgsnd: i64,
    ru_msgrcv: i64,
    ru_nsignals: i64,
    ru_nvcsw: i64,
    ru_nivcsw: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// What one finished child cost.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Spawn to exit, on the harness's monotonic clock.
    pub wall_s: f64,
    /// `ru_utime + ru_stime`.
    pub cpu_s: f64,
    /// `ru_maxrss`, in MiB (the kernel reports KiB).
    pub peak_rss_mb: f64,
    /// Voluntary context switches.
    pub nvcsw: f64,
    /// Minor page faults.
    pub minflt: f64,
    /// Exited normally with status 0.
    pub ok: bool,
}

/// Spawn `program args...` with stdout discarded and stderr inherited, wait
/// for it, and return its usage. `Err` only when the spawn or wait fails.
pub fn run(program: &std::path::Path, args: &[String]) -> Result<Usage, String> {
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = i32::try_from(child.id()).map_err(|_| "pid out of range".to_string())?;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are valid, exclusively borrowed and
        // live across the call; `Rusage` matches the kernel's 64-bit Linux
        // layout (checked at compile time above), so the kernel writes
        // inside it. `pid` is a child this function just spawned and that
        // nothing else waits on: `child` is never waited through std (its
        // drop does not reap), so the pid cannot have been recycled.
        let got = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if got == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("wait4({pid}): {err}"));
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // WIFEXITED && WEXITSTATUS == 0.
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok(Usage {
        wall_s,
        cpu_s: ru.ru_utime.seconds() + ru.ru_stime.seconds(),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        nvcsw: ru.ru_nvcsw as f64,
        minflt: ru.ru_minflt as f64,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn reports_exit_status_and_plausible_usage() {
        let ok = run(Path::new("sh"), &["-c".into(), "exit 0".into()]).unwrap();
        assert!(ok.ok);
        assert!(ok.wall_s > 0.0 && ok.wall_s < 10.0);
        assert!(ok.peak_rss_mb > 0.1 && ok.peak_rss_mb < 1024.0);
        assert!(ok.cpu_s >= 0.0 && ok.cpu_s < 10.0);
        let bad = run(Path::new("sh"), &["-c".into(), "exit 3".into()]).unwrap();
        assert!(!bad.ok);
        let killed = run(Path::new("sh"), &["-c".into(), "kill -9 $$".into()]).unwrap();
        assert!(!killed.ok);
    }

    #[test]
    fn missing_program_is_an_error() {
        assert!(run(Path::new("/nonexistent/program"), &[]).is_err());
    }
}
