//! The server under test, in its own process: this binary re-executed as `serve`, which runs
//! the production CLI (`qbe_server::cli::run`) with the default engine, workers and limits.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};

/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`, which Linux fixes at 100.
const TICKS_PER_SECOND: f64 = 100.0;

/// A running `qbe-server` child process. Dropping it kills the process and waits for it.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server never writes to a closed pipe.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Spawn the server with `flags` on an ephemeral loopback port and wait for its banner.
    pub fn spawn(flags: &[String]) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
        let mut child = Command::new(exe)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn the server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .strip_prefix("qbe-server listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|addr| addr.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(ServerProc {
                child,
                _stdout: stdout,
                addr,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!(
                    "server with flags {flags:?} printed no banner (got {banner:?})"
                ))
            }
        }
    }

    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// User plus system CPU time the server process has used so far, in milliseconds.
    pub fn cpu_ms(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        // Fields after the parenthesised command name start at field 3 (state); utime and
        // stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| format!("{path}: unexpected format"))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |ix: usize| {
            fields
                .get(ix)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| format!("{path}: no field {}", ix + 3))
        };
        Ok((ticks(11)? + ticks(12)?) * 1000.0 / TICKS_PER_SECOND)
    }

    /// The server's peak resident set size (`VmHWM`), in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }

    /// Kill the server and wait until it has exited.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
