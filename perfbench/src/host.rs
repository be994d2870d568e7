//! Host and provenance stamp carried by every result, so that numbers from
//! different machines or builds are never compared without notice.

use std::process::Command;

pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub mem_total_mb: u64,
    pub rustc: String,
    pub git_commit: String,
    pub server_flags: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

impl Host {
    pub fn probe(server_flags: &[String]) -> Host {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|l| l.trim_start_matches([' ', '\t', ':']).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let meminfo = std::fs::read_to_string("/proc/meminfo").unwrap_or_default();
        let mem_total_mb = meminfo
            .lines()
            .find_map(|l| l.strip_prefix("MemTotal:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kib| kib / 1024);
        Host {
            nproc: nproc(),
            cpu_model,
            mem_total_mb,
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            // Benchmark checkouts need not be git repositories; never report
            // the commit of an enclosing one.
            git_commit: std::path::Path::new(".git")
                .exists()
                .then(|| command_line("git", &["rev-parse", "HEAD"]))
                .flatten()
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            server_flags: server_flags.join(" "),
        }
    }

    /// The stamp as JSON object members.
    pub fn json_fields(&self) -> Vec<(String, String)> {
        vec![
            ("nproc".into(), self.nproc.to_string()),
            ("cpu_model".into(), crate::report::quote(&self.cpu_model)),
            ("mem_total_mb".into(), self.mem_total_mb.to_string()),
            ("rustc".into(), crate::report::quote(&self.rustc)),
            ("git_commit".into(), crate::report::quote(&self.git_commit)),
            (
                "server_flags".into(),
                crate::report::quote(&self.server_flags),
            ),
        ]
    }
}

/// Cores this process may use.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
