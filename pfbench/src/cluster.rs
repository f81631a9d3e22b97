//! The system under test: four in-process reactor daemons over loopback
//! TCP, and the scratch directory a disk-backed run keeps its subfiles in.

use clusterfile::StorageBackend;
use parafile_net::{serve, DaemonConfig, DaemonHandle};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// I/O nodes in every workload.
pub const NODES: usize = 4;
/// Reactor workers per daemon.
const WORKERS: usize = 2;

/// Environment switches of the measured path; removed at start so a run
/// cannot depend on the caller's shell.
const SCRUBBED_ENV: [&str; 4] = ["PF_PLAN_CACHE", "PF_NET_WORKERS", "PF_NET_CHUNK", "PF_REACTOR"];

/// Must run before the first thread is spawned and before
/// `PlanEngine::global()` is first touched.
pub fn scrub_env() {
    for key in SCRUBBED_ENV {
        std::env::remove_var(key);
    }
}

/// The directory of the running executable: inside the build directory,
/// hence inside the checkout and ignored by git.
fn exe_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe.parent().unwrap_or(Path::new(".")).to_path_buf())
}

/// Where traced runs leave their span files (kept between runs).
pub fn trace_dir() -> std::io::Result<PathBuf> {
    let dir = exe_dir()?.join("pfbench-trace");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A directory removed when dropped, also on the failure paths.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// A fresh directory beside the running executable.
    pub fn create(tag: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = exe_dir()?.join(format!("pfbench-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Running daemons plus, for a disk-backed run, their directory. Field
/// order matters: the daemons stop before the directory goes.
pub struct Cluster {
    daemons: Vec<DaemonHandle>,
    pub addrs: Vec<String>,
    dir: Option<ScratchDir>,
}

impl Cluster {
    pub fn start(disk: bool) -> std::io::Result<Self> {
        let dir = if disk { Some(ScratchDir::create("store")?) } else { None };
        let backend = match &dir {
            Some(d) => StorageBackend::Directory(d.path().to_path_buf()),
            None => StorageBackend::Memory,
        };
        let mut daemons = Vec::with_capacity(NODES);
        for _ in 0..NODES {
            let config =
                DaemonConfig { backend: backend.clone(), workers: WORKERS, ..Default::default() };
            daemons.push(serve("127.0.0.1:0", config)?);
        }
        let addrs = daemons.iter().map(|d| d.addr().to_string()).collect();
        Ok(Self { daemons, addrs, dir })
    }

    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_ref().map(ScratchDir::path)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for d in &mut self.daemons {
            d.stop();
        }
    }
}
