//! The storage abstraction under the journal: every filesystem touch —
//! WAL appends, checkpoint writes, compaction renames, the LOCK file —
//! goes through a [`Vfs`], so the storage failures real disks produce
//! (failed fsyncs, ENOSPC mid-append, torn renames) can be injected
//! deterministically and every durability claim tested, not asserted.
//!
//! Two implementations ship:
//!
//! - [`RealVfs`]: a zero-cost passthrough to `std::fs`.
//! - [`FaultVfs`]: wraps the real filesystem and injects
//!   [`IoFaultKind`]s from a seeded [`IoFaultPlan`] — the same
//!   hash-of-(seed, index) schedule style as the resilience layer's
//!   `FaultPlan`, so a fault sequence is a pure function of the plan.
//!   Every operation consumes one global op index; the exhaustive
//!   fault-at-every-seam suite replays a workload once per (index, kind)
//!   pair and asserts the journal never panics, never silently
//!   acknowledges an unsynced entry, and always reopens to a
//!   byte-identical durable prefix.
//!
//! Fault semantics are deliberately adversarial:
//!
//! - `FsyncFail` not only errors the fsync — it *drops the unsynced
//!   bytes* (truncating the file back to its last-synced length), the
//!   way a kernel may discard dirty pages after a failed writeback.
//!   Acting as if the data might still be durable is exactly the
//!   fsyncgate bug; the journal's poison rule exists to survive this.
//! - `Enospc` and `ShortWrite` write a *prefix* of the buffer before
//!   erroring, leaving a torn record on disk.
//! - `TornRename` models a non-atomic rename interrupted by power loss:
//!   the destination receives a truncated copy of the source, the source
//!   is gone, and the call errors.

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One open file handle behind the [`Vfs`]. Only the operations the
/// journal actually performs are exposed; each is a single fault site.
/// `Send + Sync` so a session holding a handle can sit behind a shared
/// lock (the serve layer fans reads across replica sessions).
pub trait VfsFile: Send + Sync {
    /// Write the whole buffer (appending if the file was opened append).
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flush and fsync file contents and metadata.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncate (or extend) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Read the entire file from the start.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
}

/// The filesystem surface the journal runs on. Implementations must be
/// shareable across the session (`Send + Sync`); the journal itself
/// serializes its calls.
pub trait Vfs: Send + Sync {
    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Open read+append, creating if absent (the WAL handle).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create/truncate for writing (temp files).
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create-exclusive (the LOCK file). Must fail with
    /// [`io::ErrorKind::AlreadyExists`] when the path exists.
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Every entry in `dir`, in unspecified order.
    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;
    /// Rename `from` over `to` (the commit step of every temp-file
    /// write).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory so completed renames survive power loss.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// Passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

struct RealFile(File);

impl VfsFile for RealFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf).and_then(|()| self.0.flush())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)?;
        self.0.seek(io::SeekFrom::End(0)).map(|_| ())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        self.0.rewind()?;
        self.0.read_to_end(&mut bytes)?;
        Ok(bytes)
    }
}

impl Vfs for RealVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new().read(true).create(true).append(true).open(path)?;
        Ok(Box::new(RealFile(f)))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(RealFile(File::create(path)?)))
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let f = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(RealFile(f)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for e in std::fs::read_dir(dir)? {
            out.push(e?.path());
        }
        Ok(out)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// The storage fault kinds [`FaultVfs`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// `fsync` fails *and* the unsynced bytes are dropped (dirty-page
    /// loss). The fsyncgate scenario.
    FsyncFail,
    /// Write fails with `ENOSPC` after landing a prefix of the buffer.
    Enospc,
    /// A read or write fails with a generic I/O error.
    Eio,
    /// Write lands only a prefix of the buffer, then errors.
    ShortWrite,
    /// Rename fails cleanly: source and destination untouched.
    RenameFail,
    /// Rename torn by power loss: destination holds a truncated copy of
    /// the source, the source is gone, and the call errors.
    TornRename,
}

impl IoFaultKind {
    /// Every kind, in schedule order.
    pub const ALL: [IoFaultKind; 6] = [
        IoFaultKind::FsyncFail,
        IoFaultKind::Enospc,
        IoFaultKind::Eio,
        IoFaultKind::ShortWrite,
        IoFaultKind::RenameFail,
        IoFaultKind::TornRename,
    ];

    /// Short stable label for counters and logs.
    pub fn label(self) -> &'static str {
        match self {
            IoFaultKind::FsyncFail => "fsync",
            IoFaultKind::Enospc => "enospc",
            IoFaultKind::Eio => "eio",
            IoFaultKind::ShortWrite => "short_write",
            IoFaultKind::RenameFail => "rename",
            IoFaultKind::TornRename => "torn_rename",
        }
    }
}

/// The operation classes a fault can target. A scheduled fault whose kind
/// does not apply to the op at its index (e.g. `FsyncFail` on a read) is
/// a no-op — the op still consumes its index, so schedules stay aligned
/// with the clean run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpClass {
    Write,
    Fsync,
    Read,
    Rename,
    Other,
}

fn applies(kind: IoFaultKind, class: OpClass) -> bool {
    match kind {
        IoFaultKind::FsyncFail => class == OpClass::Fsync,
        IoFaultKind::Enospc | IoFaultKind::ShortWrite => class == OpClass::Write,
        IoFaultKind::Eio => matches!(class, OpClass::Write | OpClass::Read | OpClass::Other),
        IoFaultKind::RenameFail | IoFaultKind::TornRename => class == OpClass::Rename,
    }
}

/// splitmix64 — the deterministic mixer behind the probabilistic
/// schedule (self-contained: the journal crate has no dependency on the
/// embed crate's hash helpers).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic storage-fault schedule, in the same style as the
/// resilience layer's `FaultPlan`: whether op #N faults is a pure
/// function of (seed, N), plus two exact schedules for exhaustive and
/// sustained-outage testing.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoFaultPlan {
    /// Seed of the `rate` draw: whether op #N faults, and with which kind,
    /// is a pure function of (seed, N).
    pub seed: u64,
    /// Probability that any given applicable op faults; the kind is drawn
    /// uniformly from the kinds applicable to that op class.
    pub rate: f64,
    /// Inject `kind` at exactly op index `.0`, once.
    pub inject_at: Option<(u64, IoFaultKind)>,
    /// Inject `kind` at *every* applicable op from index `.0` on — a
    /// sustained outage (e.g. a full disk that stays full).
    pub inject_from: Option<(u64, IoFaultKind)>,
}

impl IoFaultPlan {
    /// No storage faults.
    pub fn none() -> Self {
        IoFaultPlan::default()
    }

    /// Probabilistic plan: each applicable op faults with probability
    /// `rate`, kind drawn per-op from the applicable set.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of range");
        IoFaultPlan { seed, rate, ..Default::default() }
    }

    /// Inject exactly one fault: `kind` at op index `index`.
    pub fn at(index: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan { inject_at: Some((index, kind)), ..Default::default() }
    }

    /// Inject `kind` at every applicable op from `index` on.
    pub fn from_op(index: u64, kind: IoFaultKind) -> Self {
        IoFaultPlan { inject_from: Some((index, kind)), ..Default::default() }
    }

    fn decide(&self, op: u64, class: OpClass) -> Option<IoFaultKind> {
        if let Some((at, kind)) = self.inject_at {
            if op == at && applies(kind, class) {
                return Some(kind);
            }
        }
        if let Some((from, kind)) = self.inject_from {
            if op >= from && applies(kind, class) {
                return Some(kind);
            }
        }
        if self.rate > 0.0 {
            let h = mix(self.seed ^ op.wrapping_mul(0x0100_0000_01B3));
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u < self.rate {
                let candidates: Vec<IoFaultKind> =
                    IoFaultKind::ALL.into_iter().filter(|k| applies(*k, class)).collect();
                if !candidates.is_empty() {
                    let pick = (mix(h) % candidates.len() as u64) as usize;
                    return Some(candidates[pick]);
                }
            }
        }
        None
    }
}

/// One injected storage fault, for assertions and post-mortems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoFaultEvent {
    /// The global op index the fault fired on.
    pub op: u64,
    /// The injected fault.
    pub kind: IoFaultKind,
    /// The operation it hit, e.g. `"write"`, `"fsync"`, `"rename"`.
    pub op_name: &'static str,
}

struct FaultState {
    plan: IoFaultPlan,
    ops: AtomicU64,
    log: Mutex<Vec<IoFaultEvent>>,
}

impl FaultState {
    /// Consume one op index and decide whether it faults.
    fn tick(&self, class: OpClass, op_name: &'static str) -> Option<IoFaultKind> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let kind = self.plan.decide(op, class)?;
        self.log.lock().expect("io fault log lock").push(IoFaultEvent { op, kind, op_name });
        Some(kind)
    }
}

/// A [`Vfs`] that injects storage faults per an [`IoFaultPlan`] while
/// delegating real I/O to the underlying filesystem. With
/// [`IoFaultPlan::none`] it is a pure op-counter — run a workload once
/// against it to learn how many fault sites the workload has, then
/// replay with [`IoFaultPlan::at`] for each (index, kind) pair.
pub struct FaultVfs {
    state: Arc<FaultState>,
}

impl FaultVfs {
    /// A faulting filesystem following `plan`, its op counter at zero.
    pub fn new(plan: IoFaultPlan) -> Self {
        FaultVfs {
            state: Arc::new(FaultState {
                plan,
                ops: AtomicU64::new(0),
                log: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Total Vfs operations performed so far (= fault sites consumed).
    pub fn ops(&self) -> u64 {
        self.state.ops.load(Ordering::Relaxed)
    }

    /// Every fault injected so far, in op order.
    pub fn injected(&self) -> Vec<IoFaultEvent> {
        self.state.log.lock().expect("io fault log lock").clone()
    }
}

fn eio(op: &str) -> io::Error {
    io::Error::other(format!("injected eio during {op}"))
}

/// Raw `ENOSPC` errno. Matching on the raw code (rather than
/// `ErrorKind::StorageFull`, stabilized after our MSRV) catches both
/// injected and real disk-full errors on the platforms we target.
pub(crate) const ENOSPC_RAW_OS: i32 = 28;

/// True when `e` is a disk-full error, injected or real.
pub(crate) fn is_enospc(e: &io::Error) -> bool {
    e.raw_os_error() == Some(ENOSPC_RAW_OS)
}

fn enospc() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_RAW_OS)
}

struct FaultFile {
    inner: File,
    state: Arc<FaultState>,
    /// Bytes known durable: file length at open, advanced by successful
    /// fsyncs, so `FsyncFail` can drop everything written since.
    synced_len: u64,
}

impl FaultFile {
    fn new(inner: File, state: Arc<FaultState>) -> io::Result<FaultFile> {
        let synced_len = inner.metadata()?.len();
        Ok(FaultFile { inner, state, synced_len })
    }
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.state.tick(OpClass::Write, "write") {
            None => self.inner.write_all(buf).and_then(|()| self.inner.flush()),
            Some(IoFaultKind::Eio) => Err(eio("write")),
            Some(kind @ (IoFaultKind::Enospc | IoFaultKind::ShortWrite)) => {
                // Land a prefix, then fail: the torn-record case.
                let cut = buf.len() / 2;
                self.inner.write_all(&buf[..cut]).and_then(|()| self.inner.flush())?;
                if kind == IoFaultKind::Enospc {
                    Err(enospc())
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        format!("injected short write ({cut} of {} bytes)", buf.len()),
                    ))
                }
            }
            Some(_) => self.inner.write_all(buf).and_then(|()| self.inner.flush()),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        match self.state.tick(OpClass::Fsync, "fsync") {
            Some(IoFaultKind::FsyncFail) => {
                // The kernel may discard dirty pages after a failed
                // writeback: model the worst case by dropping everything
                // written since the last successful fsync.
                let _ = self.inner.set_len(self.synced_len);
                let _ = self.inner.seek(io::SeekFrom::End(0));
                Err(io::Error::other("injected fsync failure (unsynced bytes dropped)"))
            }
            _ => {
                self.inner.sync_all()?;
                self.synced_len = self.inner.metadata()?.len();
                Ok(())
            }
        }
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        match self.state.tick(OpClass::Write, "set_len") {
            // Truncation allocates nothing, so ENOSPC/short-write do not
            // apply — only a generic I/O failure can hit it. This matters:
            // truncating back to the durable tail is the journal's salvage
            // move on a full disk, and a real full disk still allows it.
            Some(IoFaultKind::Eio) => Err(eio("set_len")),
            _ => {
                self.inner.set_len(len)?;
                self.inner.seek(io::SeekFrom::End(0))?;
                self.synced_len = self.synced_len.min(len);
                Ok(())
            }
        }
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        match self.state.tick(OpClass::Read, "read") {
            Some(IoFaultKind::Eio) => Err(eio("read")),
            _ => {
                let mut bytes = Vec::new();
                self.inner.rewind()?;
                self.inner.read_to_end(&mut bytes)?;
                Ok(bytes)
            }
        }
    }
}

impl Vfs for FaultVfs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.state.tick(OpClass::Other, "create_dir_all") {
            Some(IoFaultKind::Eio) => Err(eio("create_dir_all")),
            _ => std::fs::create_dir_all(dir),
        }
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.state.tick(OpClass::Other, "open") {
            Some(IoFaultKind::Eio) => Err(eio("open")),
            _ => {
                let f = OpenOptions::new().read(true).create(true).append(true).open(path)?;
                Ok(Box::new(FaultFile::new(f, Arc::clone(&self.state))?))
            }
        }
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.state.tick(OpClass::Other, "create") {
            Some(IoFaultKind::Eio) => Err(eio("create")),
            _ => Ok(Box::new(FaultFile::new(File::create(path)?, Arc::clone(&self.state))?)),
        }
    }

    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.state.tick(OpClass::Other, "create_new") {
            Some(IoFaultKind::Eio) => Err(eio("create_new")),
            _ => {
                let f = OpenOptions::new().write(true).create_new(true).open(path)?;
                Ok(Box::new(FaultFile::new(f, Arc::clone(&self.state))?))
            }
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.state.tick(OpClass::Read, "read") {
            Some(IoFaultKind::Eio) => Err(eio("read")),
            _ => std::fs::read(path),
        }
    }

    fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.state.tick(OpClass::Read, "read_dir") {
            Some(IoFaultKind::Eio) => Err(eio("read_dir")),
            _ => RealVfs.read_dir(dir),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.state.tick(OpClass::Rename, "rename") {
            Some(IoFaultKind::RenameFail) => {
                Err(io::Error::other("injected rename failure (nothing moved)"))
            }
            Some(IoFaultKind::TornRename) => {
                // Power loss mid-rename on a non-atomic filesystem: the
                // destination holds a truncated copy, the source is gone.
                let bytes = std::fs::read(from)?;
                std::fs::write(to, &bytes[..bytes.len() / 2])?;
                std::fs::remove_file(from)?;
                Err(io::Error::other("injected torn rename (destination truncated)"))
            }
            _ => std::fs::rename(from, to),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.state.tick(OpClass::Other, "remove") {
            Some(IoFaultKind::Eio) => Err(eio("remove")),
            _ => std::fs::remove_file(path),
        }
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.state.tick(OpClass::Fsync, "dir_fsync") {
            Some(IoFaultKind::FsyncFail) => {
                Err(io::Error::other("injected directory fsync failure"))
            }
            _ => RealVfs.sync_dir(dir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-journals")
            .join(format!("vfs-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn plan_is_deterministic_and_kinds_respect_op_classes() {
        let plan = IoFaultPlan::uniform(42, 0.5);
        let a: Vec<_> = (0..200).map(|i| plan.decide(i, OpClass::Write)).collect();
        let b: Vec<_> = (0..200).map(|i| plan.decide(i, OpClass::Write)).collect();
        assert_eq!(a, b, "same seed must give identical fault sequences");
        for i in 0..500 {
            if let Some(k) = plan.decide(i, OpClass::Fsync) {
                assert_eq!(k, IoFaultKind::FsyncFail, "only fsync faults can hit an fsync op");
            }
            if let Some(k) = plan.decide(i, OpClass::Read) {
                assert_eq!(k, IoFaultKind::Eio, "only eio can hit a read op");
            }
        }
        // Exact schedules fire exactly where asked.
        let at = IoFaultPlan::at(7, IoFaultKind::Enospc);
        assert_eq!(at.decide(7, OpClass::Write), Some(IoFaultKind::Enospc));
        assert_eq!(at.decide(7, OpClass::Fsync), None, "kind does not apply to class");
        assert_eq!(at.decide(8, OpClass::Write), None);
        let from = IoFaultPlan::from_op(3, IoFaultKind::Enospc);
        assert_eq!(from.decide(2, OpClass::Write), None);
        assert_eq!(from.decide(3, OpClass::Write), Some(IoFaultKind::Enospc));
        assert_eq!(from.decide(30, OpClass::Write), Some(IoFaultKind::Enospc));
    }

    #[test]
    fn fsync_fail_drops_unsynced_bytes() {
        let dir = scratch("fsyncfail");
        let path = dir.join("f");
        // Op 0: create, op 1: write "abc", op 2: fsync ok, op 3: write
        // "def", op 4: fsync FAILS -> "def" is dropped.
        let vfs = FaultVfs::new(IoFaultPlan::at(4, IoFaultKind::FsyncFail));
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        f.write_all(b"def").unwrap();
        let err = f.sync_all().unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(&path).unwrap(), b"abc", "unsynced bytes must be dropped");
        assert_eq!(vfs.injected().len(), 1);
        assert_eq!(vfs.injected()[0].kind, IoFaultKind::FsyncFail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn enospc_and_short_write_land_a_prefix() {
        for kind in [IoFaultKind::Enospc, IoFaultKind::ShortWrite] {
            let dir = scratch(kind.label());
            let path = dir.join("f");
            let vfs = FaultVfs::new(IoFaultPlan::at(1, kind));
            let mut f = vfs.create(&path).unwrap();
            let err = f.write_all(b"0123456789").unwrap_err();
            if kind == IoFaultKind::Enospc {
                assert!(is_enospc(&err), "enospc carries the raw errno: {err}");
            }
            drop(f);
            assert_eq!(std::fs::read(&path).unwrap(), b"01234", "half the buffer lands");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn torn_rename_truncates_the_destination() {
        let dir = scratch("tornrename");
        let src = dir.join("src");
        let dst = dir.join("dst");
        std::fs::write(&src, b"0123456789").unwrap();
        let vfs = FaultVfs::new(IoFaultPlan::at(0, IoFaultKind::TornRename));
        assert!(vfs.rename(&src, &dst).is_err());
        assert!(!src.exists(), "source is gone");
        assert_eq!(std::fs::read(&dst).unwrap(), b"01234", "destination is torn");
        // RenameFail touches nothing.
        std::fs::write(&src, b"x").unwrap();
        std::fs::write(&dst, b"y").unwrap();
        let vfs = FaultVfs::new(IoFaultPlan::at(0, IoFaultKind::RenameFail));
        assert!(vfs.rename(&src, &dst).is_err());
        assert_eq!(std::fs::read(&src).unwrap(), b"x");
        assert_eq!(std::fs::read(&dst).unwrap(), b"y");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_plan_counts_ops_without_faulting() {
        let dir = scratch("count");
        let vfs = FaultVfs::new(IoFaultPlan::none());
        let mut f = vfs.create(&dir.join("f")).unwrap();
        f.write_all(b"abc").unwrap();
        f.sync_all().unwrap();
        drop(f);
        vfs.read(&dir.join("f")).unwrap();
        assert_eq!(vfs.ops(), 4, "create + write + fsync + read");
        assert!(vfs.injected().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
