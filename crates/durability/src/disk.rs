//! The [`VirtualDisk`] abstraction and its two implementations.
//!
//! The WAL never touches `std::fs` directly: it writes through a
//! [`VirtualDisk`], so the same log/recovery code runs against
//!
//! * [`MemDisk`] — a deterministic in-memory disk with *explicit* crash
//!   semantics: appended bytes become durable only at a successful
//!   [`VirtualDisk::sync`], [`MemDisk::crash`] discards everything
//!   after the durable watermark, and [`MemDisk::tear`] keeps a
//!   byte-exact prefix of the unsynced tail first — the torn-write
//!   injection surface the nemesis harness drives;
//! * [`FileDisk`] — real files in one directory, `fsync` via
//!   `File::sync_data` on a held append handle, atomic snapshot
//!   replacement via write-temp-then-rename, and a directory fsync
//!   behind every new or renamed entry.

use std::any::Any;
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;

/// A minimal flat-namespace disk: named append-only files plus
/// atomically replaced files, with an explicit sync barrier.
pub trait VirtualDisk: Send {
    /// Names of every file present, sorted.
    fn list(&self) -> io::Result<Vec<String>>;

    /// The full contents of `name`, or `None` if absent.
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>>;

    /// Append `data` to `name`, creating it if absent. Appended bytes
    /// are *not* durable until [`VirtualDisk::sync`] reports success.
    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Replace `name` with `data` atomically (all-or-nothing across a
    /// crash). Durable after the next successful [`VirtualDisk::sync`].
    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()>;

    /// Delete `name`. Deleting an absent file is not an error.
    fn remove(&mut self, name: &str) -> io::Result<()>;

    /// Force every outstanding write to stable storage. Returns `true`
    /// when the barrier completed — a [`MemDisk`] under an injected
    /// disk-slow spike returns `Ok(false)` (the sync did not complete;
    /// nothing new is durable), which the WAL's group commit treats as
    /// "keep the rounds pending".
    fn sync(&mut self) -> io::Result<bool>;

    /// Escape hatch for fault injection (downcast to [`MemDisk`]).
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// One in-memory file: its bytes plus the durable watermark.
#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed to survive [`MemDisk::crash`]. For atomically
    /// replaced files the durable image is kept separately (`shadow`),
    /// because replacement is all-or-nothing, not prefix-stable.
    durable_len: usize,
    /// The last durable image of an atomically replaced file, when the
    /// current `data` has not been synced yet.
    shadow: Option<Vec<u8>>,
}

/// Deterministic in-memory disk with injectable crash/torn-write/
/// slow-fsync faults. The canonical backend for simulated deployments:
/// every byte of post-crash state is an explicit function of the
/// writes, syncs, and injected faults that preceded it.
#[derive(Debug, Default)]
pub struct MemDisk {
    files: BTreeMap<String, MemFile>,
    /// While `true`, [`VirtualDisk::sync`] returns `Ok(false)` and
    /// advances nothing — a disk whose fsyncs have stopped completing.
    sync_suspended: bool,
    /// Completed sync barriers.
    syncs: u64,
}

impl MemDisk {
    /// An empty disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// Inject or clear a disk-slow spike: while set, sync barriers do
    /// not complete (writes keep appending, durability stalls).
    pub fn set_sync_suspended(&mut self, suspended: bool) {
        self.sync_suspended = suspended;
    }

    /// Whether a disk-slow spike is active.
    pub fn sync_suspended(&self) -> bool {
        self.sync_suspended
    }

    /// Completed sync barriers so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Unsynced bytes of `name`'s append tail (0 if absent or clean).
    pub fn unsynced_len(&self, name: &str) -> usize {
        self.files.get(name).map(|f| f.data.len().saturating_sub(f.durable_len)).unwrap_or(0)
    }

    /// Torn-write injection: declare that `keep` bytes of `name`'s
    /// *unsynced* tail reached the platter before the power loss (the
    /// rest never will). Clamped to the actual unsynced length. Call
    /// before [`MemDisk::crash`] to leave a byte-exact partial frame
    /// for recovery to classify.
    pub fn tear(&mut self, name: &str, keep: usize) {
        if let Some(file) = self.files.get_mut(name) {
            let unsynced = file.data.len().saturating_sub(file.durable_len);
            file.durable_len += keep.min(unsynced);
        }
    }

    /// Bit-rot injection: flip one bit of `name` in place, in both the
    /// live bytes *and* the durable image. Unlike [`MemDisk::tear`]
    /// (which only shortens the unsynced tail), rot is durable damage:
    /// it survives [`MemDisk::crash`] and sits below the durable
    /// watermark, which is exactly what recovery must refuse to trim.
    /// Returns `false` when the file is absent or `bit / 8` is past its
    /// end.
    pub fn rot(&mut self, name: &str, bit: usize) -> bool {
        let Some(file) = self.files.get_mut(name) else { return false };
        let byte = bit / 8;
        if byte >= file.data.len() {
            return false;
        }
        file.data[byte] ^= 1 << (bit % 8);
        // Rot the durable image too: if the byte is beyond the durable
        // watermark it lives only in the unsynced tail, and if a shadow
        // holds the durable image the same byte rots there when present.
        if let Some(shadow) = &mut file.shadow {
            if byte < shadow.len() {
                shadow[byte] ^= 1 << (bit % 8);
            }
        }
        true
    }

    /// Power loss: every file reverts to its durable image — append
    /// tails truncate to the durable watermark (as adjusted by
    /// [`MemDisk::tear`]), unsynced atomic replacements revert to their
    /// shadow. A crash also power-cycles the disk: a pending disk-slow
    /// spike does not survive it.
    pub fn crash(&mut self) {
        for file in self.files.values_mut() {
            if let Some(shadow) = file.shadow.take() {
                file.data = shadow;
                file.durable_len = file.data.len();
            } else {
                file.data.truncate(file.durable_len);
            }
        }
        self.sync_suspended = false;
    }
}

impl VirtualDisk for MemDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        Ok(self.files.get(name).map(|f| f.data.clone()))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.files.entry(name.to_string()).or_default().data.extend_from_slice(data);
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let file = self.files.entry(name.to_string()).or_default();
        // Preserve the previous durable image until the next sync: an
        // unsynced replacement must revert on crash, not tear.
        if file.shadow.is_none() {
            file.shadow = Some(file.data[..file.durable_len].to_vec());
        }
        file.data = data.to_vec();
        file.durable_len = 0;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.files.remove(name);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<bool> {
        if self.sync_suspended {
            return Ok(false);
        }
        for file in self.files.values_mut() {
            file.durable_len = file.data.len();
            file.shadow = None;
        }
        self.syncs += 1;
        Ok(true)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Real files under one directory. The file last appended to (the
/// WAL's active segment) stays open, so an append is one `write(2)`.
/// `sync` walks every file written since the last barrier and
/// `sync_data`s it, then fsyncs the directory if an append created a
/// file; atomic replacement goes through write-temp + `sync_data` +
/// rename + directory fsync (the classic crash-safe sequence), so it is
/// durable on return.
#[derive(Debug)]
pub struct FileDisk {
    root: PathBuf,
    /// Files appended to since the last sync barrier.
    dirty: Vec<String>,
    /// The file last appended to, kept open for the next append.
    active: Option<(String, fs::File)>,
    /// An append created a file whose directory entry is not yet
    /// durable.
    dir_dirty: bool,
}

impl FileDisk {
    /// Open (creating if needed) the directory `root` as a disk.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(FileDisk { root, dirty: Vec::new(), active: None, dir_dirty: false })
    }

    /// The backing directory.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    fn path(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }

    fn mark_dirty(&mut self, name: &str) {
        if !self.dirty.iter().any(|d| d == name) {
            self.dirty.push(name.to_string());
        }
    }

    /// `name` is about to be replaced or unlinked: close its held
    /// handle (later appends must not land in the old inode) and stop
    /// tracking it for the next barrier.
    fn release(&mut self, name: &str) {
        if self.active.as_ref().is_some_and(|(held, _)| held == name) {
            self.active = None;
        }
        self.dirty.retain(|d| d != name);
    }

    /// Open `name` for appending, noting whether this created it.
    fn open_append(&mut self, name: &str) -> io::Result<fs::File> {
        let path = self.path(name);
        match fs::OpenOptions::new().append(true).open(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.dir_dirty = true;
                fs::OpenOptions::new().append(true).create(true).open(&path)
            }
            opened => opened,
        }
    }

    /// Make every directory entry created or renamed so far durable.
    fn sync_dir(&self) -> io::Result<()> {
        fs::File::open(&self.root)?.sync_all()
    }
}

impl VirtualDisk for FileDisk {
    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.path(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let active = match self.active.take() {
            Some((held, file)) if held == name => (held, file),
            _ => (name.to_string(), self.open_append(name)?),
        };
        self.active.insert(active).1.write_all(data)?;
        self.mark_dirty(name);
        Ok(())
    }

    fn write_atomic(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.release(name);
        let tmp = self.path(&format!("{name}.tmp"));
        {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(data)?;
            // The temp image must be on disk before the rename commits
            // it, or a crash could promote a hole.
            file.sync_data()?;
        }
        fs::rename(&tmp, self.path(name))?;
        // The rename itself is durable only once the directory is.
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> io::Result<()> {
        self.release(name);
        match fs::remove_file(self.path(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn sync(&mut self) -> io::Result<bool> {
        for name in std::mem::take(&mut self.dirty) {
            match &self.active {
                Some((held, file)) if *held == name => file.sync_data()?,
                _ => fs::File::open(self.path(&name))?.sync_data()?,
            }
        }
        if self.dir_dirty {
            self.sync_dir()?;
            self.dir_dirty = false;
        }
        Ok(true)
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// One [`VirtualDisk`] per server of a deployment — what a durable
/// `Service` is constructed over and what survives its crash.
pub struct DurabilityStore {
    disks: Vec<Box<dyn VirtualDisk>>,
}

impl DurabilityStore {
    /// `n` independent in-memory disks (simulated deployments).
    pub fn memory(n: usize) -> Self {
        DurabilityStore { disks: (0..n).map(|_| Box::new(MemDisk::new()) as Box<_>).collect() }
    }

    /// `n` directories `server-<i>` under `root` (real deployments).
    pub fn on_disk(root: impl Into<PathBuf>, n: usize) -> io::Result<Self> {
        let root = root.into();
        let mut disks: Vec<Box<dyn VirtualDisk>> = Vec::with_capacity(n);
        for i in 0..n {
            disks.push(Box::new(FileDisk::open(root.join(format!("server-{i}")))?));
        }
        Ok(DurabilityStore { disks })
    }

    /// Wrap pre-built disks.
    pub fn from_disks(disks: Vec<Box<dyn VirtualDisk>>) -> Self {
        DurabilityStore { disks }
    }

    /// Number of per-server disks.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// Whether the store holds no disks.
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// Server `i`'s disk.
    pub fn disk_mut(&mut self, i: usize) -> &mut dyn VirtualDisk {
        self.disks[i].as_mut()
    }

    /// Server `i`'s disk as a [`MemDisk`], when it is one — the fault-
    /// injection surface (crash, tear, slow-sync).
    pub fn mem_disk_mut(&mut self, i: usize) -> Option<&mut MemDisk> {
        self.disks[i].as_any_mut().downcast_mut::<MemDisk>()
    }

    /// Simulate whole-cluster power loss: crash every in-memory disk
    /// (file-backed disks are already crash-consistent by construction).
    pub fn crash_all(&mut self) {
        for i in 0..self.disks.len() {
            if let Some(mem) = self.mem_disk_mut(i) {
                mem.crash();
            }
        }
    }

    /// Unwrap into the per-server disks.
    pub fn into_disks(self) -> Vec<Box<dyn VirtualDisk>> {
        self.disks
    }
}

impl std::fmt::Debug for DurabilityStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityStore").field("disks", &self.disks.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_disk_crash_discards_unsynced_tail() {
        let mut disk = MemDisk::new();
        disk.append("wal", b"durable").unwrap();
        assert!(disk.sync().unwrap());
        disk.append("wal", b"-lost").unwrap();
        disk.crash();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"durable");
    }

    #[test]
    fn mem_disk_tear_keeps_byte_exact_prefix() {
        let mut disk = MemDisk::new();
        disk.append("wal", b"base").unwrap();
        disk.sync().unwrap();
        disk.append("wal", b"0123456789").unwrap();
        disk.tear("wal", 4);
        disk.crash();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"base0123");
    }

    #[test]
    fn mem_disk_atomic_replace_reverts_not_tears() {
        let mut disk = MemDisk::new();
        disk.write_atomic("snap", b"old-image").unwrap();
        disk.sync().unwrap();
        disk.write_atomic("snap", b"new-image-unsynced").unwrap();
        disk.crash();
        assert_eq!(disk.read("snap").unwrap().unwrap(), b"old-image");
    }

    #[test]
    fn mem_disk_rot_survives_crash() {
        let mut disk = MemDisk::new();
        disk.append("wal", b"\x00\x00\x00\x00").unwrap();
        disk.sync().unwrap();
        assert!(disk.rot("wal", 16)); // bit 0 of byte 2
        disk.crash();
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"\x00\x00\x01\x00");
        assert!(!disk.rot("wal", 999), "out-of-range rot reports false");
        assert!(!disk.rot("absent", 0));
    }

    #[test]
    fn mem_disk_suspended_sync_completes_nothing() {
        let mut disk = MemDisk::new();
        disk.append("wal", b"data").unwrap();
        disk.set_sync_suspended(true);
        assert!(!disk.sync().unwrap());
        disk.crash(); // also clears the suspension (power cycle)
        assert_eq!(disk.read("wal").unwrap().unwrap(), b"");
        assert!(!disk.sync_suspended());
    }

    #[test]
    fn file_disk_round_trips() {
        let root = std::env::temp_dir().join(format!("allconcur-filedisk-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut disk = FileDisk::open(&root).unwrap();
        disk.append("wal-0", b"abc").unwrap();
        disk.append("wal-0", b"def").unwrap();
        disk.write_atomic("snap", b"state").unwrap();
        assert!(disk.sync().unwrap());
        assert_eq!(disk.read("wal-0").unwrap().unwrap(), b"abcdef");
        assert_eq!(disk.read("snap").unwrap().unwrap(), b"state");
        assert_eq!(disk.list().unwrap(), vec!["snap".to_string(), "wal-0".to_string()]);
        disk.remove("wal-0").unwrap();
        assert_eq!(disk.read("wal-0").unwrap(), None);
        let _ = fs::remove_dir_all(&root);
    }

    /// The held append handle must never outlive its directory entry:
    /// after a replace or an unlink, appends go to the file the name
    /// now denotes, not to the orphaned inode.
    #[test]
    fn file_disk_append_follows_replace_and_remove() {
        let root =
            std::env::temp_dir().join(format!("allconcur-filedisk-held-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut disk = FileDisk::open(&root).unwrap();
        disk.append("seg", b"abc").unwrap();
        disk.write_atomic("seg", b"ab").unwrap(); // a torn-tail trim
        disk.append("seg", b"XY").unwrap();
        assert!(disk.sync().unwrap());
        assert_eq!(disk.read("seg").unwrap().unwrap(), b"abXY");

        disk.remove("seg").unwrap();
        disk.append("seg", b"new").unwrap();
        assert!(disk.sync().unwrap());
        assert_eq!(disk.read("seg").unwrap().unwrap(), b"new", "recreated after remove");

        // Switching files closes the held handle; both stay syncable.
        disk.append("other", b"1").unwrap();
        disk.append("seg", b"+").unwrap();
        assert!(disk.sync().unwrap());
        assert_eq!(disk.read("other").unwrap().unwrap(), b"1");
        assert_eq!(disk.read("seg").unwrap().unwrap(), b"new+");
        let _ = fs::remove_dir_all(&root);
    }
}
