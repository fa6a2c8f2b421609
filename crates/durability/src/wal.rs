//! The per-server write-ahead log: checksummed round frames, group
//! commit, segment rotation, snapshot truncation, and crash recovery.
//!
//! ## Layout
//!
//! A server's disk holds two kinds of files, both built from the stable
//! framing in [`allconcur_core::wire`]:
//!
//! * `wal-<epoch:08>-<start:010>.seg` — an append-only segment whose
//!   `k`-th frame carries round `start + k` of `epoch`. Each frame
//!   payload is `[epoch: u64 le] ++ encode_delivery(round)`.
//! * `snap-<epoch:08>-<covers:010>.snap` — one atomically replaced
//!   frame whose payload is `[epoch: u64 le] [covers: u64 le] ++ state`:
//!   the application state after applying rounds `0..covers` of
//!   `epoch`. Written by [`Wal::create`], [`Wal::checkpoint`] and
//!   [`Wal::begin_epoch`].
//!
//! Rounds restart at zero whenever the cluster is rebuilt (recovery,
//! reconfiguration), so every frame and snapshot is tagged with the
//! **epoch** — a counter bumped at each rebuild — and recovery only ever
//! stitches together records of a single epoch.
//!
//! ## Group commit
//!
//! [`Wal::append`] writes the frame immediately but only forces the
//! disk per [`DurabilityConfig`]: after `fsync_every_n_rounds` appends
//! or once `fsync_interval` has elapsed. [`Wal::durable_rounds`] tracks
//! exactly how far a crash can *not* roll back; the `Service` layer
//! withholds acknowledgments until a round is below that watermark
//! somewhere.
//!
//! ## Recovery
//!
//! [`Wal::recover`] picks the newest valid snapshot (highest epoch,
//! then highest covered round), replays that epoch's segments in order,
//! and accepts the **longest checksummed, contiguous prefix** of
//! frames: a truncated or corrupt frame, an epoch mismatch, or a round
//! gap all end the scan. A torn tail is then physically trimmed so new
//! appends never land after garbage.

use crate::config::DurabilityConfig;
use crate::disk::VirtualDisk;
use allconcur_core::delivery::Delivery;
use allconcur_core::wire::{
    self, decode_delivery, encode_delivery, put_frame, read_frame, scan_frames, FrameError,
};
use allconcur_core::Round;
use bytes::BufMut;
use std::io;
use std::time::Instant;

/// Description of a torn tail found (and trimmed) during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Segment file the torn write landed in.
    pub segment: String,
    /// Bytes of the segment's longest checksummed prefix (kept).
    pub valid_bytes: usize,
    /// How the first bad frame failed.
    pub error: FrameError,
}

/// Mid-log rot: a bad frame with valid history *after* it — bit rot in
/// the middle of acknowledged rounds, not a torn tail write.
///
/// A torn tail is benign (the crash lost only unsynced rounds; trim and
/// continue), but rot sits below the durable watermark: trimming it
/// would silently truncate rounds that were acknowledged to clients.
/// [`Wal::recover`] and [`Wal::scrub`] therefore surface rot as this
/// typed error (classify with [`rot_error`]) so the service layer can
/// fall back to another server's chunked catch-up instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MidLogRot {
    /// Segment file the rotted frame lives in.
    pub segment: String,
    /// Byte offset of the first bad frame.
    pub offset: usize,
    /// First round no longer reconstructible from this disk.
    pub round: Round,
    /// How the frame failed its check.
    pub error: FrameError,
}

impl std::fmt::Display for MidLogRot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mid-log rot in {} at byte {} (round {}): {} — valid frames follow, refusing to \
             truncate acknowledged history",
            self.segment, self.offset, self.round, self.error
        )
    }
}

impl std::error::Error for MidLogRot {}

impl From<MidLogRot> for io::Error {
    fn from(rot: MidLogRot) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, rot)
    }
}

/// Extract the typed [`MidLogRot`] from an I/O error, if it carries
/// one. Torn tails and ordinary I/O failures return `None`.
pub fn rot_error(e: &io::Error) -> Option<&MidLogRot> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<MidLogRot>())
}

/// What a read-only [`Wal::scrub`] pass verified.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScrubReport {
    /// Segment files of the current epoch whose frames were verified.
    pub segments: usize,
    /// Round frames whose checksum, epoch tag, and round slot all
    /// checked out.
    pub frames: u64,
    /// Whether the newest snapshot of the current epoch verified (also
    /// `true` when the epoch has no snapshot file at all).
    pub snapshot_ok: bool,
    /// A torn (trailing) bad frame, when one exists — expected only on
    /// a disk that has not been through [`Wal::recover`] since a crash.
    pub torn: Option<TornTail>,
}

/// What [`Wal::recover_or_rot`] found on one server's disk.
// Built once per server per recovery and unpacked at once: the size
// gap between the variants costs nothing worth a `Box`.
#[allow(clippy::large_enum_variant)]
pub enum RecoverOutcome {
    /// The log was intact (any torn tail trimmed): the reopened WAL
    /// plus what it reconstructed.
    Intact(Wal, Recovered),
    /// Mid-log rot — acknowledged history is damaged on *this* disk.
    /// The disk is handed back untouched so the caller can rebuild the
    /// server from another server's chunked catch-up.
    Rotted {
        /// The unmodified disk (still holding the rotted files).
        disk: Box<dyn VirtualDisk>,
        /// Where and how the rot was found.
        rot: MidLogRot,
    },
}

impl std::fmt::Debug for RecoverOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverOutcome::Intact(wal, rec) => {
                f.debug_tuple("Intact").field(wal).field(rec).finish()
            }
            RecoverOutcome::Rotted { rot, .. } => {
                f.debug_struct("Rotted").field("rot", rot).finish_non_exhaustive()
            }
        }
    }
}

/// Everything [`Wal::recover`] reconstructed from one server's disk.
#[derive(Debug)]
pub struct Recovered {
    /// Epoch the durable state belongs to.
    pub epoch: u64,
    /// Snapshot state covering rounds `0..snapshot_covers`, when the
    /// disk held one (`None` only for a never-initialised disk).
    pub snapshot: Option<Vec<u8>>,
    /// Rounds covered by `snapshot`.
    pub snapshot_covers: Round,
    /// Replayable log suffix: deliveries for rounds
    /// `snapshot_covers..snapshot_covers + suffix.len()`, contiguous.
    pub suffix: Vec<Delivery>,
    /// The torn tail recovery discarded, if any.
    pub torn: Option<TornTail>,
}

impl Recovered {
    /// First round *not* reconstructible from this disk.
    pub fn tip(&self) -> Round {
        self.snapshot_covers + self.suffix.len() as Round
    }
}

fn segment_name(epoch: u64, start: Round) -> String {
    format!("wal-{epoch:08}-{start:010}.seg")
}

fn snapshot_name(epoch: u64, covers: Round) -> String {
    format!("snap-{epoch:08}-{covers:010}.snap")
}

/// Parse `wal-<epoch>-<start>.seg` / `snap-<epoch>-<covers>.snap`.
fn parse_name(name: &str) -> Option<(bool, u64, u64)> {
    let (is_segment, rest) = if let Some(rest) = name.strip_prefix("wal-") {
        (true, rest.strip_suffix(".seg")?)
    } else if let Some(rest) = name.strip_prefix("snap-") {
        (false, rest.strip_suffix(".snap")?)
    } else {
        return None;
    };
    let (epoch, number) = rest.split_once('-')?;
    Some((is_segment, epoch.parse().ok()?, number.parse().ok()?))
}

fn corrupt(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

/// One server's write-ahead log over a [`VirtualDisk`].
pub struct Wal {
    disk: Box<dyn VirtualDisk>,
    cfg: DurabilityConfig,
    epoch: u64,
    /// Rounds appended so far this epoch (next append must be this round).
    appended: Round,
    /// Rounds guaranteed to survive a crash (snapshot + synced frames).
    durable: Round,
    /// Rounds covered by the newest durable snapshot.
    snapshot_covers: Round,
    /// First round of the active segment.
    segment_start: Round,
    /// Bytes written to the active segment.
    segment_bytes: usize,
    /// Appends since the last completed sync.
    unsynced_rounds: u64,
    /// Wall-clock of the last completed sync (only read when the config
    /// has a time-based trigger, so deterministic runs never touch it).
    last_sync: Option<Instant>,
    /// Completed group commits.
    syncs: u64,
    /// Scratch buffer for frame encoding (reused across appends).
    frame_buf: Vec<u8>,
}

impl Wal {
    /// Initialise a fresh log on `disk`: durable snapshot of
    /// `initial_state` at epoch 0 covering zero rounds.
    pub fn create(
        mut disk: Box<dyn VirtualDisk>,
        cfg: DurabilityConfig,
        initial_state: &[u8],
    ) -> io::Result<Self> {
        write_snapshot(disk.as_mut(), 0, 0, initial_state)?;
        if !disk.sync()? {
            return Err(corrupt("disk sync did not complete while initialising the WAL"));
        }
        Ok(Wal {
            disk,
            cfg,
            epoch: 0,
            appended: 0,
            durable: 0,
            snapshot_covers: 0,
            segment_start: 0,
            segment_bytes: 0,
            unsynced_rounds: 0,
            last_sync: None,
            syncs: 0,
            frame_buf: Vec::new(),
        })
    }

    /// Append one agreed round. Must be called in round order with no
    /// gaps — the WAL *is* the agreed history's durable prefix.
    /// Triggers a group commit per the configured policy.
    pub fn append(&mut self, delivery: &Delivery) -> io::Result<()> {
        if delivery.round != self.appended {
            return Err(corrupt(&format!(
                "WAL append out of order: got round {}, expected {}",
                delivery.round, self.appended
            )));
        }
        if self.segment_bytes >= self.cfg.segment_bytes {
            // Rotate: subsequent frames go to a fresh segment. No sync
            // needed — recovery scans segments in start order and round
            // contiguity spans the boundary.
            self.segment_start = self.appended;
            self.segment_bytes = 0;
        }
        self.frame_buf.clear();
        let mut payload = Vec::with_capacity(16 + delivery.payload_bytes());
        payload.put_u64_le(self.epoch);
        encode_delivery(delivery, &mut payload);
        put_frame(&mut self.frame_buf, &payload);
        let name = segment_name(self.epoch, self.segment_start);
        let frame = std::mem::take(&mut self.frame_buf);
        let result = self.disk.append(&name, &frame);
        self.frame_buf = frame;
        result?;
        self.segment_bytes += self.frame_buf.len();
        self.appended += 1;
        self.unsynced_rounds += 1;
        self.maybe_group_commit()?;
        Ok(())
    }

    fn maybe_group_commit(&mut self) -> io::Result<()> {
        let by_count = self.cfg.fsync_every_n_rounds > 0
            && self.unsynced_rounds >= self.cfg.fsync_every_n_rounds;
        let by_time = match self.cfg.fsync_interval {
            Some(interval) => {
                self.unsynced_rounds > 0
                    && self.last_sync.map(|t| t.elapsed() >= interval).unwrap_or(true)
            }
            None => false,
        };
        if by_count || by_time {
            self.sync()?;
        }
        Ok(())
    }

    /// Force a sync barrier now. Returns whether it completed — a
    /// disk-slow fault leaves the barrier incomplete and the durable
    /// watermark unchanged (`Ok(false)`), never falsely advanced.
    pub fn sync(&mut self) -> io::Result<bool> {
        let completed = self.disk.sync()?;
        if completed {
            self.durable = self.appended;
            self.unsynced_rounds = 0;
            self.syncs += 1;
            if self.cfg.fsync_interval.is_some() {
                self.last_sync = Some(Instant::now());
            }
        }
        Ok(completed)
    }

    /// Write a durable snapshot of `state` (the application state after
    /// every appended round) and truncate the now fully-covered
    /// segments. Returns whether the checkpoint took effect — under a
    /// disk-slow fault it is abandoned without truncating anything.
    pub fn checkpoint(&mut self, state: &[u8]) -> io::Result<bool> {
        let covers = self.appended;
        write_snapshot(self.disk.as_mut(), self.epoch, covers, state)?;
        if !self.disk.sync()? {
            return Ok(false);
        }
        self.syncs += 1;
        if self.cfg.fsync_interval.is_some() {
            self.last_sync = Some(Instant::now());
        }
        // The snapshot is durable: every segment (all ≤ covers) and any
        // older snapshot of this epoch is dead weight.
        for name in self.disk.list()? {
            match parse_name(&name) {
                Some((true, epoch, _)) if epoch == self.epoch => self.disk.remove(&name)?,
                Some((false, epoch, c)) if epoch == self.epoch && c < covers => {
                    self.disk.remove(&name)?
                }
                _ => {}
            }
        }
        self.snapshot_covers = covers;
        self.durable = covers;
        self.unsynced_rounds = 0;
        self.segment_start = covers;
        self.segment_bytes = 0;
        Ok(true)
    }

    /// Start a new epoch: durable snapshot of `state` covering zero
    /// rounds of `new_epoch`, then drop every older-epoch file. Rounds
    /// restart at zero. Fails if the disk cannot complete a sync (the
    /// epoch boundary must not be ambiguous on disk).
    pub fn begin_epoch(&mut self, new_epoch: u64, state: &[u8]) -> io::Result<()> {
        write_snapshot(self.disk.as_mut(), new_epoch, 0, state)?;
        if !self.disk.sync()? {
            return Err(corrupt("disk sync did not complete at an epoch boundary"));
        }
        self.syncs += 1;
        for name in self.disk.list()? {
            match parse_name(&name) {
                Some((_, epoch, _)) if epoch < new_epoch => self.disk.remove(&name)?,
                Some((false, epoch, covers)) if epoch == new_epoch && covers != 0 => {
                    self.disk.remove(&name)?
                }
                _ => {}
            }
        }
        self.epoch = new_epoch;
        self.appended = 0;
        self.durable = 0;
        self.snapshot_covers = 0;
        self.segment_start = 0;
        self.segment_bytes = 0;
        self.unsynced_rounds = 0;
        if self.cfg.fsync_interval.is_some() {
            self.last_sync = Some(Instant::now());
        }
        Ok(())
    }

    /// Reconstruct a server's durable state from its disk after a
    /// crash: newest valid snapshot plus the longest checksummed,
    /// contiguous frame suffix of that epoch. Trims any torn tail so
    /// the reopened log appends cleanly.
    ///
    /// Mid-log rot (a bad frame *inside* acknowledged history, not a
    /// torn tail) fails with a typed [`MidLogRot`] error rather than
    /// silently truncating — use [`rot_error`] to classify, or
    /// [`Wal::recover_or_rot`] to get the disk back for a rebuild from
    /// a peer.
    pub fn recover(
        disk: Box<dyn VirtualDisk>,
        cfg: DurabilityConfig,
    ) -> io::Result<(Self, Recovered)> {
        match Self::recover_or_rot(disk, cfg)? {
            RecoverOutcome::Intact(wal, rec) => Ok((wal, rec)),
            RecoverOutcome::Rotted { rot, .. } => Err(rot.into()),
        }
    }

    /// [`Wal::recover`], but mid-log rot hands the disk back instead of
    /// consuming it in the error: the caller (the service layer) can
    /// then rebuild this server from another server's chunked catch-up
    /// — the only repair that does not lose acknowledged rounds.
    pub fn recover_or_rot(
        mut disk: Box<dyn VirtualDisk>,
        cfg: DurabilityConfig,
    ) -> io::Result<RecoverOutcome> {
        let names = disk.list()?;
        // Newest snapshot first: highest epoch, then highest covered round.
        let mut snapshots: Vec<(u64, Round, &str)> = names
            .iter()
            .filter_map(|n| match parse_name(n) {
                Some((false, epoch, covers)) => Some((epoch, covers, n.as_str())),
                _ => None,
            })
            .collect();
        snapshots.sort_by(|a, b| b.cmp(a));
        let mut chosen: Option<(u64, Round, Vec<u8>)> = None;
        for &(epoch, covers, name) in &snapshots {
            if let Some(bytes) = disk.read(name)? {
                if let Some(state) = decode_snapshot(&bytes, epoch, covers) {
                    chosen = Some((epoch, covers, state));
                    break;
                }
            }
        }
        let (epoch, covers, snapshot) = match chosen {
            Some((e, c, s)) => (e, c, Some(s)),
            // Never-initialised disk: empty history at epoch 0.
            None => (0, 0, None),
        };

        // That epoch's segments, in start order.
        let mut segments: Vec<(Round, String)> = names
            .iter()
            .filter_map(|n| match parse_name(n) {
                Some((true, e, start)) if e == epoch => Some((start as Round, n.clone())),
                _ => None,
            })
            .collect();
        segments.sort();

        let mut suffix: Vec<Delivery> = Vec::new();
        let mut torn: Option<TornTail> = None;
        let mut next_round: Round = covers;
        let mut active: Option<(Round, String, usize)> = None;
        let seg_count = segments.len();
        for (idx, (start, name)) in segments.iter().enumerate() {
            let start = *start;
            if torn.is_some() {
                // Rounds past a torn tail are unreachable history.
                disk.remove(name)?;
                continue;
            }
            if start > next_round {
                // A gap (segment containing `next_round` lost whole):
                // nothing past it is stitchable.
                disk.remove(name)?;
                continue;
            }
            let bytes = disk.read(name)?.unwrap_or_default();
            let (frames, tail) = scan_frames(&bytes);
            let mut round = start;
            let mut valid_bytes = 0usize;
            let mut bad: Option<FrameError> = None;
            for frame in frames {
                match decode_record(frame, epoch, round) {
                    Some(delivery) => {
                        valid_bytes += wire::FRAME_HEADER_BYTES + frame.len();
                        if round >= covers {
                            if round == next_round {
                                suffix.push(delivery);
                                next_round += 1;
                            }
                            // round < next_round: already covered by a
                            // later-started segment scan order? cannot
                            // happen (starts ascend); covered rounds in
                            // partially-truncated segments fall here.
                        } else {
                            next_round = next_round.max(round + 1);
                        }
                        round += 1;
                    }
                    None => {
                        bad = Some(FrameError::Corrupt);
                        break;
                    }
                }
            }
            if bad.is_none() {
                if let Some((err, _)) = tail {
                    bad = Some(err);
                }
            }
            if let Some(error) = bad {
                // Torn tail or rot? A torn write can only be the last
                // thing that happened to the log, so a bad frame with
                // valid history *after* it — in a later segment (only
                // ever created by appends past this one) or further
                // down this one — is rot in acknowledged rounds.
                // Trimming would silently discard them; bail out typed
                // so the caller rebuilds from a peer instead.
                let is_last = idx + 1 == seg_count;
                if !is_last || valid_record_after(&bytes, valid_bytes, epoch) {
                    let rot =
                        MidLogRot { segment: name.clone(), offset: valid_bytes, round, error };
                    return Ok(RecoverOutcome::Rotted { disk, rot });
                }
                // Trim the garbage so future appends follow the valid
                // prefix byte-exactly.
                disk.write_atomic(name, &bytes[..valid_bytes])?;
                torn = Some(TornTail { segment: name.clone(), valid_bytes, error });
            }
            // A clean scan means valid_bytes == bytes.len(); a bad one
            // means the file was just trimmed to valid_bytes.
            active = Some((start, name.clone(), valid_bytes));
        }
        if torn.is_some() && !disk.sync()? {
            return Err(corrupt("disk sync did not complete while trimming a torn tail"));
        }

        let appended = next_round;
        let (segment_start, segment_bytes) = match active {
            Some((start, _, bytes)) => (start, bytes),
            None => (appended, 0),
        };
        let wal = Wal {
            disk,
            cfg,
            epoch,
            appended,
            durable: appended,
            snapshot_covers: covers,
            segment_start,
            segment_bytes,
            unsynced_rounds: 0,
            last_sync: None,
            syncs: 0,
            frame_buf: Vec::new(),
        };
        let recovered = Recovered { epoch, snapshot, snapshot_covers: covers, suffix, torn };
        Ok(RecoverOutcome::Intact(wal, recovered))
    }

    /// Verify every durable artefact of the current epoch in place:
    /// the newest snapshot plus every segment frame's checksum, epoch
    /// tag, and round slot. Read-only — nothing is trimmed or repaired.
    ///
    /// Mid-log rot (a bad frame with valid history after it) surfaces
    /// as a typed [`MidLogRot`] error — classify with [`rot_error`] —
    /// because repairing it requires another server's catch-up, not a
    /// trim. A trailing bad frame is merely reported as `torn` in the
    /// [`ScrubReport`]; it only occurs on a disk that has not been
    /// through [`Wal::recover`] since a crash.
    pub fn scrub(&mut self) -> io::Result<ScrubReport> {
        let names = self.disk.list()?;
        let mut report = ScrubReport { snapshot_ok: true, ..ScrubReport::default() };
        let mut snaps: Vec<(Round, &str)> = names
            .iter()
            .filter_map(|n| match parse_name(n) {
                Some((false, e, covers)) if e == self.epoch => Some((covers, n.as_str())),
                _ => None,
            })
            .collect();
        snaps.sort();
        if let Some(&(covers, name)) = snaps.last() {
            let bytes = self.disk.read(name)?.unwrap_or_default();
            report.snapshot_ok = decode_snapshot(&bytes, self.epoch, covers).is_some();
        }
        let mut segments: Vec<(Round, String)> = names
            .iter()
            .filter_map(|n| match parse_name(n) {
                Some((true, e, start)) if e == self.epoch => Some((start as Round, n.clone())),
                _ => None,
            })
            .collect();
        segments.sort();
        let seg_count = segments.len();
        for (idx, (start, name)) in segments.iter().enumerate() {
            let bytes = self.disk.read(name)?.unwrap_or_default();
            let (frames, tail) = scan_frames(&bytes);
            let mut round = *start;
            let mut valid_bytes = 0usize;
            let mut bad: Option<FrameError> = None;
            for frame in frames {
                match decode_record(frame, self.epoch, round) {
                    Some(_) => {
                        valid_bytes += wire::FRAME_HEADER_BYTES + frame.len();
                        round += 1;
                        report.frames += 1;
                    }
                    None => {
                        bad = Some(FrameError::Corrupt);
                        break;
                    }
                }
            }
            if bad.is_none() {
                if let Some((err, _)) = tail {
                    bad = Some(err);
                }
            }
            if let Some(error) = bad {
                let is_last = idx + 1 == seg_count;
                if !is_last || valid_record_after(&bytes, valid_bytes, self.epoch) {
                    return Err(MidLogRot {
                        segment: name.clone(),
                        offset: valid_bytes,
                        round,
                        error,
                    }
                    .into());
                }
                report.torn = Some(TornTail { segment: name.clone(), valid_bytes, error });
            }
            report.segments += 1;
        }
        Ok(report)
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Rounds appended this epoch (the next round to append).
    pub fn appended_rounds(&self) -> Round {
        self.appended
    }

    /// Rounds guaranteed to survive a crash of this server.
    pub fn durable_rounds(&self) -> Round {
        self.durable
    }

    /// Rounds covered by the newest durable snapshot.
    pub fn snapshot_covers(&self) -> Round {
        self.snapshot_covers
    }

    /// Appends not yet covered by a completed sync barrier.
    pub fn unsynced_rounds(&self) -> u64 {
        self.unsynced_rounds
    }

    /// Completed group commits (sync barriers) so far.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// The active configuration.
    pub fn config(&self) -> &DurabilityConfig {
        &self.cfg
    }

    /// The underlying disk (fault injection, inspection).
    pub fn disk_mut(&mut self) -> &mut dyn VirtualDisk {
        self.disk.as_mut()
    }

    /// Unwrap into the underlying disk (what survives a crash).
    pub fn into_disk(self) -> Box<dyn VirtualDisk> {
        self.disk
    }
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("epoch", &self.epoch)
            .field("appended", &self.appended)
            .field("durable", &self.durable)
            .field("snapshot_covers", &self.snapshot_covers)
            .finish()
    }
}

fn write_snapshot(
    disk: &mut dyn VirtualDisk,
    epoch: u64,
    covers: Round,
    state: &[u8],
) -> io::Result<()> {
    let mut payload = Vec::with_capacity(16 + state.len());
    payload.put_u64_le(epoch);
    payload.put_u64_le(covers);
    payload.extend_from_slice(state);
    let mut framed = Vec::with_capacity(wire::FRAME_HEADER_BYTES + payload.len());
    put_frame(&mut framed, &payload);
    disk.write_atomic(&snapshot_name(epoch, covers), &framed)
}

/// Little-endian `u64` at the front of `bytes`, when there is one.
fn le_u64(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(0..8)?.try_into().ok()?))
}

/// Probe `bytes[from..]` for any byte offset holding a checksummed
/// frame whose payload carries this epoch's tag — evidence that valid
/// history continues past a bad frame (mid-log rot), as opposed to a
/// torn tail trailed only by garbage. A false positive needs a CRC32
/// *and* epoch collision inside random damage, so the sliding probe is
/// reliable even when the bad frame's own length header was hit.
fn valid_record_after(bytes: &[u8], from: usize, epoch: u64) -> bool {
    let mut off = from.saturating_add(1);
    while off < bytes.len() {
        if let Ok((payload, _)) = read_frame(bytes, off) {
            if le_u64(payload) == Some(epoch) {
                return true;
            }
        }
        off += 1;
    }
    false
}

/// Validate + unwrap a snapshot file: checksummed frame whose header
/// matches the file name. Returns the state bytes.
fn decode_snapshot(bytes: &[u8], epoch: u64, covers: Round) -> Option<Vec<u8>> {
    let (payload, end) = read_frame(bytes, 0).ok()?;
    if end != bytes.len() || payload.len() < 16 {
        return None;
    }
    if le_u64(payload) != Some(epoch) || le_u64(&payload[8..16]) != Some(covers) {
        return None;
    }
    Some(payload[16..].to_vec())
}

/// Validate + unwrap one WAL frame payload: epoch tag and round must
/// match their expected slot.
fn decode_record(payload: &[u8], epoch: u64, round: Round) -> Option<Delivery> {
    if le_u64(payload) != Some(epoch) {
        return None;
    }
    let delivery = decode_delivery(&payload[8..]).ok()?;
    if delivery.round != round {
        return None;
    }
    Some(delivery)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::MemDisk;
    use bytes::Bytes;

    fn delivery(round: Round) -> Delivery {
        Delivery {
            round,
            messages: vec![(0, Bytes::from(round.to_le_bytes().to_vec())), (1, Bytes::new())],
        }
    }

    fn mem_wal(fsync_every: u64) -> Wal {
        Wal::create(Box::new(MemDisk::new()), DurabilityConfig::deterministic(fsync_every), b"init")
            .unwrap()
    }

    #[test]
    fn group_commit_advances_durable_in_batches() {
        let mut wal = mem_wal(4);
        for r in 0..10 {
            wal.append(&delivery(r)).unwrap();
        }
        // Rounds 0..8 hit two count-triggered syncs; 8..10 are pending.
        assert_eq!(wal.appended_rounds(), 10);
        assert_eq!(wal.durable_rounds(), 8);
        assert_eq!(wal.unsynced_rounds(), 2);
        assert!(wal.sync().unwrap());
        assert_eq!(wal.durable_rounds(), 10);
    }

    #[test]
    fn recover_replays_synced_suffix_and_drops_unsynced_tail() {
        let mut wal = mem_wal(4);
        for r in 0..10 {
            wal.append(&delivery(r)).unwrap();
        }
        let mut disk = wal.into_disk();
        disk.as_any_mut().downcast_mut::<MemDisk>().unwrap().crash();
        let (wal, rec) = Wal::recover(disk, DurabilityConfig::deterministic(4)).unwrap();
        assert_eq!(rec.epoch, 0);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"init"[..]));
        assert_eq!(rec.snapshot_covers, 0);
        assert_eq!(rec.tip(), 8, "unsynced rounds 8,9 roll back");
        assert_eq!(rec.suffix.len(), 8);
        for (i, d) in rec.suffix.iter().enumerate() {
            assert_eq!(*d, delivery(i as Round));
        }
        assert!(rec.torn.is_none());
        assert_eq!(wal.appended_rounds(), 8);
        assert_eq!(wal.durable_rounds(), 8);
    }

    #[test]
    fn recover_trims_torn_tail_and_appends_continue() {
        let mut wal2 = mem_wal(0); // no count trigger: nothing auto-syncs
        for r in 0..3 {
            wal2.append(&delivery(r)).unwrap();
        }
        assert!(wal2.sync().unwrap());
        wal2.append(&delivery(3)).unwrap(); // unsynced round 3
        let mut disk2 = wal2.into_disk();
        {
            let mem = disk2.as_any_mut().downcast_mut::<MemDisk>().unwrap();
            let name = segment_name(0, 0);
            let unsynced = mem.unsynced_len(&name);
            assert!(unsynced > 3);
            mem.tear(&name, 3); // 3 bytes of the torn frame survive
            mem.crash();
        }
        let (mut wal3, rec) = Wal::recover(disk2, DurabilityConfig::deterministic(1)).unwrap();
        assert_eq!(rec.tip(), 3);
        let torn = rec.torn.expect("tail must be classified torn");
        assert_eq!(torn.error, FrameError::Truncated);
        // The trimmed log accepts round 3 again and recovers it in full.
        wal3.append(&delivery(3)).unwrap();
        let mut disk3 = wal3.into_disk();
        disk3.as_any_mut().downcast_mut::<MemDisk>().unwrap().crash();
        let (_, rec2) = Wal::recover(disk3, DurabilityConfig::deterministic(1)).unwrap();
        assert_eq!(rec2.tip(), 4);
        assert!(rec2.torn.is_none());
    }

    #[test]
    fn checkpoint_truncates_and_recovery_uses_snapshot() {
        let mut cfg = DurabilityConfig::deterministic(1);
        cfg.segment_bytes = 64; // force rotation
        let mut wal = Wal::create(Box::new(MemDisk::new()), cfg.clone(), b"init").unwrap();
        for r in 0..6 {
            wal.append(&delivery(r)).unwrap();
        }
        assert!(wal.checkpoint(b"state-after-6").unwrap());
        assert_eq!(wal.snapshot_covers(), 6);
        for r in 6..9 {
            wal.append(&delivery(r)).unwrap();
        }
        let mut disk = wal.into_disk();
        disk.as_any_mut().downcast_mut::<MemDisk>().unwrap().crash();
        let (_, rec) = Wal::recover(disk, cfg).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"state-after-6"[..]));
        assert_eq!(rec.snapshot_covers, 6);
        assert_eq!(rec.suffix.iter().map(|d| d.round).collect::<Vec<_>>(), vec![6, 7, 8]);
    }

    #[test]
    fn checkpoint_under_suspended_sync_is_abandoned() {
        let mut wal = mem_wal(1);
        for r in 0..4 {
            wal.append(&delivery(r)).unwrap();
        }
        wal.disk_mut().as_any_mut().downcast_mut::<MemDisk>().unwrap().set_sync_suspended(true);
        assert!(!wal.checkpoint(b"not-durable").unwrap());
        assert_eq!(wal.snapshot_covers(), 0, "abandoned checkpoint must not truncate");
        let mut disk = wal.into_disk();
        disk.as_any_mut().downcast_mut::<MemDisk>().unwrap().crash();
        let (_, rec) = Wal::recover(disk, DurabilityConfig::deterministic(1)).unwrap();
        assert_eq!(rec.snapshot.as_deref(), Some(&b"init"[..]));
        assert_eq!(rec.tip(), 4, "synced rounds survive the failed checkpoint");
    }

    #[test]
    fn begin_epoch_resets_rounds_and_drops_old_files() {
        let mut wal = mem_wal(1);
        for r in 0..5 {
            wal.append(&delivery(r)).unwrap();
        }
        wal.begin_epoch(1, b"settled").unwrap();
        assert_eq!(wal.epoch(), 1);
        assert_eq!(wal.appended_rounds(), 0);
        wal.append(&delivery(0)).unwrap();
        let mut disk = wal.into_disk();
        disk.as_any_mut().downcast_mut::<MemDisk>().unwrap().crash();
        let (_, rec) = Wal::recover(disk, DurabilityConfig::deterministic(1)).unwrap();
        assert_eq!(rec.epoch, 1);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"settled"[..]));
        assert_eq!(rec.suffix.iter().map(|d| d.round).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn segment_rotation_spans_recovery() {
        let mut cfg = DurabilityConfig::deterministic(1);
        cfg.segment_bytes = 48; // a couple of frames per segment
        let mut wal = Wal::create(Box::new(MemDisk::new()), cfg.clone(), b"").unwrap();
        for r in 0..12 {
            wal.append(&delivery(r)).unwrap();
        }
        let mut disk = wal.into_disk();
        let mem = disk.as_any_mut().downcast_mut::<MemDisk>().unwrap();
        let segments = mem.list().unwrap().iter().filter(|n| n.starts_with("wal-")).count();
        assert!(segments > 1, "rotation must have produced multiple segments");
        mem.crash();
        let (_, rec) = Wal::recover(disk, cfg).unwrap();
        assert_eq!(rec.tip(), 12);
        assert_eq!(
            rec.suffix.iter().map(|d| d.round).collect::<Vec<_>>(),
            (0..12).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scrub_verifies_clean_log() {
        let mut cfg = DurabilityConfig::deterministic(1);
        cfg.segment_bytes = 48;
        let mut wal = Wal::create(Box::new(MemDisk::new()), cfg, b"init").unwrap();
        for r in 0..8 {
            wal.append(&delivery(r)).unwrap();
        }
        let report = wal.scrub().unwrap();
        assert_eq!(report.frames, 8);
        assert!(report.segments > 1, "rotation should have split the log");
        assert!(report.snapshot_ok);
        assert!(report.torn.is_none());
    }

    #[test]
    fn scrub_classifies_mid_log_rot() {
        let mut wal = mem_wal(1);
        for r in 0..6 {
            wal.append(&delivery(r)).unwrap();
        }
        // Flip one bit inside round 1's frame: acknowledged history
        // with valid frames after it — rot, not a torn tail.
        let name = segment_name(0, 0);
        let frame_len = {
            let mem = wal.disk_mut().as_any_mut().downcast_mut::<MemDisk>().unwrap();
            let len = mem.read(&name).unwrap().unwrap().len() / 6;
            assert!(mem.rot(&name, (len + 10) * 8));
            len
        };
        let err = wal.scrub().expect_err("rot must fail the scrub");
        let rot = rot_error(&err).expect("error must carry a typed MidLogRot");
        assert_eq!(rot.segment, name);
        assert_eq!(rot.offset, frame_len, "round 0 verified, rot found at round 1's frame");
        assert_eq!(rot.round, 1);
    }

    #[test]
    fn scrub_reports_torn_tail_without_trimming() {
        let mut wal = mem_wal(0);
        for r in 0..3 {
            wal.append(&delivery(r)).unwrap();
        }
        assert!(wal.sync().unwrap());
        wal.append(&delivery(3)).unwrap();
        let name = segment_name(0, 0);
        let (torn_len, full_len) = {
            let mem = wal.disk_mut().as_any_mut().downcast_mut::<MemDisk>().unwrap();
            let full = mem.read(&name).unwrap().unwrap().len();
            mem.tear(&name, 3);
            mem.crash();
            (mem.read(&name).unwrap().unwrap().len(), full)
        };
        assert!(torn_len < full_len);
        let report = wal.scrub().unwrap();
        assert_eq!(report.frames, 3);
        let torn = report.torn.expect("trailing partial frame is torn, not rot");
        assert_eq!(torn.error, FrameError::Truncated);
        // Read-only: the torn bytes are still on disk for recover().
        let mem = wal.disk_mut().as_any_mut().downcast_mut::<MemDisk>().unwrap();
        assert_eq!(mem.read(&name).unwrap().unwrap().len(), torn_len);
    }

    #[test]
    fn recover_refuses_to_trim_mid_log_rot() {
        let mut wal = mem_wal(1);
        for r in 0..6 {
            wal.append(&delivery(r)).unwrap();
        }
        let name = segment_name(0, 0);
        let mut disk = wal.into_disk();
        {
            let mem = disk.as_any_mut().downcast_mut::<MemDisk>().unwrap();
            let len = mem.read(&name).unwrap().unwrap().len();
            // Damage round 2's frame (well below the durable tail).
            assert!(mem.rot(&name, (len / 3) * 8 + 4));
            mem.crash();
        }
        let err = Wal::recover(disk, DurabilityConfig::deterministic(1))
            .expect_err("recovery must not silently truncate acknowledged rounds");
        let rot = rot_error(&err).expect("typed MidLogRot");
        assert_eq!(rot.segment, name);
        assert!(rot.round < 6);
    }

    #[test]
    fn recover_classifies_rot_in_non_final_segment() {
        let mut cfg = DurabilityConfig::deterministic(1);
        cfg.segment_bytes = 48; // a couple of frames per segment
        let mut wal = Wal::create(Box::new(MemDisk::new()), cfg.clone(), b"").unwrap();
        for r in 0..12 {
            wal.append(&delivery(r)).unwrap();
        }
        let mut disk = wal.into_disk();
        let first_segment = {
            let mem = disk.as_any_mut().downcast_mut::<MemDisk>().unwrap();
            let name = mem.list().unwrap().into_iter().find(|n| n.starts_with("wal-")).unwrap();
            // Hit the very first length header: even with the frame
            // structure destroyed, later segments prove this is rot.
            assert!(mem.rot(&name, 0));
            mem.crash();
            name
        };
        let err = Wal::recover(disk, cfg).expect_err("rot with later segments present");
        let rot = rot_error(&err).expect("typed MidLogRot");
        assert_eq!(rot.segment, first_segment);
        assert_eq!(rot.offset, 0);
    }

    #[test]
    fn out_of_order_append_rejected() {
        let mut wal = mem_wal(1);
        wal.append(&delivery(0)).unwrap();
        assert!(wal.append(&delivery(2)).is_err());
    }
}
