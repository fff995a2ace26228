//! The write-ahead log.
//!
//! Both the centralized engine's WFDB and each agent's AGDB persist state
//! transitions to an append-only log so a crashed node can forward-recover
//! (§2: the WFDB "provides the persistence necessary to facilitate forward
//! recovery in case of failure of the workflow engine").
//!
//! Record framing: `len: u32 | crc: u32 | payload: len bytes`, where `crc`
//! is the CRC-32 of the payload. A frame is built in place in one buffer
//! the log reuses (header reserved, record encoded behind it, header
//! patched) and handed to the store in one append. Recovery scans from the
//! start and stops at the first torn or corrupt record (the standard
//! ARIES-style torn-tail rule), returning every intact record in order.
//! Compaction ([`Wal::retain`]) drops whole frames in place and keeps the
//! others byte for byte, so the kept records recover exactly as written.

use crate::codec::{Decode, Encode};
use crate::crc::crc32;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

/// Backing medium for a log: an append-only byte sink that can be read back
/// in full.
///
/// Durability is split from appending so callers can group-commit: `append`
/// stages bytes in the store's write path, `flush` makes everything
/// appended so far durable. [`Wal::append`] pairs the two (one flush per
/// record); [`Wal::append_batch`] and the `append_nosync`/`flush` pair
/// amortize a single flush over many records.
pub trait LogStore {
    /// Append raw bytes; durable only after the next [`LogStore::flush`].
    fn append(&mut self, data: &[u8]) -> std::io::Result<()>;
    /// Make all appended bytes durable (e.g. `fdatasync`).
    fn flush(&mut self) -> std::io::Result<()>;
    /// Read the entire log contents.
    fn read_all(&self) -> std::io::Result<Vec<u8>>;
    /// Discard the entire log (used by checkpoint compaction: the caller
    /// rewrites the live suffix immediately after).
    fn truncate(&mut self) -> std::io::Result<()>;
    /// Keep the whole frames `keep` picks, in order, and drop the others
    /// byte for byte. Frames are self-delimiting, so nothing is re-encoded
    /// and no CRC is recomputed. `keep` sees each whole frame's ordinal, in
    /// log order; a torn tail is dropped with the frames not kept. Returns
    /// the number of frames kept.
    ///
    /// The default reads the log, truncates it and appends the kept frames
    /// in one write, so a crash between the truncate and the append loses
    /// the log; a store that must survive that overrides it.
    fn retain_frames(&mut self, keep: &mut dyn FnMut(usize) -> bool) -> std::io::Result<usize> {
        let raw = self.read_all()?;
        let mut kept = Vec::with_capacity(raw.len());
        let (mut at, mut n) = (0, 0);
        for k in 0.. {
            let Some(end) = frame_end(&raw, at) else {
                break;
            };
            if keep(k) {
                kept.extend_from_slice(&raw[at..end]);
                n += 1;
            }
            at = end;
        }
        self.truncate()?;
        self.append(&kept)?;
        self.flush()?;
        Ok(n)
    }
}

/// Where the frame starting at `at` ends: `8 + len` bytes on, as its
/// header says, read without checking the CRC. `None` if the bytes left
/// cannot hold it.
fn frame_end(raw: &[u8], at: usize) -> Option<usize> {
    let head = raw.get(at..at + 8)?;
    let len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes")) as usize;
    (at + 8).checked_add(len).filter(|end| *end <= raw.len())
}

/// In-memory store — the default under simulation, where "durability" means
/// surviving a simulated node crash (the store outlives the node's volatile
/// state).
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    data: Vec<u8>,
    fail_reads: bool,
}

impl MemStore {
    /// Fault injection: make every subsequent `read_all` fail, modelling a
    /// log device that is unreadable at recovery time. Tests use this to
    /// exercise the halted-node path of [`recover_for_node`].
    pub fn fail_reads(&mut self) {
        self.fail_reads = true;
    }
}

impl LogStore for MemStore {
    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.data.extend_from_slice(data);
        Ok(())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        if self.fail_reads {
            return Err(std::io::Error::other("injected log read failure"));
        }
        Ok(self.data.clone())
    }
    fn truncate(&mut self) -> std::io::Result<()> {
        self.data.clear();
        Ok(())
    }
    /// In place: kept frames slide down over the dropped ones, and the
    /// buffer keeps its capacity for the appends to come.
    fn retain_frames(&mut self, keep: &mut dyn FnMut(usize) -> bool) -> std::io::Result<usize> {
        let (mut read, mut write, mut n) = (0, 0, 0);
        for k in 0.. {
            let Some(end) = frame_end(&self.data, read) else {
                break;
            };
            if keep(k) {
                self.data.copy_within(read..end, write);
                write += end - read;
                n += 1;
            }
            read = end;
        }
        self.data.truncate(write);
        Ok(n)
    }
}

/// File-backed store for the live runtime.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: std::path::PathBuf,
}

impl FileStore {
    /// Open (creating if needed) the log file at `path`.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(FileStore { file, path })
    }
}

impl LogStore for FileStore {
    fn append(&mut self, data: &[u8]) -> std::io::Result<()> {
        self.file.write_all(data)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }
    fn read_all(&self) -> std::io::Result<Vec<u8>> {
        let mut f = File::open(&self.path)?;
        let mut out = Vec::new();
        f.read_to_end(&mut out)?;
        Ok(out)
    }
    fn truncate(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.sync_data()
    }
}

/// A typed write-ahead log of `R` records over any [`LogStore`].
///
/// ```
/// use crew_storage::{DbOp, InstanceStatus, Wal};
/// use crew_model::{InstanceId, SchemaId};
///
/// let mut wal: Wal<DbOp> = Wal::in_memory();
/// let instance = InstanceId::new(SchemaId(1), 1);
/// wal.append(&DbOp::StatusChanged { instance, status: InstanceStatus::Committed })
///     .unwrap();
/// wal.append(&DbOp::InstancePurged { instance }).unwrap();
/// let recovered = wal.recover().unwrap();
/// assert_eq!(recovered.len(), 2);
/// ```
pub struct Wal<R, S = MemStore> {
    store: S,
    /// Records in the log (recovery resets it to the scan count, retention
    /// to the kept count).
    appended: u64,
    /// Reused by every append, so framing a record allocates nothing once
    /// the buffer has grown to the largest frame seen.
    frame: BytesMut,
    _marker: std::marker::PhantomData<fn() -> R>,
}

impl<R: Encode + Decode> Wal<R, MemStore> {
    /// A fresh in-memory log.
    pub fn in_memory() -> Self {
        Wal::with_store(MemStore::default())
    }
}

impl<R: Encode + Decode, S: LogStore> Wal<R, S> {
    /// Build over a specific backing store.
    pub fn with_store(store: S) -> Self {
        Wal {
            store,
            appended: 0,
            frame: BytesMut::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Append `record`'s frame to `frame` in one pass: reserve the 8-byte
    /// header, let the record encode itself in place behind it, then patch
    /// `len` and `crc` into the header.
    fn encode_frame(record: &impl Encode, frame: &mut BytesMut) {
        let head = frame.len();
        frame.put_slice(&[0; 8]);
        record.encode(frame);
        let payload = &frame[head + 8..];
        let (len, crc) = (payload.len() as u32, crc32(payload));
        frame[head..head + 4].copy_from_slice(&len.to_le_bytes());
        frame[head + 4..head + 8].copy_from_slice(&crc.to_le_bytes());
    }

    /// Append one record durably (one flush per record).
    pub fn append(&mut self, record: &R) -> std::io::Result<()> {
        self.append_view(record)
    }

    /// [`Wal::append`] from a borrowed view of the record: `view` must
    /// encode to exactly the bytes `R::decode` reads back as the record
    /// meant, as `ChanRec<&M>` does for `ChanRec<M>`. Lets a caller that
    /// holds only `&M` log a record around it without cloning `M`.
    pub fn append_view(&mut self, view: &impl Encode) -> std::io::Result<()> {
        self.stage(view)?;
        self.store.flush()
    }

    /// Append one record without flushing. The record is durable only
    /// after the next [`Wal::flush`] (or a durable append); callers must
    /// not act on it externally before then — the engine's group commit
    /// flushes once per delivered message, before its outputs leave the
    /// node.
    pub fn append_nosync(&mut self, record: &R) -> std::io::Result<()> {
        self.stage(record)
    }

    fn stage(&mut self, record: &impl Encode) -> std::io::Result<()> {
        self.frame.clear();
        Self::encode_frame(record, &mut self.frame);
        self.store.append(&self.frame)?;
        self.appended += 1;
        Ok(())
    }

    /// Make every appended record durable.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.store.flush()
    }

    /// Group commit: encode all `records` into one contiguous buffer,
    /// append it with a single store write and make it durable with a
    /// single flush — one `sync_data` per batch instead of per record.
    /// Returns the number of records appended. Items are `&R` or, as for
    /// [`Wal::append_view`], views that encode to a record's exact bytes.
    pub fn append_batch(
        &mut self,
        records: impl IntoIterator<Item = impl Encode>,
    ) -> std::io::Result<usize> {
        self.frame.clear();
        let mut n = 0usize;
        for record in records {
            Self::encode_frame(&record, &mut self.frame);
            n += 1;
        }
        if n == 0 {
            return Ok(0);
        }
        self.store.append(&self.frame)?;
        self.store.flush()?;
        self.appended += n as u64;
        Ok(n)
    }

    /// Discard the whole log and reset the append counter. Used by
    /// checkpoint compaction, which rewrites the live suffix right after.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.store.truncate()?;
        self.appended = 0;
        Ok(())
    }

    /// Keep the records `keep` picks by ordinal (0 is the oldest in the
    /// log), in order, and drop the rest byte for byte
    /// ([`LogStore::retain_frames`]). Returns how many were dropped;
    /// [`Wal::appended`] then counts the records kept.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) -> std::io::Result<u64> {
        let mut seen = 0;
        let kept = self.store.retain_frames(&mut |k| {
            seen = k + 1;
            keep(k)
        })?;
        self.appended = kept as u64;
        Ok((seen - kept) as u64)
    }

    /// Number of records in the log as this handle knows it: appended since
    /// creation, set to the scan count by [`Wal::recover`] and to the kept
    /// count by [`Wal::retain`].
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Scan the log and return every intact record in append order. A torn
    /// or corrupt tail terminates the scan silently (those writes were not
    /// acknowledged); a corrupt record *followed by* intact data is still
    /// treated as end-of-log, which is safe because appends are sequential.
    pub fn recover(&mut self) -> std::io::Result<Vec<R>> {
        Ok(self.scan()?.records)
    }

    /// The one recovery scan: frames are taken off the front of the log
    /// while length, CRC and payload decoding all hold.
    fn scan(&mut self) -> std::io::Result<RecoveryReport<R>> {
        let raw = self.store.read_all()?;
        let total = raw.len();
        let mut intact = 0;
        let mut buf = Bytes::from(raw);
        let mut records = Vec::new();
        while buf.remaining() >= 8 {
            let len = buf.get_u32_le() as usize;
            let crc = buf.get_u32_le();
            if buf.remaining() < len {
                break; // torn tail
            }
            let mut payload = buf.split_to(len);
            if crc32(&payload) != crc {
                break; // corrupt record: stop at last consistent prefix
            }
            match R::decode(&mut payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            intact += 8 + len;
        }
        self.appended = records.len() as u64;
        Ok(RecoveryReport {
            records,
            truncated: intact != total,
        })
    }

    /// The underlying store (tests read the log image through this).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Access the underlying store (tests inject corruption through this).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }
}

/// Recovery helper: the result of a recovery scan plus diagnostics.
#[derive(Debug)]
pub struct RecoveryReport<R> {
    /// Intact records, in order.
    pub records: Vec<R>,
    /// Whether the scan stopped early (torn/corrupt tail detected).
    pub truncated: bool,
}

/// Like [`Wal::recover`], but reporting whether a tail was dropped.
pub fn recover_with_report<R: Encode + Decode, S: LogStore>(
    wal: &mut Wal<R, S>,
) -> std::io::Result<RecoveryReport<R>> {
    wal.scan()
}

/// Node-side recovery that degrades instead of panicking: `None` means the
/// log could not be read, in which case the node should go *silent*
/// (fail-stop becomes fail-silent) rather than take down the whole run.
/// Both the distributed agents and the central/parallel engines recover
/// through this path, so a broken log surfaces as a halted-node outcome —
/// dependants stall, the harness's bounded horizon ends the run, and
/// unaffected instances still commit.
pub fn recover_for_node<R: Encode + Decode, S: LogStore>(wal: &mut Wal<R, S>) -> Option<Vec<R>> {
    wal.recover().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::CodecError;
    use crew_model::{InstanceId, SchemaId, Value};

    #[derive(Debug, Clone, PartialEq)]
    struct Rec {
        instance: InstanceId,
        note: String,
        value: Value,
    }

    impl Encode for Rec {
        fn encode(&self, buf: &mut BytesMut) {
            self.instance.encode(buf);
            self.note.encode(buf);
            self.value.encode(buf);
        }
    }
    impl Decode for Rec {
        fn decode(buf: &mut Bytes) -> Result<Self, CodecError> {
            Ok(Rec {
                instance: InstanceId::decode(buf)?,
                note: String::decode(buf)?,
                value: Value::decode(buf)?,
            })
        }
    }

    fn rec(n: u32) -> Rec {
        Rec {
            instance: InstanceId::new(SchemaId(1), n),
            note: format!("step {n}"),
            value: Value::Int(n as i64),
        }
    }

    #[test]
    fn append_and_recover() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        for n in 0..10 {
            wal.append(&rec(n)).unwrap();
        }
        assert_eq!(wal.appended(), 10);
        let back = wal.recover().unwrap();
        assert_eq!(back.len(), 10);
        assert_eq!(back[3], rec(3));
    }

    #[test]
    fn torn_tail_dropped() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        wal.append(&rec(1)).unwrap();
        wal.append(&rec(2)).unwrap();
        // Simulate a torn final write: half a frame.
        wal.store_mut().append(&[5, 0, 0, 0, 1, 2]).unwrap();
        let report = recover_with_report(&mut wal).unwrap();
        assert_eq!(report.records.len(), 2);
        assert!(report.truncated);
    }

    #[test]
    fn corrupt_payload_stops_scan() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        wal.append(&rec(1)).unwrap();
        // Flip a payload byte of a fully-framed record.
        let mut second = BytesMut::new();
        let payload = rec(2).to_bytes();
        second.put_u32_le(payload.len() as u32);
        second.put_u32_le(crc32(&payload) ^ 1); // wrong crc
        second.put_slice(&payload);
        wal.store_mut().append(&second).unwrap();
        wal.append(&rec(3)).unwrap(); // intact but after the corruption
        let back = wal.recover().unwrap();
        assert_eq!(back, vec![rec(1)]);
    }

    #[test]
    fn empty_log_recovers_empty() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        assert!(wal.recover().unwrap().is_empty());
        assert_eq!(wal.appended(), 0);
    }

    #[test]
    fn unreadable_log_recovers_none() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        wal.append(&rec(1)).unwrap();
        wal.store_mut().fail_reads();
        assert!(wal.recover().is_err());
        assert!(recover_for_node(&mut wal).is_none());
    }

    /// A scratch directory under the workspace's `target/`, removed in full
    /// on drop — earlier versions of these tests removed only the log file
    /// and leaked the directory.
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../target/tmp")
                .join(format!("crew-wal-test-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
        fn path(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn file_store_round_trips() {
        let dir = TempDir::new("roundtrip");
        let path = dir.path("agent.wal");
        {
            let mut wal: Wal<Rec, FileStore> = Wal::with_store(FileStore::open(&path).unwrap());
            wal.append(&rec(7)).unwrap();
            wal.append(&rec(8)).unwrap();
        }
        let mut wal: Wal<Rec, FileStore> = Wal::with_store(FileStore::open(&path).unwrap());
        let back = wal.recover().unwrap();
        assert_eq!(back, vec![rec(7), rec(8)]);
    }

    #[test]
    fn batch_append_round_trips_and_counts() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        let records: Vec<Rec> = (0..5).map(rec).collect();
        assert_eq!(wal.append_batch(&records).unwrap(), 5);
        assert_eq!(wal.append_batch(std::iter::empty::<&Rec>()).unwrap(), 0);
        assert_eq!(wal.appended(), 5);
        assert_eq!(wal.recover().unwrap(), records);
    }

    #[test]
    fn batch_and_per_record_appends_are_byte_identical() {
        let records: Vec<Rec> = (0..4).map(rec).collect();
        let mut one: Wal<Rec> = Wal::in_memory();
        for r in &records {
            one.append(r).unwrap();
        }
        let mut batched: Wal<Rec> = Wal::in_memory();
        batched.append_batch(&records).unwrap();
        assert_eq!(
            one.store_mut().read_all().unwrap(),
            batched.store_mut().read_all().unwrap(),
            "group commit changes flush boundaries, never the log bytes"
        );
    }

    #[test]
    fn file_store_torn_batch_recovers_last_consistent_prefix() {
        // Crash-shaped: a group-committed batch whose tail write was torn
        // (the handle dropped mid-batch, the device kept a byte prefix)
        // must recover to the last consistent record prefix.
        let dir = TempDir::new("torn-batch");
        let path = dir.path("engine.wal");
        {
            let mut wal: Wal<Rec, FileStore> = Wal::with_store(FileStore::open(&path).unwrap());
            wal.append_batch((0..3).map(rec).collect::<Vec<_>>().iter())
                .unwrap();
            // Second batch starts going out and the node dies mid-write:
            // drop the handle after truncating inside the batch's last
            // record frame.
            wal.append_batch((3..6).map(rec).collect::<Vec<_>>().iter())
                .unwrap();
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(full_len - 5)
            .unwrap();
        let mut wal: Wal<Rec, FileStore> = Wal::with_store(FileStore::open(&path).unwrap());
        let report = recover_with_report(&mut wal).unwrap();
        assert_eq!(
            report.records,
            (0..5).map(rec).collect::<Vec<_>>(),
            "intact records survive; the torn final record is dropped"
        );
        assert!(report.truncated);
        // The log stays appendable after the torn tail... but recovery
        // semantics (scan stops at first tear) mean the torn bytes must be
        // discarded before new appends. reset() models the rewrite.
        wal.reset().unwrap();
        assert_eq!(wal.appended(), 0);
        wal.append(&rec(9)).unwrap();
        assert_eq!(wal.recover().unwrap(), vec![rec(9)]);
    }

    #[test]
    fn reset_empties_the_log() {
        let mut wal: Wal<Rec> = Wal::in_memory();
        wal.append(&rec(1)).unwrap();
        wal.append(&rec(2)).unwrap();
        wal.reset().unwrap();
        assert_eq!(wal.appended(), 0);
        assert!(wal.recover().unwrap().is_empty());
    }

    /// Retention keeps the picked frames in order and byte for byte — the
    /// image of a log that only ever held them — and recovery reads them
    /// back; records appended after it land behind them, and a torn tail
    /// appended after that still stops the scan at the last intact record.
    fn retention_keeps_the_picked_frames<S: LogStore>(mut wal: Wal<Rec, S>) {
        for n in 0..10 {
            wal.append(&rec(n)).unwrap();
        }
        assert_eq!(wal.retain(|k| k % 3 == 0).unwrap(), 6, "dropped");
        assert_eq!(wal.appended(), 4, "kept");
        let mut kept: Vec<Rec> = [0, 3, 6, 9].map(rec).to_vec();
        let mut only_kept: Wal<Rec> = Wal::in_memory();
        only_kept.append_batch(&kept).unwrap();
        assert_eq!(
            wal.store().read_all().unwrap(),
            only_kept.store().read_all().unwrap()
        );
        assert_eq!(wal.recover().unwrap(), kept);

        wal.append(&rec(10)).unwrap();
        kept.push(rec(10));
        wal.store_mut().append(&[5, 0, 0, 0, 1, 2]).unwrap();
        let report = recover_with_report(&mut wal).unwrap();
        assert_eq!(report.records, kept);
        assert!(report.truncated, "the torn tail is still seen");

        // The torn tail is no whole frame: retention drops it uncounted.
        assert_eq!(wal.retain(|k| k != 0).unwrap(), 1);
        let report = recover_with_report(&mut wal).unwrap();
        assert_eq!(report.records, kept[1..]);
        assert!(!report.truncated);
        assert_eq!(wal.retain(|_| false).unwrap(), 4);
        assert_eq!(wal.appended(), 0);
        assert!(wal.recover().unwrap().is_empty());
    }

    #[test]
    fn mem_store_retention_keeps_the_picked_frames() {
        retention_keeps_the_picked_frames(Wal::<Rec>::in_memory());
    }

    #[test]
    fn file_store_retention_keeps_the_picked_frames() {
        let dir = TempDir::new("retain");
        let store = FileStore::open(dir.path("engine.wal")).unwrap();
        retention_keeps_the_picked_frames(Wal::<Rec, FileStore>::with_store(store));
    }
}
