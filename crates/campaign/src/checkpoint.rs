//! The campaign checkpoint: a versioned, CRC-checked snapshot of which
//! shards have completed, written atomically so a crash can never leave a
//! torn file behind.
//!
//! # Format (version 3)
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"CMCK"
//!      4     2  format version (little-endian u16, = 3)
//!      6     2  reserved (0)
//!      8     4  payload length (LE u32)
//!     12     4  CRC-32 (IEEE) of the payload bytes
//!     16     n  payload
//! ```
//!
//! The payload is fixed-order little-endian:
//!
//! ```text
//! size         field
//!    8         campaign seed
//!    8         config fingerprint
//!    8         total shard count
//!    4         stream count s (≥ 1)
//! 16·s         merged bits, errors per stream (u64 each)
//!    4         done-bitmap length b = ceil(total / 8)
//!    b         done bitmap (one bit per shard)
//! ```
//!
//! A stream is one counter of a multi-point campaign such as the sensing
//! ROC grid; a single-point campaign has one. Every load re-derives the
//! CRC, so truncation and bit flips are *detected* — the supervisor then
//! recovers by restarting the campaign from scratch (sound, because
//! shard results are pure functions of the seed) instead of trusting
//! garbage counts.
//!
//! Images of the retired versions decode to
//! [`CheckpointError::UnsupportedVersion`]: version 1 (single-stream, no
//! stream-count field) and version 2 (a quarantine list of abandoned
//! shards after the counts and bitmap). The supervisor treats that like
//! detected corruption and restarts from scratch, which reproduces the
//! lost counts exactly.
//!
//! # Atomicity
//!
//! [`save_atomic`] writes the full image to `<path>.tmp`, fsyncs, then
//! renames over `path`. On POSIX the rename is atomic, so the committed
//! checkpoint is always either the previous complete snapshot or the new
//! one — a SIGKILL mid-write costs at most one chunk of progress, never
//! the file.

use comimo_dsp::crc::crc32;
use comimo_stbc::sim::BerResult;
use std::io::Write;
use std::path::Path;

/// File magic.
pub const MAGIC: [u8; 4] = *b"CMCK";
/// Current format version. Version 1 lacked per-stream counts and
/// version 2 carried a quarantine list; both are rejected as
/// [`CheckpointError::UnsupportedVersion`].
pub const VERSION: u16 = 3;
/// Header bytes before the payload.
const HEADER_LEN: usize = 16;

/// Why a checkpoint image failed to decode. Every variant is a clean
/// error — the decoder never panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// Shorter than the fixed header.
    TooShort,
    /// The magic bytes are wrong — not a checkpoint file.
    BadMagic,
    /// A version this build does not understand (stale or future).
    UnsupportedVersion(u16),
    /// The payload is shorter than the header promised (truncated file).
    Truncated {
        /// Bytes the header declared.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload CRC disagrees with the stored one (bit rot / flip).
    BadCrc {
        /// CRC stored in the header.
        stored: u32,
        /// CRC of the payload as read.
        computed: u32,
    },
    /// The payload passed the CRC but its fields are inconsistent
    /// (zero streams, wrong bitmap length, done bits past the last
    /// shard, trailing bytes).
    Malformed(&'static str),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooShort => write!(f, "checkpoint shorter than its header"),
            Self::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            Self::UnsupportedVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            Self::Truncated { expected, got } => {
                write!(f, "truncated checkpoint: {got} of {expected} payload bytes")
            }
            Self::BadCrc { stored, computed } => write!(
                f,
                "checkpoint CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::Malformed(what) => write!(f, "malformed checkpoint payload: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// The resumable state of a campaign: merged counts per stream plus
/// per-shard completion. A *stream* is one independently counted result
/// lane — one counter of a multi-point campaign such as the sensing ROC
/// grid; a classic single-point campaign has exactly one. Counts merge
/// by addition (commutative and associative over `u64`), which is what
/// makes the merged result independent of completion order — and
/// therefore of thread count and of where a previous run was killed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Simulation seed the campaign derives its shard streams from.
    pub seed: u64,
    /// Fingerprint of the campaign parameters (see
    /// [`fingerprint64`](crate::fingerprint64)); a resume with different
    /// parameters is rejected instead of silently merging apples into
    /// oranges.
    pub fingerprint: u64,
    /// Shards in the campaign's plan.
    pub total_shards: u64,
    /// Merged `bits`/`errors` of the completed shards, one entry per
    /// stream (length is the campaign's stream count, ≥ 1).
    pub counts: Vec<BerResult>,
    /// One bit per shard, set when the shard's counts are merged.
    done: Vec<u8>,
}

impl Checkpoint {
    /// A fresh checkpoint tracking `n_streams` independent count lanes,
    /// with no shard done.
    pub fn new(seed: u64, fingerprint: u64, total_shards: u64, n_streams: usize) -> Self {
        assert!(n_streams >= 1, "a campaign needs at least one stream");
        Self {
            seed,
            fingerprint,
            total_shards,
            counts: vec![BerResult { bits: 0, errors: 0 }; n_streams],
            done: vec![0u8; (total_shards as usize).div_ceil(8)],
        }
    }

    /// Number of independent count lanes this checkpoint tracks.
    pub fn n_streams(&self) -> usize {
        self.counts.len()
    }

    /// Whether `shard`'s counts are already merged.
    pub fn is_done(&self, shard: u64) -> bool {
        let (byte, bit) = (shard as usize / 8, shard as usize % 8);
        byte < self.done.len() && self.done[byte] & (1 << bit) != 0
    }

    /// Merges a completed shard's per-stream counts (one entry per
    /// stream, in stream order). Idempotence guard: merging a shard
    /// twice would double-count, so a second merge panics — the
    /// supervisor never offers a done shard for execution.
    pub fn mark_done(&mut self, shard: u64, counts: &[BerResult]) {
        assert!(shard < self.total_shards, "shard {shard} out of range");
        assert!(!self.is_done(shard), "shard {shard} merged twice");
        assert_eq!(
            counts.len(),
            self.n_streams(),
            "shard {shard} reported a wrong stream count"
        );
        self.done[shard as usize / 8] |= 1 << (shard as usize % 8);
        for (acc, c) in self.counts.iter_mut().zip(counts) {
            acc.bits += c.bits;
            acc.errors += c.errors;
        }
    }

    /// Number of completed shards.
    pub fn done_count(&self) -> u64 {
        self.done.iter().map(|b| u64::from(b.count_ones())).sum()
    }

    /// Whether every shard is done.
    pub fn is_complete(&self) -> bool {
        self.done_count() == self.total_shards
    }

    /// Shard labels still to run, ascending.
    pub fn pending(&self) -> Vec<u64> {
        (0..self.total_shards)
            .filter(|&s| !self.is_done(s))
            .collect()
    }

    /// Serialises to the version-3 image (header + CRC + payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(32 + 16 * self.counts.len() + self.done.len());
        payload.extend_from_slice(&self.seed.to_le_bytes());
        payload.extend_from_slice(&self.fingerprint.to_le_bytes());
        payload.extend_from_slice(&self.total_shards.to_le_bytes());
        payload.extend_from_slice(&(self.counts.len() as u32).to_le_bytes());
        for c in &self.counts {
            payload.extend_from_slice(&c.bits.to_le_bytes());
            payload.extend_from_slice(&c.errors.to_le_bytes());
        }
        payload.extend_from_slice(&(self.done.len() as u32).to_le_bytes());
        payload.extend_from_slice(&self.done);
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&payload).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a version-3 image, verifying magic, version, length and
    /// CRC before touching any field. Never panics on arbitrary bytes.
    pub fn decode(bytes: &[u8]) -> Result<Self, CheckpointError> {
        if bytes.len() < HEADER_LEN {
            return Err(CheckpointError::TooShort);
        }
        if bytes[0..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        // the reserved field must be zero; anything else is
        // header corruption (the CRC only covers the payload)
        if bytes[6] != 0 || bytes[7] != 0 {
            return Err(CheckpointError::Malformed("nonzero reserved header field"));
        }
        let declared = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
        let stored_crc = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
        let payload = &bytes[HEADER_LEN..];
        if payload.len() < declared {
            return Err(CheckpointError::Truncated {
                expected: declared,
                got: payload.len(),
            });
        }
        if payload.len() > declared {
            return Err(CheckpointError::Malformed("trailing bytes after payload"));
        }
        let computed = crc32(payload);
        if computed != stored_crc {
            return Err(CheckpointError::BadCrc {
                stored: stored_crc,
                computed,
            });
        }
        let mut r = Reader { buf: payload };
        let seed = r.u64()?;
        let fingerprint = r.u64()?;
        let total_shards = r.u64()?;
        let n_streams = r.u32()? as usize;
        if n_streams == 0 {
            return Err(CheckpointError::Malformed("zero streams"));
        }
        // every stream needs 16 payload bytes, so bound the allocation by
        // what is actually present before trusting the count
        if r.buf.len() < 16 * n_streams {
            return Err(CheckpointError::Malformed("payload field truncated"));
        }
        let mut counts = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let bits = r.u64()?;
            let errors = r.u64()?;
            counts.push(BerResult { bits, errors });
        }
        let bitmap_len = r.u32()? as usize;
        if bitmap_len != (total_shards as usize).div_ceil(8) {
            return Err(CheckpointError::Malformed("bitmap length mismatch"));
        }
        let done = r.bytes(bitmap_len)?.to_vec();
        // bits past total_shards must be zero, or done_count() lies
        if total_shards % 8 != 0 {
            if let Some(&last) = done.last() {
                if last >> (total_shards % 8) != 0 {
                    return Err(CheckpointError::Malformed("done bits past total_shards"));
                }
            }
        }
        if !r.buf.is_empty() {
            return Err(CheckpointError::Malformed("payload longer than its fields"));
        }
        Ok(Self {
            seed,
            fingerprint,
            total_shards,
            counts,
            done,
        })
    }
}

/// Bounds-checked little-endian payload reader.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.buf.len() < n {
            return Err(CheckpointError::Malformed("payload field truncated"));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.bytes(8)?;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.bytes(4)?;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }
}

/// Writes `bytes` to `path` atomically: full image to `<path>.tmp`,
/// fsync, rename. The committed file is never in a half-written state.
pub fn save_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = tmp_path(path);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

/// The sibling temp path `save_atomic` stages through.
pub fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Loads and decodes a checkpoint file.
pub fn load(path: &Path) -> Result<Checkpoint, LoadError> {
    let bytes = std::fs::read(path).map_err(LoadError::Io)?;
    Checkpoint::decode(&bytes).map_err(LoadError::Codec)
}

/// Why a checkpoint could not be loaded from disk.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read (missing, permissions, ...).
    Io(std::io::Error),
    /// The file was read but its bytes do not decode.
    Codec(CheckpointError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Io(e) => write!(f, "checkpoint read failed: {e}"),
            Self::Codec(e) => write!(f, "checkpoint decode failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ber(bits: u64, errors: u64) -> BerResult {
        BerResult { bits, errors }
    }

    #[test]
    fn roundtrip_basic() {
        let mut ck = Checkpoint::new(2013, 0xDEAD_BEEF, 37, 1);
        ck.mark_done(0, &[ber(100, 3)]);
        ck.mark_done(5, &[ber(100, 1)]);
        ck.mark_done(36, &[ber(50, 0)]);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.done_count(), 3);
        assert!(back.is_done(36) && !back.is_done(35));
        assert_eq!(back.counts, vec![ber(250, 4)]);
    }

    #[test]
    fn roundtrip_multi_stream() {
        let mut ck = Checkpoint::new(7, 8, 10, 3);
        assert_eq!(ck.n_streams(), 3);
        ck.mark_done(2, &[ber(10, 1), ber(20, 2), ber(30, 3)]);
        ck.mark_done(9, &[ber(10, 0), ber(20, 0), ber(30, 4)]);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(back, ck);
        assert_eq!(back.counts, vec![ber(20, 1), ber(40, 2), ber(60, 7)]);
    }

    #[test]
    #[should_panic(expected = "wrong stream count")]
    fn stream_count_mismatch_is_refused() {
        let mut ck = Checkpoint::new(1, 2, 3, 2);
        ck.mark_done(0, &[ber(1, 0)]);
    }

    #[test]
    fn retired_version_images_are_rejected_as_unsupported() {
        // a syntactically valid image stamped with each retired version
        let ck = Checkpoint::new(1, 2, 3, 1);
        for retired in [1u16, 2] {
            let mut image = ck.encode();
            image[4..6].copy_from_slice(&retired.to_le_bytes());
            assert_eq!(
                Checkpoint::decode(&image),
                Err(CheckpointError::UnsupportedVersion(retired))
            );
        }
    }

    #[test]
    fn pending_excludes_done() {
        let mut ck = Checkpoint::new(1, 2, 6, 1);
        ck.mark_done(1, &[ber(10, 0)]);
        ck.mark_done(4, &[ber(10, 0)]);
        assert_eq!(ck.pending(), vec![0, 2, 3, 5]);
        assert!(!ck.is_complete());
    }

    #[test]
    #[should_panic(expected = "merged twice")]
    fn double_merge_is_refused() {
        let mut ck = Checkpoint::new(1, 2, 3, 1);
        ck.mark_done(0, &[ber(10, 0)]);
        ck.mark_done(0, &[ber(10, 0)]);
    }

    #[test]
    fn save_is_atomic_and_loadable() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("comimo_ck_unit_{}.bin", std::process::id()));
        let ck = Checkpoint::new(9, 9, 100, 1);
        save_atomic(&path, &ck.encode()).unwrap();
        assert!(!tmp_path(&path).exists(), "temp file left behind");
        assert_eq!(load(&path).unwrap(), ck);
        std::fs::remove_file(&path).unwrap();
    }
}
