//! Crash-safe chain checkpoints: a hand-rolled binary codec with a
//! framed, checksummed file format.
//!
//! A checkpoint file is
//!
//! ```text
//! magic (8 bytes) | version (u32) | payload_len (u64) | payload | fnv1a-64
//! ```
//!
//! where the trailing checksum covers everything before it. Files are
//! written through [`obs::write_atomic`] (temp file + rename), so a crash
//! mid-write leaves the *previous* checkpoint intact; a file truncated or
//! corrupted at any byte fails [`read_frame`] with a typed
//! [`CheckpointError`] instead of producing a wrong resume.
//!
//! The payload codec ([`Writer`]/[`Reader`]) is deliberately primitive:
//! little-endian fixed-width scalars and length-prefixed vectors, no
//! self-description. Bit-exact round-tripping of `f64` is the point —
//! resumed chains must reproduce the uninterrupted run draw for draw, so
//! sampler caches are stored exactly as they were, never recomputed.

use std::fmt;
use std::path::Path;

/// File magic: identifies a chain checkpoint.
pub const MAGIC: [u8; 8] = *b"RFDCKPT\0";

/// Current format version.
///
/// * v1 — initial format (config echo, RNG state, flat draws, kernel
///   state).
/// * v2 — adds per-draw trajectory energies and divergent-draw marks
///   between the flat draws and the kernel state (and the HMC kernel
///   payload gained its `last_energy`). v1 files are rejected with
///   [`CheckpointError::BadVersion`]; the affected chain restarts fresh.
/// * v3 — the HMC kernel payload counts log-posterior evaluations (one
///   per trajectory) and gradient evaluations (one per leapfrog step)
///   separately, where v2 stored one shared counter. Older files are
///   rejected with [`CheckpointError::BadVersion`].
pub const VERSION: u32 = 3;

/// Typed checkpoint failure.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// Unknown format version.
    BadVersion(u32),
    /// The file ends before the declared payload + checksum.
    Truncated,
    /// The trailing FNV-1a checksum does not match the bytes.
    BadChecksum,
    /// Structurally valid but inconsistent with the running configuration
    /// (wrong kernel, dimension, chain settings, …).
    Mismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::Truncated => write!(f, "checkpoint file truncated"),
            CheckpointError::BadChecksum => write!(f, "checkpoint checksum mismatch"),
            CheckpointError::Mismatch(why) => write!(f, "checkpoint mismatch: {why}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// A sampler whose full kernel state (position, adaptation, caches,
/// counters) can be serialized and restored bit-exactly.
///
/// Contract: construct the sampler through its normal path first (so
/// borrowed data and buffer sizes are right), then `restore_sampler`
/// overwrites every piece of mutable state. After a restore, stepping the
/// sampler with the saved RNG state must reproduce the original run's
/// remaining draws exactly.
pub trait Checkpointable: crate::chain::Sampler {
    /// Append the full kernel state to `w`.
    fn save_sampler(&self, w: &mut Writer);

    /// Overwrite the kernel state from `r`.
    fn restore_sampler(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError>;
}

/// FNV-1a over a byte slice (64-bit).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only payload encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty payload.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Encoded payload bytes so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }

    /// Append a length-prefixed `u32` slice.
    pub fn u32_slice(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Append a length-prefixed `usize` slice (as `u64`s).
    pub fn usize_slice(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
}

/// Sequential payload decoder over a borrowed buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Decode from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read a `usize` stored as `u64`.
    pub fn usize(&mut self) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| CheckpointError::Mismatch(format!("length {v} overflows")))
    }

    /// Read an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool`.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        Ok(self.u8()? != 0)
    }

    /// Read a length-prefixed `f64` vector, bounded by the remaining
    /// bytes (a corrupt length cannot trigger a huge allocation).
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, CheckpointError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(CheckpointError::Truncated);
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Read a length-prefixed `u32` vector.
    pub fn u32_vec(&mut self) -> Result<Vec<u32>, CheckpointError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(4) {
            return Err(CheckpointError::Truncated);
        }
        (0..n)
            .map(|_| {
                let b = self.take(4)?;
                Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
            })
            .collect()
    }

    /// Read a length-prefixed `usize` vector.
    pub fn usize_vec(&mut self) -> Result<Vec<usize>, CheckpointError> {
        let n = self.usize()?;
        if self.remaining() < n.saturating_mul(8) {
            return Err(CheckpointError::Truncated);
        }
        (0..n).map(|_| self.usize()).collect()
    }
}

/// Frame a payload (magic + version + length + payload + checksum) and
/// write it atomically to `path`.
pub fn write_frame(path: &Path, payload: &[u8]) -> Result<(), CheckpointError> {
    let mut frame = Vec::with_capacity(MAGIC.len() + 12 + payload.len() + 8);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&VERSION.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    frame.extend_from_slice(payload);
    let checksum = fnv1a(&frame);
    frame.extend_from_slice(&checksum.to_le_bytes());
    obs::write_atomic(path, &frame)?;
    Ok(())
}

/// Read and verify a framed checkpoint, returning the payload bytes.
///
/// Every failure mode — missing file, short header, truncated payload,
/// flipped bit anywhere — maps to a typed [`CheckpointError`]; this
/// function never returns payload bytes that did not pass the checksum.
pub fn read_frame(path: &Path) -> Result<Vec<u8>, CheckpointError> {
    let bytes = std::fs::read(path)?;
    let header_len = MAGIC.len() + 4 + 8;
    if bytes.len() < header_len + 8 {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        return Err(CheckpointError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != VERSION {
        return Err(CheckpointError::BadVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let expect_total = header_len + payload_len + 8;
    if bytes.len() < expect_total {
        return Err(CheckpointError::Truncated);
    }
    if bytes.len() > expect_total {
        return Err(CheckpointError::Mismatch(format!(
            "{} trailing bytes after frame",
            bytes.len() - expect_total
        )));
    }
    let body = &bytes[..header_len + payload_len];
    let stored = u64::from_le_bytes(bytes[header_len + payload_len..].try_into().expect("8"));
    if fnv1a(body) != stored {
        return Err(CheckpointError::BadChecksum);
    }
    Ok(bytes[header_len..header_len + payload_len].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("because-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn scalars_and_vectors_round_trip_exactly() {
        let mut w = Writer::new();
        w.u8(7);
        w.u64(u64::MAX);
        w.usize(42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.f64(1.0 / 3.0);
        w.bool(true);
        w.f64_slice(&[1.5, -2.25, f64::INFINITY]);
        w.u32_slice(&[0, u32::MAX, 17]);
        w.usize_slice(&[3, 1, 4]);

        let bytes = w.as_bytes().to_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), 1.0 / 3.0);
        assert!(r.bool().unwrap());
        assert_eq!(r.f64_vec().unwrap(), vec![1.5, -2.25, f64::INFINITY]);
        assert_eq!(r.u32_vec().unwrap(), vec![0, u32::MAX, 17]);
        assert_eq!(r.usize_vec().unwrap(), vec![3, 1, 4]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_reports_truncation_not_panic() {
        let mut w = Writer::new();
        w.f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.as_bytes();
        // Every strict prefix must fail cleanly.
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(
                matches!(r.f64_vec(), Err(CheckpointError::Truncated)),
                "prefix {cut} did not report truncation"
            );
        }
    }

    #[test]
    fn frame_round_trips_through_disk() {
        let path = tmp_path("frame");
        let payload = b"the quick brown fox \x00\x01\x02";
        write_frame(&path, payload).unwrap();
        assert_eq!(read_frame(&path).unwrap(), payload);
        std::fs::remove_file(&path).unwrap();
    }

    /// The kill-mid-checkpoint regression: a frame truncated at ANY byte
    /// must yield a typed error, never a successful read of wrong bytes.
    #[test]
    fn frame_truncated_at_every_byte_fails_cleanly() {
        let path = tmp_path("trunc");
        let payload: Vec<u8> = (0..=255u8).collect();
        write_frame(&path, &payload).unwrap();
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            match read_frame(&path) {
                Err(
                    CheckpointError::Truncated
                    | CheckpointError::BadMagic
                    | CheckpointError::BadChecksum,
                ) => {}
                other => panic!("cut at {cut}: expected clean error, got {other:?}"),
            }
        }
        // And the intact file still reads.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(read_frame(&path).unwrap(), payload);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_byte_anywhere_fails_checksum() {
        let path = tmp_path("flip");
        write_frame(&path, b"payload bytes").unwrap();
        let full = std::fs::read(&path).unwrap();
        for i in 0..full.len() {
            let mut bad = full.clone();
            bad[i] ^= 0x40;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                read_frame(&path).is_err(),
                "flipping byte {i} went undetected"
            );
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_version_2_file_is_rejected_as_bad_version() {
        let path = tmp_path("v2");
        write_frame(&path, b"x").unwrap();
        // A well-formed v2 frame: version field and checksum rewritten.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 8);
        bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
        let checksum = fnv1a(&bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_frame(&path),
            Err(CheckpointError::BadVersion(2))
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn wrong_version_and_missing_file_are_typed() {
        let path = tmp_path("version");
        write_frame(&path, b"x").unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8] = 99; // version field
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_frame(&path),
            // The checksum covers the version field, so either error is a
            // correct rejection; version is checked first.
            Err(CheckpointError::BadVersion(_))
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(read_frame(&path), Err(CheckpointError::Io(_))));
    }
}
