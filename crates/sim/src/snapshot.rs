//! Versioned, checksummed on-disk containers for simulator artifacts.
//!
//! Persistent result-cache entries, fault reproducers and latency
//! histograms all share one container format so every consumer gets
//! the same guarantees:
//!
//! * **Versioning** — an 8-byte magic plus a format version and a
//!   payload-kind tag, so a reader can reject foreign files, files from
//!   a different format revision, and payloads of the wrong kind with a
//!   typed error instead of misparsing them.
//! * **Integrity** — a trailing [`StableHasher`] checksum over the
//!   header and payload. Torn writes (power loss, `kill -9` mid-write)
//!   and bit flips surface as [`SnapshotError::Checksum`] or
//!   [`SnapshotError::Truncated`], never as garbage data.
//! * **Atomicity** — [`write_atomic`] writes to a temporary file in the
//!   target directory and `rename`s it into place, so concurrent
//!   readers only ever observe either the old bytes or the new bytes.
//!
//! Payloads are encoded with the explicit little-endian [`ByteWriter`]/
//! [`ByteReader`] pair rather than any derive-based serializer: the
//! byte layout is part of the on-disk format contract and must never
//! change silently with a library upgrade.

use crate::hash::StableHasher;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The container magic: identifies a file as a dsm snapshot container.
pub const MAGIC: [u8; 8] = *b"DSMSNAP\0";

/// The current container format version. Bump on any layout change;
/// readers reject other versions with [`SnapshotError::BadVersion`].
///
/// Version history: v1 = initial container; v2 = cache-entry payloads
/// carry a per-job latency histogram and the standalone `Histogram`
/// payload kind exists; v3 = job encodings carry the protocol-variant
/// fields (proto, clusters, cluster penalty, home atomics); v4 = cache
/// entries and reproducers carry the run environment's key (faults,
/// paranoid checking, protocol spec) after the job encoding. Old entries
/// surface as `BadVersion`, get quarantined by their consumers, and are
/// regenerated deterministically.
pub const FORMAT_VERSION: u32 = 4;

/// What a container's payload encodes. Stored in the header so a
/// reproducer can never be misread as a cache entry or vice versa.
///
/// Tag 1 is reserved: it belonged to a retired machine-checkpoint kind,
/// and a container carrying it reads as an unknown kind
/// ([`SnapshotError::BadKind`]). The other tags never change, so
/// existing files stay readable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// A persistent result-cache entry: job key + encoded result.
    CacheEntry,
    /// A minimized fault-schedule reproducer.
    Reproducer,
    /// A standalone log-bucketed latency histogram (`dsm-stats`).
    Histogram,
}

impl PayloadKind {
    fn tag(self) -> u32 {
        match self {
            PayloadKind::CacheEntry => 2,
            PayloadKind::Reproducer => 3,
            PayloadKind::Histogram => 4,
        }
    }

    /// A short human-readable name (used in error messages).
    pub fn label(self) -> &'static str {
        match self {
            PayloadKind::CacheEntry => "cache entry",
            PayloadKind::Reproducer => "reproducer",
            PayloadKind::Histogram => "latency histogram",
        }
    }
}

/// Why a container could not be read (or a payload decoded).
///
/// Every variant is a *recoverable* condition: callers quarantine or
/// regenerate the artifact instead of panicking.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// The file does not start with the container magic.
    BadMagic,
    /// The container was written by a different format revision.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The payload-kind tag does not match what the caller asked for.
    BadKind {
        /// Kind tag found in the file (raw, possibly unknown).
        found: u32,
        /// The kind the caller expected.
        expected: PayloadKind,
    },
    /// The file ends before the declared payload + checksum (torn write).
    Truncated,
    /// The trailing checksum does not match the stored bytes (bit rot
    /// or a torn overwrite).
    Checksum {
        /// Checksum stored in the file.
        stored: u64,
        /// Checksum computed from the file's bytes.
        computed: u64,
    },
    /// The payload decoded to something structurally invalid.
    Malformed(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::BadMagic => write!(f, "not a dsm snapshot container (bad magic)"),
            SnapshotError::BadVersion { found, expected } => {
                write!(
                    f,
                    "container format version {found}, reader expects {expected}"
                )
            }
            SnapshotError::BadKind { found, expected } => {
                write!(
                    f,
                    "container holds payload kind {found}, expected a {}",
                    expected.label()
                )
            }
            SnapshotError::Truncated => write!(f, "container is truncated (torn write?)"),
            SnapshotError::Checksum { stored, computed } => write!(
                f,
                "checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

fn checksum(version: u32, kind_tag: u32, payload: &[u8]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str("dsm-snapshot-container");
    h.write_u32(version);
    h.write_u32(kind_tag);
    h.write_bytes(payload);
    h.finish()
}

/// Serializes a container to bytes (magic, version, kind, length,
/// payload, checksum — all integers little-endian).
pub fn to_bytes(kind: PayloadKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 32);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&checksum(FORMAT_VERSION, kind.tag(), payload).to_le_bytes());
    out
}

/// Parses and verifies a container, returning the payload bytes.
///
/// # Errors
///
/// Returns the first integrity violation found: bad magic, foreign
/// version, wrong payload kind, truncation, or checksum mismatch.
pub fn from_bytes(bytes: &[u8], kind: PayloadKind) -> Result<Vec<u8>, SnapshotError> {
    let take = |at: usize, n: usize| -> Result<&[u8], SnapshotError> {
        bytes.get(at..at + n).ok_or(SnapshotError::Truncated)
    };
    if bytes.len() < MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let u32_at = |at: usize| -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            take(at, 4)?.try_into().expect("4 bytes"),
        ))
    };
    let version = u32_at(8)?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let kind_tag = u32_at(12)?;
    if kind_tag != kind.tag() {
        return Err(SnapshotError::BadKind {
            found: kind_tag,
            expected: kind,
        });
    }
    let len = u64::from_le_bytes(take(16, 8)?.try_into().expect("8 bytes")) as usize;
    let payload = take(24, len)?;
    let stored = u64::from_le_bytes(take(24 + len, 8)?.try_into().expect("8 bytes"));
    // Trailing garbage after the checksum also fails verification: the
    // file is not the container that was written.
    if bytes.len() != 24 + len + 8 {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after checksum",
            bytes.len() - (24 + len + 8)
        )));
    }
    let computed = checksum(version, kind_tag, payload);
    if stored != computed {
        return Err(SnapshotError::Checksum { stored, computed });
    }
    Ok(payload.to_vec())
}

/// Writes a container to `path` atomically: the bytes go to a
/// temporary file in the same directory, which is then renamed into
/// place, so a reader never observes a half-written container under
/// the final name (the rename is atomic on POSIX filesystems).
///
/// # Errors
///
/// Returns any underlying filesystem error (the temporary file is
/// removed on failure).
pub fn write_atomic(path: &Path, kind: PayloadKind, payload: &[u8]) -> Result<(), SnapshotError> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&to_bytes(kind, payload))?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Reads and verifies a container from `path`, returning the payload.
///
/// # Errors
///
/// Returns [`SnapshotError::Io`] if the file cannot be read, otherwise
/// any integrity violation from [`from_bytes`].
pub fn read(path: &Path, kind: PayloadKind) -> Result<Vec<u8>, SnapshotError> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    from_bytes(&bytes, kind)
}

/// Moves a corrupt or unreadable artifact into a `quarantined/`
/// subdirectory next to it (creating the directory if needed), so the
/// bad bytes stay available for diagnosis but are never read again.
/// Returns the quarantined path.
///
/// # Errors
///
/// Returns any underlying filesystem error.
pub fn quarantine(path: &Path) -> Result<PathBuf, std::io::Error> {
    let dir = path
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .map_or_else(|| PathBuf::from("quarantined"), |p| p.join("quarantined"));
    std::fs::create_dir_all(&dir)?;
    let name = path
        .file_name()
        .ok_or_else(|| std::io::Error::other("quarantine target has no file name"))?;
    let mut dest = dir.join(name);
    // Keep every generation of bad bytes: disambiguate on collision.
    let mut n = 0u32;
    while dest.exists() {
        n += 1;
        let mut with_n = name.to_owned();
        with_n.push(format!(".{n}"));
        dest = dir.join(with_n);
    }
    std::fs::rename(path, &dest)?;
    Ok(dest)
}

/// An explicit little-endian payload encoder.
///
/// The encoding is part of the on-disk format: every integer is
/// little-endian, floats are IEEE-754 bit patterns, strings and byte
/// blobs are length-prefixed. [`ByteReader`] is the exact inverse.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (round-trips
    /// exactly, including NaN payloads).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed byte blob.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }
}

/// The decoding counterpart of [`ByteWriter`].
///
/// Every accessor returns a typed [`SnapshotError`] on underrun or
/// invalid data instead of panicking, so torn or corrupted payloads
/// are recoverable conditions for the caller.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let slice = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(SnapshotError::Truncated)?;
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun.
    pub fn take_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (one byte; anything but 0/1 is malformed).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun or
    /// [`SnapshotError::Malformed`] on an out-of-range byte.
    pub fn take_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Malformed(format!(
                "bool byte is {other}, expected 0 or 1"
            ))),
        }
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun.
    pub fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 b")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun.
    pub fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 b")))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun.
    pub fn take_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun or
    /// [`SnapshotError::Malformed`] on invalid UTF-8.
    pub fn take_str(&mut self) -> Result<String, SnapshotError> {
        let len = self.take_u64()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not valid UTF-8".into()))
    }

    /// Reads a length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Truncated`] on underrun.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let len = self.take_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Malformed`] if bytes remain — a decoder
    /// that stops early has misparsed the payload.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Malformed(format!(
                "{} undecoded trailing bytes",
                self.remaining()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_codec_round_trips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_f64(-0.125);
        w.put_str("hello, 世界");
        w.put_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.take_u8().unwrap(), 7);
        assert!(r.take_bool().unwrap());
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.take_f64().unwrap().to_bits(), (-0.125f64).to_bits());
        assert_eq!(r.take_str().unwrap(), "hello, 世界");
        assert_eq!(r.take_bytes().unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_underrun_is_typed_not_a_panic() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(r.take_u64(), Err(SnapshotError::Truncated)));
        let mut r = ByteReader::new(&[9]);
        assert!(matches!(r.take_bool(), Err(SnapshotError::Malformed(_))));
    }

    #[test]
    fn container_round_trips() {
        let payload = b"the payload".to_vec();
        let bytes = to_bytes(PayloadKind::CacheEntry, &payload);
        assert_eq!(
            from_bytes(&bytes, PayloadKind::CacheEntry).unwrap(),
            payload
        );
    }

    #[test]
    fn container_rejects_wrong_kind_version_magic() {
        let bytes = to_bytes(PayloadKind::Reproducer, b"x");
        assert!(matches!(
            from_bytes(&bytes, PayloadKind::CacheEntry),
            Err(SnapshotError::BadKind { found: 3, .. })
        ));
        let hist = to_bytes(PayloadKind::Histogram, b"x");
        assert!(matches!(
            from_bytes(&hist, PayloadKind::Reproducer),
            Err(SnapshotError::BadKind { found: 4, .. })
        ));
        let mut skewed = bytes.clone();
        skewed[8] = 0xFF; // version field
        assert!(matches!(
            from_bytes(&skewed, PayloadKind::Reproducer),
            Err(SnapshotError::BadVersion { found, expected })
                if found != expected
        ));
        let mut alien = bytes.clone();
        alien[0] = b'X';
        assert!(matches!(
            from_bytes(&alien, PayloadKind::Reproducer),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn reserved_kind_tag_is_a_typed_error() {
        // A well-formed container (valid checksum) under the reserved
        // tag 1 reads as an unknown kind for every live kind.
        let payload = b"x";
        let mut bytes = to_bytes(PayloadKind::CacheEntry, payload);
        bytes[12..16].copy_from_slice(&1u32.to_le_bytes());
        let sum_at = bytes.len() - 8;
        bytes[sum_at..].copy_from_slice(&checksum(FORMAT_VERSION, 1, payload).to_le_bytes());
        for kind in [
            PayloadKind::CacheEntry,
            PayloadKind::Reproducer,
            PayloadKind::Histogram,
        ] {
            let err = from_bytes(&bytes, kind).unwrap_err();
            assert!(
                matches!(err, SnapshotError::BadKind { found: 1, expected } if expected == kind),
                "{err}"
            );
        }
    }

    #[test]
    fn container_detects_truncation_and_bitflips() {
        let bytes = to_bytes(PayloadKind::CacheEntry, b"some payload bytes");
        for cut in [bytes.len() - 1, bytes.len() - 9, 20, 5] {
            assert!(
                matches!(
                    from_bytes(&bytes[..cut], PayloadKind::CacheEntry),
                    Err(SnapshotError::Truncated)
                ),
                "cut at {cut}"
            );
        }
        // Flip one payload bit: checksum must catch it.
        let mut flipped = bytes.clone();
        flipped[26] ^= 0x40;
        assert!(matches!(
            from_bytes(&flipped, PayloadKind::CacheEntry),
            Err(SnapshotError::Checksum { .. })
        ));
        // Flip one checksum bit: ditto.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            from_bytes(&flipped, PayloadKind::CacheEntry),
            Err(SnapshotError::Checksum { .. })
        ));
    }

    #[test]
    fn atomic_write_read_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("dsm-snap-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("entry.job");
        write_atomic(&path, PayloadKind::CacheEntry, b"payload").unwrap();
        assert_eq!(read(&path, PayloadKind::CacheEntry).unwrap(), b"payload");
        // No temp droppings left behind.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        let q1 = quarantine(&path).unwrap();
        assert!(q1.exists() && !path.exists());
        // Second quarantine of the same name does not clobber the first.
        write_atomic(&path, PayloadKind::CacheEntry, b"payload2").unwrap();
        let q2 = quarantine(&path).unwrap();
        assert!(q2.exists() && q1.exists() && q1 != q2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
