//! Durable record files: the one on-disk format behind the sweep
//! checkpoints ([`checkpointed_map`](crate::supervise::checkpointed_map)),
//! the transient playback checkpoints and the explorer's work ledger.
//!
//! ```text
//! tecopt-record v2
//! kind <kind>
//! fingerprint <fp:016x>
//! total <n>
//! <tag> <key> <sum:016x> <payload...>
//! ```
//!
//! - The four header lines are written **atomically** ([`atomic_replace`]):
//!   a kill at any instant leaves no file or a complete header. A header
//!   that disagrees with the opener's kind, fingerprint or total is a
//!   typed *stale* error, never a silent mixed resume.
//! - Every record carries `sum`, the FNV-1a [`fingerprint`] of
//!   `<tag> <key> <payload>`, after its tag and key. Replay yields only
//!   records whose checksum holds; a torn tail, a flipped byte or a line
//!   that is not UTF-8 is skipped as if it had never been written, and
//!   its item simply runs again.
//! - Records are appended one `write_all` + `flush` at a time under a
//!   mutex: durable against process kills. They are not synced, so an OS
//!   crash may drop a record tail, which again only re-runs work.
//! - On reopen, a file whose last byte is not `\n` (a kill mid-append) is
//!   terminated first, so the next record never fuses onto torn bytes.
//!
//! Consumers own their tags, keys, payload codecs and merge rules; this
//! module owns the bytes.

use crate::OptError;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic first line of every record file; the trailing integer is the
/// format version. Version-1 files (`tecopt-checkpoint v1`,
/// `tecopt-ledger v1`) carry no checksums and read back as stale.
pub const MAGIC: &str = "tecopt-record v2";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut hash: u64, data: &[u8]) -> u64 {
    for byte in data {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a hash of `data`: the dependency-free fingerprint binding a
/// record file to the exact parameters that produced it, and the
/// per-record checksum.
pub fn fingerprint(data: &str) -> u64 {
    fnv(FNV_OFFSET, data.as_bytes())
}

/// Bit-exact hex encoding of an `f64` (16 lowercase hex digits).
pub fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Inverse of [`hex_f64`].
pub fn parse_hex_f64(s: &str) -> Option<f64> {
    parse_hex_u64(s).map(f64::from_bits)
}

/// [`hex_f64`] of a present value, `-` for an absent one.
pub fn hex_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_string(), hex_f64)
}

/// Inverse of [`hex_opt`]: `Some(None)` for `-`, `None` if malformed.
pub fn parse_hex_opt(s: &str) -> Option<Option<f64>> {
    if s == "-" {
        Some(None)
    } else {
        parse_hex_f64(s).map(Some)
    }
}

/// Parses exactly 16 hex digits.
pub fn parse_hex_u64(s: &str) -> Option<u64> {
    (s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

/// The sibling temp path the atomic-replace protocol writes through:
/// `<final>.tmp` in the same directory (same filesystem, so the rename is
/// atomic). `faultinject::DiskFull` relies on this convention to obstruct
/// the temp path in write-failure tests.
pub fn temp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(std::ffi::OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with `contents`: the bytes are written and
/// synced to [`temp_sibling`] first, renamed over the final path, then the
/// parent directory is synced so the rename itself survives power loss. A
/// crash at any instant leaves the final path either absent, with its old
/// content, or with the complete new content — never a torn prefix.
///
/// # Errors
///
/// Any I/O error from create/write/sync/rename: before the rename the
/// final path is untouched; a directory-sync failure after it leaves the
/// final path with the complete new content (never a torn file).
pub fn atomic_replace(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = temp_sibling(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(contents.as_bytes())?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // The rename lives in the directory entry, not the file: without this
    // sync a power cut can roll the replacement back even though the file
    // data itself was synced.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// The identity a record file is bound to.
#[derive(Debug, Clone, Copy)]
pub struct Header<'a> {
    /// What the file is called in error messages (`checkpoint`, `ledger`).
    pub noun: &'static str,
    /// Record-kind tag of the consumer.
    pub kind: &'a str,
    /// Digest of every input that determines the records.
    pub fingerprint: u64,
    /// Number of items the file covers.
    pub total: usize,
}

impl Header<'_> {
    fn lines(&self) -> [String; 4] {
        [
            MAGIC.to_string(),
            format!("kind {}", self.kind),
            format!("fingerprint {:016x}", self.fingerprint),
            format!("total {}", self.total),
        ]
    }
}

/// One intact record: checksum verified and removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record<'a> {
    /// Leading record tag (`item`, `claim`, `done`, ...).
    pub tag: &'a str,
    /// Item key (an index or a candidate id).
    pub key: &'a str,
    /// Consumer-encoded fields.
    pub payload: &'a str,
}

fn checksum(tag: &str, key: &str, payload: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for part in [tag, " ", key, " ", payload] {
        hash = fnv(hash, part.as_bytes());
    }
    hash
}

/// One record line, `\n`-terminated. `tag` and `key` must be single
/// fields and no part may contain a newline.
fn encode_record(tag: &str, key: &str, payload: &str) -> String {
    debug_assert!(!tag.contains([' ', '\n']) && !key.contains([' ', '\n']));
    debug_assert!(!payload.contains('\n'));
    let sum = checksum(tag, key, payload);
    format!("{tag} {key} {sum:016x} {payload}\n")
}

fn decode_record(line: &[u8]) -> Option<Record<'_>> {
    let line = std::str::from_utf8(line).ok()?;
    let mut it = line.splitn(4, ' ');
    let (tag, key) = (it.next()?, it.next()?);
    let sum = parse_hex_u64(it.next()?)?;
    let payload = it.next()?;
    (checksum(tag, key, payload) == sum).then_some(Record { tag, key, payload })
}

/// Checks `bytes` against `header` and returns its intact records in
/// file order.
///
/// # Errors
///
/// The stale-header reason when the first four lines do not match.
fn replay<'a>(bytes: &'a [u8], header: &Header<'_>) -> Result<Vec<Record<'a>>, String> {
    let mut lines = bytes.split(|b| *b == b'\n');
    for want in header.lines() {
        let got = lines.next().unwrap_or_default();
        if got != want.as_bytes() {
            return Err(format!(
                "expected `{want}`, found `{}`",
                String::from_utf8_lossy(got)
            ));
        }
    }
    Ok(lines.filter_map(decode_record).collect())
}

/// An open record file, appending to its end.
#[derive(Debug)]
pub struct RecordFile {
    path: PathBuf,
    noun: &'static str,
    file: Mutex<File>,
}

impl RecordFile {
    /// Opens `path` (atomically creating it with `header` when missing),
    /// hands every intact record to `each` in file order, and returns the
    /// file ready for appends.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidParameter`] `"stale <noun> at ..."` when the
    /// header does not match, `"<noun> io at ..."` for I/O errors.
    pub fn open(
        path: &Path,
        header: &Header<'_>,
        mut each: impl FnMut(Record<'_>),
    ) -> Result<RecordFile, OptError> {
        let noun = header.noun;
        let io = |e: std::io::Error| io_error(noun, path, &e);
        let torn = match std::fs::read(path) {
            Ok(bytes) => {
                let records = replay(&bytes, header).map_err(|why| {
                    OptError::InvalidParameter(format!(
                        "stale {noun} at {}: {why}; delete it to start fresh",
                        path.display()
                    ))
                })?;
                records.into_iter().for_each(&mut each);
                bytes.last() != Some(&b'\n')
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                atomic_replace(path, &(header.lines().join("\n") + "\n")).map_err(io)?;
                false
            }
            Err(e) => return Err(io(e)),
        };
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(io)?;
        if torn {
            file.write_all(b"\n")
                .and_then(|()| file.flush())
                .map_err(io)?;
        }
        Ok(RecordFile {
            path: path.to_path_buf(),
            noun,
            file: Mutex::new(file),
        })
    }

    /// The file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one checksummed record and flushes it.
    ///
    /// # Errors
    ///
    /// [`OptError::InvalidParameter`] `"<noun> io at ..."`.
    pub fn append(&self, tag: &str, key: &str, payload: &str) -> Result<(), OptError> {
        let line = encode_record(tag, key, payload);
        let mut file = self
            .file
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // The mutex serializes exactly this write+flush; writing outside
        // it would interleave records from concurrent workers.
        // tecopt:allow(lock-across-blocking)
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| io_error(self.noun, &self.path, &e))
    }
}

fn io_error(noun: &str, path: &Path, e: &std::io::Error) -> OptError {
    OptError::InvalidParameter(format!("{noun} io at {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(total: usize) -> Header<'static> {
        Header {
            noun: "checkpoint",
            kind: "unit",
            fingerprint: 0xabc,
            total,
        }
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        assert_eq!(fingerprint(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fingerprint("abc"), fingerprint("abc"));
        assert_ne!(fingerprint("abc"), fingerprint("abd"));
    }

    #[test]
    fn hex_vocabulary_round_trips_bit_exactly() {
        for v in [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            1.234_567_890_123_456_7e-300,
        ] {
            let enc = hex_f64(v);
            let back = parse_hex_f64(&enc).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} via {enc}");
            assert_eq!(
                parse_hex_opt(&hex_opt(Some(v))).unwrap().unwrap().to_bits(),
                v.to_bits()
            );
        }
        assert!(parse_hex_f64("nonsense").is_none());
        assert!(parse_hex_f64("123").is_none());
        assert!(parse_hex_u64("+00000000000000f").is_none());
        assert_eq!(parse_hex_u64("00000000000000ff"), Some(255));
        assert_eq!(hex_opt(None), "-");
        assert_eq!(parse_hex_opt("-"), Some(None));
        assert_eq!(parse_hex_opt("x"), None);
    }

    #[test]
    fn records_keep_tag_and_key_first_and_free_text_last() {
        let line = encode_record("quar", "0000000000000007", "2 panicked - a b  c");
        assert!(line.starts_with("quar 0000000000000007 "));
        let rec = decode_record(line.trim_end_matches('\n').as_bytes()).unwrap();
        assert_eq!(rec.payload, "2 panicked - a b  c");
        assert_eq!(
            decode_record(encode_record("t", "k", "").trim_end().as_bytes()),
            None
        );
        let empty = encode_record("t", "k", "");
        assert_eq!(
            decode_record(&empty.as_bytes()[..empty.len() - 1]).map(|r| r.payload),
            Some("")
        );
    }

    #[test]
    fn replay_skips_torn_and_corrupt_lines() {
        let h = header(3);
        let mut text = h.lines().join("\n") + "\n";
        text.push_str(&encode_record("item", "0", "aa"));
        text.push_str(&encode_record("item", "1", "bb").replace("bb", "bc"));
        text.push_str(&encode_record("item", "2", "cc")[..10]);
        let records = replay(text.as_bytes(), &h).unwrap();
        assert_eq!(
            records,
            vec![Record {
                tag: "item",
                key: "0",
                payload: "aa"
            }]
        );
        let why = replay(text.as_bytes(), &header(4)).unwrap_err();
        assert!(why.contains("total 4"), "{why}");
    }
}
