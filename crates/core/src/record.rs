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
//! module owns the bytes, and the field vocabulary ([`Field`],
//! [`field_table!`](crate::field_table)) that the payload codecs and the
//! serve tier's wire messages are all written in.

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

/// Parses exactly 16 hex digits.
pub fn parse_hex_u64(s: &str) -> Option<u64> {
    (s.len() == HEX_WIDTH && s.bytes().all(|b| b.is_ascii_hexdigit()))
        .then(|| u64::from_str_radix(s, 16).ok())
        .flatten()
}

// ---------------------------------------------------------------------
// The field vocabulary: every wire message and record payload is a line
// of typed fields, written by a `FieldWriter`, read by a `FieldReader`.
// ---------------------------------------------------------------------

/// Encoded width of a [`Hex`] or [`Id`] field.
pub const HEX_WIDTH: usize = 16;

/// Widest [`Count`] field: `u64::MAX` has 20 digits.
pub const COUNT_WIDTH: usize = 20;

/// Longest [`Key`] field.
pub const KEY_WIDTH: usize = 128;

/// `true` for an idempotency key a client may use: non-empty, at most
/// [`KEY_WIDTH`] bytes, and free of whitespace and path characters (keys
/// name checkpoint files).
pub fn valid_key(key: &str) -> bool {
    let chars = |c: char| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.');
    (1..=KEY_WIDTH).contains(&key.len()) && key.chars().all(chars) && !key.starts_with('.')
}

/// The first field that failed to decode, by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldError {
    /// The field is absent.
    Missing(&'static str),
    /// The field is present but not of its type, or outside its range.
    Malformed(&'static str),
    /// A list (or a whole frame) is longer than its cap.
    TooMany(&'static str, usize),
    /// Fields remain after the last one the message has.
    Trailing(&'static str),
}

impl std::fmt::Display for FieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldError::Missing(field) => write!(f, "missing {field}"),
            FieldError::Malformed(field) => write!(f, "malformed {field}"),
            FieldError::TooMany(field, cap) => write!(f, "{field} exceeds its cap of {cap}"),
            FieldError::Trailing(field) => write!(f, "trailing fields after the {field}"),
        }
    }
}

impl std::error::Error for FieldError {}

/// What reading a field yields.
pub type Taken<T> = Result<T, FieldError>;

/// A field type: how one `T` is written as one field (a [`Group`] under
/// its own separator counts as one) and read back.
pub trait Field<T> {
    /// Writes `v`.
    fn put(&self, w: &mut FieldWriter<'_>, v: &T);
    /// Reads the next field, named `name` in the error when it fails.
    ///
    /// # Errors
    ///
    /// The first missing or malformed field.
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<T>;
}

/// A bit-exact hex `f64` or unit quantity (any bits, NaN included).
pub struct Hex;

/// A [`Hex`] that must pass a check, such as being finite.
pub struct Checked(pub fn(f64) -> bool);

/// A 16-digit hex `u64` id.
pub struct Id;

/// A decimal count of 1 to [`COUNT_WIDTH`] digits.
pub struct Count;

/// A `0`/`1` flag.
pub struct Flag;

/// An idempotency key ([`valid_key`]).
pub struct Key;

/// An optional field: `-` when absent.
pub struct Opt<F>(pub F);

/// A list of `item` fields whose length lies in `len`: joined by `sep`
/// into one field (empty for no items) or, under its container's own
/// separator, the container's remaining fields. A reader stops at the
/// cap before reading further and allocates only for items present.
pub struct List<F> {
    /// Separator between items.
    pub sep: char,
    /// Allowed item counts.
    pub len: std::ops::RangeInclusive<usize>,
    /// Field type of one item.
    pub item: F,
}

/// A type's own field table ([`field_table!`](crate::field_table)) joined
/// by a separator: one field of its container, or inline under the
/// container's own separator.
pub struct Group(pub char);

fn checked<T>(ok: bool, v: T, name: &'static str) -> Taken<T> {
    ok.then_some(v).ok_or(FieldError::Malformed(name))
}

impl<T: Copy + Into<f64> + From<f64>> Field<T> for Hex {
    fn put(&self, w: &mut FieldWriter<'_>, v: &T) {
        Id.put(w, &(*v).into().to_bits());
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<T> {
        Id.take(r, name).map(|bits| T::from(f64::from_bits(bits)))
    }
}

impl<T: Copy + Into<f64> + From<f64>> Field<T> for Checked {
    fn put(&self, w: &mut FieldWriter<'_>, v: &T) {
        Hex.put(w, v);
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<T> {
        let v: T = Hex.take(r, name)?;
        checked((self.0)(v.into()), v, name)
    }
}

impl Field<u64> for Id {
    fn put(&self, w: &mut FieldWriter<'_>, v: &u64) {
        w.text(&format!("{v:016x}"));
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<u64> {
        parse_hex_u64(r.text(name)?).ok_or(FieldError::Malformed(name))
    }
}

impl<T: Copy + TryInto<u64> + std::str::FromStr> Field<T> for Count {
    fn put(&self, w: &mut FieldWriter<'_>, v: &T) {
        w.text(&(*v).try_into().unwrap_or(u64::MAX).to_string());
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<T> {
        let s = r.text(name)?;
        let digits = (1..=COUNT_WIDTH).contains(&s.len()) && s.bytes().all(|b| b.is_ascii_digit());
        digits
            .then(|| s.parse().ok())
            .flatten()
            .ok_or(FieldError::Malformed(name))
    }
}

impl Field<bool> for Flag {
    fn put(&self, w: &mut FieldWriter<'_>, v: &bool) {
        w.text(if *v { "1" } else { "0" });
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<bool> {
        let s = r.text(name)?;
        checked(s == "0" || s == "1", s == "1", name)
    }
}

impl Field<String> for Key {
    fn put(&self, w: &mut FieldWriter<'_>, v: &String) {
        w.text(v);
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<String> {
        let key = r.text(name)?;
        checked(valid_key(key), key.to_string(), name)
    }
}

impl<T, F: Field<T>> Field<Option<T>> for Opt<F> {
    fn put(&self, w: &mut FieldWriter<'_>, v: &Option<T>) {
        match v {
            Some(v) => self.0.put(w, v),
            None => {
                w.text("-");
            }
        }
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<Option<T>> {
        let mut probe = r.clone();
        if probe.text(name) == Ok("-") {
            *r = probe;
            return Ok(None);
        }
        self.0.take(r, name).map(Some)
    }
}

impl<T, F: Field<T>> Field<Vec<T>> for List<F> {
    fn put(&self, w: &mut FieldWriter<'_>, v: &Vec<T>) {
        w.group(self.sep, |w| {
            v.iter().for_each(|item| self.item.put(w, item))
        });
    }
    fn take(&self, r: &mut FieldReader<'_>, name: &'static str) -> Taken<Vec<T>> {
        let joined = self.sep != r.sep;
        let items = r.group(name, self.sep, |r| {
            if joined && r.rest == Some("") {
                r.rest = None; // the empty list
            }
            let mut items = Vec::new();
            while r.rest.is_some() {
                if items.len() >= *self.len.end() {
                    return Err(FieldError::TooMany(name, *self.len.end()));
                }
                items.push(self.item.take(r, name)?);
            }
            Ok(items)
        })?;
        let short = items.len() < *self.len.start();
        (!short).then_some(items).ok_or(FieldError::Missing(name))
    }
}

/// Appends `sep`-separated fields to a line.
#[derive(Debug)]
pub struct FieldWriter<'a> {
    out: &'a mut String,
    sep: char,
    fresh: bool,
}

impl FieldWriter<'_> {
    /// A tag or free text, verbatim.
    pub fn text(&mut self, s: &str) -> &mut Self {
        if !std::mem::take(&mut self.fresh) {
            self.out.push(self.sep);
        }
        self.out.push_str(s);
        self
    }

    /// A field of type `kind`.
    pub fn put<T>(&mut self, kind: &impl Field<T>, v: &T) -> &mut Self {
        kind.put(self, v);
        self
    }

    /// `put`'s fields joined by `sep`: one field, or inline under this
    /// writer's own separator.
    pub fn group(&mut self, sep: char, put: impl FnOnce(&mut FieldWriter<'_>)) -> &mut Self {
        if sep == self.sep {
            put(self);
        } else {
            let out = &mut *self.text("").out;
            put(&mut FieldWriter {
                out,
                sep,
                fresh: true,
            });
        }
        self
    }
}

/// One line of `put`'s fields joined by `sep`.
pub fn fields(sep: char, put: impl FnOnce(&mut FieldWriter<'_>)) -> String {
    let mut out = String::new();
    put(&mut FieldWriter {
        out: &mut out,
        sep,
        fresh: true,
    });
    // A line grown field by field holds up to twice its length; callers
    // keep lines (caches, checkpoints, fingerprints), so return it tight.
    out.shrink_to_fit();
    out
}

/// Reads `sep`-separated fields in order; every method that can fail
/// names the field in its [`FieldError`].
#[derive(Debug, Clone)]
pub struct FieldReader<'a> {
    rest: Option<&'a str>,
    sep: char,
}

impl<'a> FieldReader<'a> {
    /// The next field, verbatim.
    pub fn text(&mut self, name: &'static str) -> Taken<&'a str> {
        let rest = self.rest.ok_or(FieldError::Missing(name))?;
        let (head, tail) = rest
            .split_once(self.sep)
            .map_or((rest, None), |(h, t)| (h, Some(t)));
        self.rest = tail;
        Ok(head)
    }

    /// The next field, which must read `tag`.
    pub fn tag(&mut self, tag: &'static str) -> Taken<()> {
        let text = self.text(tag)?;
        checked(text == tag, (), tag)
    }

    /// Everything not yet read: free text that may hold the separator.
    pub fn rest(&mut self) -> &'a str {
        self.rest.take().unwrap_or_default()
    }

    /// A field of type `kind`.
    pub fn take<T>(&mut self, kind: &impl Field<T>, name: &'static str) -> Taken<T> {
        kind.take(self, name)
    }

    /// Fields joined by `sep`, all of which `take` reads: the next field,
    /// or inline under this reader's own separator.
    pub fn group<T>(
        &mut self,
        name: &'static str,
        sep: char,
        take: impl FnOnce(&mut FieldReader<'a>) -> Taken<T>,
    ) -> Taken<T> {
        if sep == self.sep {
            take(self)
        } else {
            read(self.text(name)?, sep, name, take)
        }
    }
}

/// Reads all of `text`, a `what` of `sep`-separated fields, with `take`;
/// fields it leaves unread are [`FieldError::Trailing`].
pub fn read<'a, T>(
    text: &'a str,
    sep: char,
    what: &'static str,
    take: impl FnOnce(&mut FieldReader<'a>) -> Taken<T>,
) -> Taken<T> {
    let mut r = FieldReader {
        rest: Some(text),
        sep,
    };
    let value = take(&mut r)?;
    checked(r.rest.is_none(), value, what).map_err(|_| FieldError::Trailing(what))
}

/// Implements [`Field`] for a struct, or for the struct variants of an
/// enum (each written after its tag), from one table of its fields in
/// line order, each with its field type. `$codec(sep)` joins the fields
/// by `sep`, so one table serves every separator.
#[macro_export]
macro_rules! field_table {
    ($codec:ident => $ty:ident { $($field:ident: $kind:expr),* $(,)? }) => {
        impl $crate::record::Field<$ty> for $codec {
            fn put(&self, w: &mut $crate::record::FieldWriter<'_>, v: &$ty) {
                w.group(self.0, |w| { $(w.put(&$kind, &v.$field);)* });
            }
            fn take(&self, r: &mut $crate::record::FieldReader<'_>, name: &'static str)
                -> $crate::record::Taken<$ty> {
                r.group(name, self.0, |r| Ok($ty { $($field: r.take(&$kind, stringify!($field))?),* }))
            }
        }
    };
    ($codec:ident => $ty:ident {
        $($tag:literal => $variant:ident { $($field:ident: $kind:expr),* $(,)? }),* $(,)?
    }) => {
        impl $crate::record::Field<$ty> for $codec {
            fn put(&self, w: &mut $crate::record::FieldWriter<'_>, v: &$ty) {
                w.group(self.0, |w| match v {
                    $($ty::$variant { $($field),* } => { w.text($tag)$(.put(&$kind, $field))*; })*
                });
            }
            fn take(&self, r: &mut $crate::record::FieldReader<'_>, name: &'static str)
                -> $crate::record::Taken<$ty> {
                r.group(name, self.0, |r| Ok(match r.text(name)? {
                    $($tag => $ty::$variant { $($field: r.take(&$kind, stringify!($field))?),* },)*
                    _ => return Err($crate::record::FieldError::Malformed(name)),
                }))
            }
        }
    };
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
    fn hex_fields_round_trip_bit_exactly() {
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
            let line = fields(' ', |w| {
                w.put(&Hex, &v)
                    .put(&Opt(Hex), &Some(v))
                    .put(&Opt(Hex), &None::<f64>);
            });
            assert_eq!(line, format!("{} {} -", hex_f64(v), hex_f64(v)));
            let (a, b, c): (f64, Option<f64>, Option<f64>) = read(&line, ' ', "test", |r| {
                Ok((
                    r.take(&Hex, "a")?,
                    r.take(&Opt(Hex), "b")?,
                    r.take(&Opt(Hex), "c")?,
                ))
            })
            .unwrap();
            assert_eq!(a.to_bits(), v.to_bits());
            assert_eq!(b.map(f64::to_bits), Some(v.to_bits()));
            assert_eq!(c, None);
        }
        let hex = |s: &'static str| read(s, ' ', "test", |r| r.take::<f64>(&Hex, "x"));
        assert_eq!(hex("nonsense"), Err(FieldError::Malformed("x")));
        assert_eq!(hex("123"), Err(FieldError::Malformed("x")));
        let finite = |s: &'static str| {
            read(s, ' ', "t", |r| {
                r.take::<f64>(&Checked(f64::is_finite), "x")
            })
        };
        assert_eq!(finite("3ff0000000000000"), Ok(1.0));
        assert_eq!(finite("7ff8000000000000"), Err(FieldError::Malformed("x")));
        assert_eq!(parse_hex_u64("+00000000000000f"), None);
        assert_eq!(parse_hex_u64("00000000000000ff"), Some(255));
    }

    #[test]
    fn field_errors_name_the_field_that_failed() {
        let count = |s: &'static str| read(s, ' ', "test", |r| r.take::<usize>(&Count, "n"));
        assert_eq!(count("12"), Ok(12));
        assert_eq!(count(""), Err(FieldError::Malformed("n")));
        assert_eq!(count("+1"), Err(FieldError::Malformed("n")));
        assert_eq!(count("1 2"), Err(FieldError::Trailing("test")));
        let flags = read("1", ' ', "test", |r| {
            Ok((r.take(&Flag, "a")?, r.take(&Flag, "b")?))
        });
        assert_eq!(flags, Err(FieldError::Missing("b")));
        let key = |s: &'static str| read(s, ' ', "test", |r| r.take(&Opt(Key), "k"));
        assert_eq!(key("-"), Ok(None));
        assert_eq!(key("job-1"), Ok(Some("job-1".to_string())));
        assert_eq!(key(".hidden"), Err(FieldError::Malformed("k")));
        assert!(valid_key("abc-123_X.y"));
        assert!(!valid_key("a/b") && !valid_key("") && !valid_key(&"k".repeat(129)));
    }

    struct Pair(char);

    struct Xy {
        x: u64,
        y: u64,
    }

    crate::field_table!(Pair => Xy { x: Count, y: Count });

    fn list<F>(sep: char, cap: usize, item: F) -> List<F> {
        List {
            sep,
            len: 1..=cap,
            item,
        }
    }

    #[test]
    fn lists_nest_under_their_own_separators_and_stop_at_their_caps() {
        let nested = vec![
            vec![Xy { x: 1, y: 2 }, Xy { x: 2, y: 3 }],
            vec![Xy { x: 3, y: 4 }],
        ];
        let table = |cap| {
            list(
                ';',
                cap,
                List {
                    sep: ',',
                    len: 0..=cap,
                    item: Pair(':'),
                },
            )
        };
        let line = fields(' ', |w| {
            w.text("t")
                .put(&table(3), &nested)
                .put(&list(' ', 3, Count), &vec![7u64, 8]);
        });
        assert_eq!(line, "t 1:2,2:3;3:4 7 8");
        let take = |line: &'static str, cap: usize| {
            read(line, ' ', "test", |r| {
                r.tag("t")?;
                let nested = r.take(&table(cap), "outer")?;
                let tail: Vec<u64> = r.take(&list(' ', cap, Count), "tail")?;
                Ok((nested.iter().map(|xs| xs.len()).collect::<Vec<_>>(), tail))
            })
        };
        assert_eq!(take("t 1:2,2:3;3:4 7 8", 3), Ok((vec![2, 1], vec![7, 8])));
        assert_eq!(take("t 1:2,2:3;;3:4 7", 3), Ok((vec![2, 0, 1], vec![7])));
        assert_eq!(
            take("t 1:2,2:3;3:4 7 8", 1),
            Err(FieldError::TooMany("outer", 1))
        );
        assert_eq!(take("t  7", 3), Err(FieldError::Missing("outer")));
        assert_eq!(take("t 1:2:3 7", 3), Err(FieldError::Trailing("outer")));
        assert_eq!(take("t 1:2", 3), Err(FieldError::Missing("tail")));
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
