//! The durable append-only work ledger: a [`tecopt::record`] file of
//! kind `explore-candidates`, whose records are
//!
//! ```text
//! claim <id:016x> <sum> <attempt>
//! done <id:016x> <sum> pruned
//! done <id:016x> <sum> eval <feasible 0|1> <devices> <current> <peak> <power> <evals>
//! quar <id:016x> <sum> <attempts> <reason> <partial> <message...>
//! ```
//!
//! [`tecopt::record`] owns the header, the per-record checksum `sum`,
//! torn-tail replay and atomic creation (see its docs for the durability
//! contract). This module is the codec and the merge rule: a record
//! whose checksum fails is skipped and its candidate re-runs, the last
//! `done`/`quar` per id wins, and `claim` keeps the maximum attempt per
//! candidate. Floating-point payloads are bit-exact hex, so a resumed
//! exploration reproduces the uninterrupted run bit for bit, and the
//! header fingerprint binds the file to the exact design-space spec,
//! device parameters, tile powers and settings that produced it.
//!
//! `claim` records are the lease trail: one per admitted evaluation
//! attempt, written *before* the evaluation starts. A claim without a
//! matching `done`/`quar` marks an attempt killed in flight; the attempt
//! count carries across resumes so the retry budget cannot be reset by
//! crashing — and a candidate whose recorded claims already spent the
//! budget without ever settling (every attempt killed the whole process,
//! beyond what panic isolation can contain) is quarantined at resume
//! admission instead of being re-queued forever.

use crate::quarantine::{PartialPrefix, QuarantineReason, QuarantineRecord};
use std::collections::BTreeMap;
use std::path::Path;
use tecopt::record::{
    fields, parse_hex_u64, read, Count, FieldError, Flag, Group, Header, Hex, Opt, RecordFile,
};
use tecopt::OptError;
use tecopt_units::{Amperes, Celsius, Watts};

/// Record-kind tag of design-space exploration ledgers.
pub const LEDGER_KIND: &str = "explore-candidates";

/// A completed (terminal, non-quarantine) outcome for one candidate.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalRecord {
    /// Rejected by the analytical first-cut sizing bound — no solve was
    /// spent on it.
    Pruned {
        /// Deterministic candidate id.
        id: u64,
    },
    /// Fully evaluated (feasible or not).
    Evaluated {
        /// Deterministic candidate id.
        id: u64,
        /// `peak <= theta_limit` at the optimal current.
        feasible: bool,
        /// Devices deployed.
        devices: usize,
        /// Optimal shared supply current.
        current: Amperes,
        /// Peak silicon temperature at that current.
        peak: Celsius,
        /// Total TEC electrical power at that current.
        tec_power: Watts,
        /// Steady-state solves spent by the current search.
        evaluations: usize,
    },
}

impl EvalRecord {
    /// The candidate this record belongs to.
    pub fn id(&self) -> u64 {
        match self {
            EvalRecord::Pruned { id } | EvalRecord::Evaluated { id, .. } => *id,
        }
    }

    /// The payload of this record's `done` line.
    fn encode(&self) -> String {
        fields(' ', |w| match self {
            EvalRecord::Pruned { .. } => {
                w.text("pruned");
            }
            EvalRecord::Evaluated {
                feasible,
                devices,
                current,
                peak,
                tec_power,
                evaluations,
                ..
            } => {
                w.text("eval")
                    .put(&Flag, feasible)
                    .put(&Count, devices)
                    .put(&Hex, current)
                    .put(&Hex, peak)
                    .put(&Hex, tec_power)
                    .put(&Count, evaluations);
            }
        })
    }

    /// Decodes a `done` payload for candidate `id`.
    fn decode(id: u64, payload: &str) -> Option<EvalRecord> {
        read(payload, ' ', "done record", |r| {
            Ok(match r.text("outcome")? {
                "pruned" => EvalRecord::Pruned { id },
                "eval" => EvalRecord::Evaluated {
                    id,
                    feasible: r.take(&Flag, "feasible")?,
                    devices: r.take(&Count, "devices")?,
                    current: r.take(&Hex, "current")?,
                    peak: r.take(&Hex, "peak")?,
                    tec_power: r.take(&Hex, "tec power")?,
                    evaluations: r.take(&Count, "evaluations")?,
                },
                _ => return Err(FieldError::Malformed("outcome")),
            })
        })
        .ok()
    }
}

tecopt::field_table!(Group => PartialPrefix {
    devices: Count,
    peak: Hex,
});

fn encode_quarantine(rec: &QuarantineRecord) -> String {
    fields(' ', |w| {
        w.put(&Count, &rec.attempts)
            .text(rec.reason.tag())
            .put(&Opt(Group(':')), &rec.partial)
            .text(&rec.message);
    })
}

fn decode_quarantine(id: u64, payload: &str) -> Option<QuarantineRecord> {
    read(payload, ' ', "quarantine record", |r| {
        let attempts = r.take(&Count, "attempts")?;
        let reason = QuarantineReason::from_tag(r.text("reason")?);
        Ok(QuarantineRecord {
            id,
            attempts,
            reason: reason.ok_or(FieldError::Malformed("reason"))?,
            partial: r.take(&Opt(Group(':')), "partial prefix")?,
            message: r.rest().to_string(),
        })
    })
    .ok()
}

/// Everything a resumed exploration needs to know about prior cycles,
/// rebuilt from the record trail.
#[derive(Debug, Clone, Default)]
pub struct LedgerState {
    /// Terminal non-quarantine outcomes by candidate id.
    pub done: BTreeMap<u64, EvalRecord>,
    /// Blacklisted candidates by id.
    pub quarantined: BTreeMap<u64, QuarantineRecord>,
    /// Highest attempt number claimed per candidate (claims without a
    /// terminal record mark attempts killed in flight).
    pub claims: BTreeMap<u64, u32>,
}

impl LedgerState {
    /// `true` once the candidate has a terminal record (done or
    /// quarantined) and must not be re-evaluated.
    pub fn settled(&self, id: u64) -> bool {
        self.done.contains_key(&id) || self.quarantined.contains_key(&id)
    }

    /// Terminal records of any kind.
    pub fn settled_count(&self) -> usize {
        self.done.len() + self.quarantined.len()
    }
}

/// The durable append-only work ledger of one exploration.
#[derive(Debug)]
pub struct Ledger {
    file: RecordFile,
}

impl Ledger {
    /// Opens (or atomically creates) the ledger at `path`, bound to the
    /// exploration identity `fp` over `total` candidates, and replays the
    /// existing record trail. Torn or corrupted records — the tail a
    /// mid-append kill leaves, or a flipped byte — are skipped; their
    /// candidates simply run again.
    ///
    /// # Errors
    ///
    /// - [`OptError::InvalidParameter`] `"stale ledger ..."` when the
    ///   header does not match `fp`/`total` — resuming under different
    ///   parameters would silently mix explorations;
    /// - [`OptError::InvalidParameter`] `"ledger io ..."` for I/O errors.
    pub fn open(path: &Path, fp: u64, total: usize) -> Result<(Ledger, LedgerState), OptError> {
        let header = Header {
            noun: "ledger",
            kind: LEDGER_KIND,
            fingerprint: fp,
            total,
        };
        let mut state = LedgerState::default();
        let file = RecordFile::open(path, &header, |rec| {
            let Some(id) = parse_hex_u64(rec.key) else {
                return;
            };
            match rec.tag {
                "claim" => {
                    if let Ok(attempt) = read(rec.payload, ' ', "claim", |r| {
                        r.take::<u32>(&Count, "attempt")
                    }) {
                        let slot = state.claims.entry(id).or_insert(0);
                        *slot = (*slot).max(attempt);
                    }
                }
                "done" => {
                    if let Some(done) = EvalRecord::decode(id, rec.payload) {
                        state.done.insert(id, done);
                    }
                }
                "quar" => {
                    if let Some(quar) = decode_quarantine(id, rec.payload) {
                        state.quarantined.insert(id, quar);
                    }
                }
                // Unknown tags: forward compatible with later record kinds.
                _ => {}
            }
        })?;
        Ok((Ledger { file }, state))
    }

    /// The ledger file path.
    pub fn path(&self) -> &Path {
        self.file.path()
    }

    /// Leases one evaluation attempt: appended and flushed *before* the
    /// evaluation starts, so an attempt killed in flight stays visible to
    /// the resume (the retry budget survives crashes).
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn claim(&self, id: u64, attempt: u32) -> Result<(), OptError> {
        self.file
            .append("claim", &format!("{id:016x}"), &attempt.to_string())
    }

    /// Appends a terminal evaluation record.
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn record(&self, rec: &EvalRecord) -> Result<(), OptError> {
        self.file
            .append("done", &format!("{:016x}", rec.id()), &rec.encode())
    }

    /// Appends a quarantine (blacklist) record.
    ///
    /// # Errors
    ///
    /// Ledger I/O as a typed [`OptError::InvalidParameter`].
    pub fn quarantine(&self, rec: &QuarantineRecord) -> Result<(), OptError> {
        self.file
            .append("quar", &format!("{:016x}", rec.id), &encode_quarantine(rec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tecopt-ledger-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("test.ledger")
    }

    fn eval_rec(id: u64) -> EvalRecord {
        EvalRecord::Evaluated {
            id,
            feasible: true,
            devices: 3,
            current: Amperes(4.25),
            peak: Celsius(78.5),
            tec_power: Watts(2.125),
            evaluations: 41,
        }
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let path = scratch("roundtrip");
        let (ledger, state) = Ledger::open(&path, 0xabcd, 4).unwrap();
        assert!(state.done.is_empty());
        ledger.claim(7, 1).unwrap();
        ledger.record(&eval_rec(7)).unwrap();
        ledger.record(&EvalRecord::Pruned { id: 9 }).unwrap();
        let quar = QuarantineRecord::new(
            11,
            2,
            QuarantineReason::Panicked,
            "division by zero somewhere",
            Some(PartialPrefix {
                devices: 2,
                peak: Celsius(83.0),
            }),
        );
        ledger.quarantine(&quar).unwrap();
        drop(ledger);

        let (_ledger, state) = Ledger::open(&path, 0xabcd, 4).unwrap();
        assert_eq!(state.done.get(&7), Some(&eval_rec(7)));
        assert_eq!(state.done.get(&9), Some(&EvalRecord::Pruned { id: 9 }));
        assert_eq!(state.quarantined.get(&11), Some(&quar));
        assert_eq!(state.claims.get(&7), Some(&1));
        assert!(state.settled(7) && state.settled(9) && state.settled(11));
        assert!(!state.settled(13));
        assert_eq!(state.settled_count(), 3);
    }

    #[test]
    fn claim_attempts_keep_their_maximum_across_cycles() {
        let path = scratch("claims");
        let (ledger, _) = Ledger::open(&path, 1, 4).unwrap();
        ledger.claim(5, 1).unwrap();
        ledger.claim(5, 2).unwrap();
        ledger.claim(6, 1).unwrap();
        drop(ledger);
        let (_, state) = Ledger::open(&path, 1, 4).unwrap();
        assert_eq!(state.claims.get(&5), Some(&2));
        assert_eq!(state.claims.get(&6), Some(&1));
    }
}
