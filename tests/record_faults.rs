//! Fault matrix over the three durable-record consumers: the supervised
//! sweep checkpoint (`checkpointed_map`), the transient playback
//! checkpoint (`run_schedule_checkpointed`) and the explorer's work
//! ledger (`Ledger`). Every case runs against all three, because all
//! three store their records through `tecopt::record`.
//!
//! Cases: torn tail, append after a torn tail, a byte flipped mid-file,
//! stale kind / fingerprint / total, an orphaned temp sibling, and a full
//! disk under the temp sibling. The property tests at the end feed each
//! consumer arbitrary bytes after a valid header, arbitrary truncations
//! and random single-byte flips: a reopen either fails with a typed error
//! or recovers only records that were written, and a resume then finishes
//! bit-identically. They also round-trip every record codec bit-exactly.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use proptest::prelude::*;
use tecopt::record::{temp_sibling, Header, RecordFile};
use tecopt::runaway::SweepPoint;
use tecopt::supervise::{checkpointed_map, Checkpointable};
use tecopt::transient::{ConstantCurrent, TransientSimulator};
use tecopt::{
    CandidateScore, CertificateOutcome, CoolingSystem, OptError, PackageConfig, RunContext,
    TecParams, TileIndex,
};
use tecopt_explore::{EvalRecord, Ledger, PartialPrefix, QuarantineReason, QuarantineRecord};
use tecopt_faultinject::{tear_tail, DiskFull};
use tecopt_units::{Amperes, Celsius, Watts};

/// Items per file: sweep items, playback steps, ledger candidates.
const ITEMS: usize = 4;
const DT: f64 = 0.5;
const FP: u64 = 0x5eed_f00d;

/// Per-item results as raw bits; `None` where nothing was recovered.
type Items = Vec<Option<Vec<u64>>>;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Consumer {
    Sweep,
    Playback,
    Ledger,
}

const CONSUMERS: [Consumer; 3] = [Consumer::Sweep, Consumer::Playback, Consumer::Ledger];

fn score(i: usize) -> CandidateScore {
    CandidateScore {
        device_count: i,
        current: Amperes(0.5 + i as f64 * 0.25),
        peak: Celsius(70.0 + i as f64 / 3.0),
        tec_power: Watts(0.1 / (1.0 + i as f64)),
        evaluations: 10 + i,
    }
}

fn score_bits(s: &CandidateScore) -> Vec<u64> {
    vec![
        s.device_count as u64,
        s.current.value().to_bits(),
        s.peak.value().to_bits(),
        s.tec_power.value().to_bits(),
        s.evaluations as u64,
    ]
}

fn eval(i: usize) -> EvalRecord {
    if i == 2 {
        return EvalRecord::Pruned { id: 2 };
    }
    EvalRecord::Evaluated {
        id: i as u64,
        feasible: i.is_multiple_of(2),
        devices: i + 1,
        current: Amperes(1.0 + i as f64 / 7.0),
        peak: Celsius(80.0 - i as f64 / 3.0),
        tec_power: Watts(0.3 * i as f64),
        evaluations: 40 + i,
    }
}

fn eval_bits(rec: &EvalRecord) -> Vec<u64> {
    match rec {
        EvalRecord::Pruned { id } => vec![*id],
        EvalRecord::Evaluated {
            id,
            feasible,
            devices,
            current,
            peak,
            tec_power,
            evaluations,
        } => vec![
            *id,
            u64::from(*feasible),
            *devices as u64,
            current.value().to_bits(),
            peak.value().to_bits(),
            tec_power.value().to_bits(),
            *evaluations as u64,
        ],
    }
}

fn system() -> CoolingSystem {
    let config = PackageConfig::hotspot41_like(4, 4).unwrap();
    let mut powers = vec![Watts(0.05); 16];
    powers[5] = Watts(0.7);
    CoolingSystem::new(
        &config,
        TecParams::superlattice_thin_film(),
        &[TileIndex::new(1, 1)],
        powers,
    )
    .unwrap()
}

/// Collapses an interrupted run's partial results into per-item bits; any
/// error other than the admission gate closing is returned as is.
fn items_or_error<T>(
    result: Result<Vec<Option<Vec<u64>>>, (OptError, T)>,
    partial: impl FnOnce(T) -> Items,
) -> Result<Items, OptError> {
    match result {
        Ok(items) => Ok(items),
        Err((OptError::DeadlineExceeded { .. }, p)) => Ok(partial(p)),
        Err((e, _)) => Err(e),
    }
}

impl Consumer {
    /// One resumable run: opens the file at `path` under parameters
    /// `fp`, runs at most `budget` new items (one appended record each),
    /// and reports every item known afterwards.
    fn run(self, path: &Path, fp: u64, budget: usize) -> Result<Items, OptError> {
        let ctx = RunContext::unbounded()
            .probe_budget(budget)
            .checkpoint(path);
        match self {
            Consumer::Sweep => {
                let result =
                    checkpointed_map(&ctx, fp, (0..ITEMS).collect(), || (), |(), i| Ok(score(i)));
                items_or_error(
                    result
                        .map(|all| all.iter().map(|s| Some(score_bits(s))).collect())
                        .map_err(|f| (f.error, f.partial)),
                    |partial| partial.iter().map(|p| p.as_ref().map(score_bits)).collect(),
                )
            }
            Consumer::Playback => {
                let system = system();
                let schedule = vec![(ITEMS as f64 * DT, system.tile_powers().to_vec())];
                let mut sim = TransientSimulator::new(system, DT).unwrap();
                let mut controller = ConstantCurrent(Amperes(0.5));
                let bits = |trace: &tecopt::transient::TransientTrace| -> Items {
                    let mut items: Items = trace
                        .samples()
                        .iter()
                        .map(|s| {
                            Some(vec![
                                s.time.to_bits(),
                                s.peak.value().to_bits(),
                                s.current.value().to_bits(),
                                s.tec_power.value().to_bits(),
                            ])
                        })
                        .collect();
                    items.resize(ITEMS, None);
                    items
                };
                let result = sim.run_schedule_checkpointed(&schedule, &mut controller, fp, &ctx);
                items_or_error(
                    result.map(|t| bits(&t)).map_err(|f| (f.error, f.partial)),
                    |partial| bits(&partial),
                )
            }
            Consumer::Ledger => {
                let (ledger, state) = Ledger::open(path, fp, ITEMS)?;
                let mut left = budget;
                let mut items = Items::new();
                for i in 0..ITEMS {
                    let known = state.done.get(&(i as u64)).map(eval_bits);
                    if known.is_none() && left > 0 {
                        left -= 1;
                        ledger.record(&eval(i))?;
                        items.push(Some(eval_bits(&eval(i))));
                    } else {
                        items.push(known);
                    }
                }
                Ok(items)
            }
        }
    }

    /// This consumer's position in [`CONSUMERS`].
    fn slot(self) -> usize {
        CONSUMERS.iter().position(|c| *c == self).unwrap()
    }

    /// Every item of an uninterrupted run.
    fn reference(self) -> &'static Items {
        static REFERENCE: OnceLock<Vec<Items>> = OnceLock::new();
        let all = REFERENCE.get_or_init(|| {
            CONSUMERS
                .iter()
                .map(|c| {
                    let path = scratch(&format!("reference-{c:?}"));
                    let items = c.run(&path, FP, ITEMS).unwrap();
                    let _ = std::fs::remove_file(&path);
                    items
                })
                .collect()
        });
        &all[self.slot()]
    }

    /// A complete file, as an uninterrupted run leaves it.
    fn template(self) -> &'static [u8] {
        static TEMPLATE: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
        let all = TEMPLATE.get_or_init(|| {
            CONSUMERS
                .iter()
                .map(|c| {
                    let path = scratch(&format!("template-{c:?}"));
                    c.run(&path, FP, ITEMS).unwrap();
                    let bytes = std::fs::read(&path).unwrap();
                    let _ = std::fs::remove_file(&path);
                    bytes
                })
                .collect()
        });
        &all[self.slot()]
    }

    /// The start of item `i`'s record line.
    fn line_prefix(self, i: usize) -> String {
        match self {
            Consumer::Sweep | Consumer::Playback => format!("item {i} "),
            Consumer::Ledger => format!("done {i:016x} "),
        }
    }

    /// Asserts every recovered item equals the uninterrupted run's.
    fn assert_written(self, items: &Items) {
        for (i, (got, want)) in items.iter().zip(self.reference()).enumerate() {
            if got.is_some() {
                assert_eq!(
                    got, want,
                    "{self:?}: item {i} recovered as data never written"
                );
            }
        }
    }

    /// Resumes to completion and asserts the bit-identical outcome.
    fn assert_resumes(self, path: &Path) {
        let items = self.run(path, FP, ITEMS).unwrap();
        assert_eq!(&items, self.reference(), "{self:?}: resume diverged");
    }
}

fn recovered(items: &Items) -> usize {
    items.iter().filter(|i| i.is_some()).count()
}

/// A fresh path in a per-process scratch directory.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tecopt-record-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_dir_all(temp_sibling(&path));
    path
}

fn is_stale(result: Result<Items, OptError>) -> bool {
    matches!(result, Err(OptError::InvalidParameter(m)) if m.contains("stale"))
}

/// Tears the last `bytes` bytes off the file: a kill mid-append.
fn tear(path: &Path, bytes: u64) {
    let len = std::fs::metadata(path).unwrap().len();
    tear_tail(path, len - bytes).unwrap();
}

#[test]
fn a_torn_tail_loses_only_its_own_record() {
    for c in CONSUMERS {
        let path = scratch(&format!("torn-{c:?}"));
        c.run(&path, FP, 2).unwrap();
        tear(&path, 5);
        let items = c.run(&path, FP, 0).unwrap();
        assert_eq!(recovered(&items), 1, "{c:?}: the intact record survives");
        c.assert_written(&items);
        c.assert_resumes(&path);
    }
}

#[test]
fn a_record_appended_after_a_torn_tail_survives_the_next_reopen() {
    for c in CONSUMERS {
        let path = scratch(&format!("append-after-torn-{c:?}"));
        c.run(&path, FP, 2).unwrap();
        tear(&path, 5);
        // One append: the torn item runs again.
        assert_eq!(recovered(&c.run(&path, FP, 1).unwrap()), 2);
        let items = c.run(&path, FP, 0).unwrap();
        assert_eq!(recovered(&items), 2, "{c:?}: the appended record was lost");
        c.assert_written(&items);
        c.assert_resumes(&path);
    }
}

/// Changes one hex digit of the first 16-digit hex data field after the
/// record's third field in item `i`'s line: a value that still parses.
fn flip_data_digit(c: Consumer, text: &str, i: usize) -> String {
    let prefix = c.line_prefix(i);
    let start = text
        .lines()
        .find(|l| l.starts_with(&prefix))
        .map(|l| l.as_ptr() as usize - text.as_ptr() as usize)
        .unwrap();
    let line = text[start..].lines().next().unwrap();
    let mut offset = start;
    for (n, field) in line.split(' ').enumerate() {
        if n >= 3 && field.len() == 16 && field.bytes().all(|b| b.is_ascii_hexdigit()) {
            let at = offset + 8;
            let flipped = if &text[at..=at] == "0" { "1" } else { "0" };
            return format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
        }
        offset += field.len() + 1;
    }
    panic!("{c:?}: no hex data field in `{line}`");
}

#[test]
fn a_byte_flipped_mid_file_is_rejected_and_its_item_reruns() {
    for c in CONSUMERS {
        let path = scratch(&format!("flip-{c:?}"));
        c.run(&path, FP, ITEMS).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, flip_data_digit(c, &text, 1)).unwrap();
        let items = c.run(&path, FP, 0).unwrap();
        assert!(
            items[1].is_none(),
            "{c:?}: a corrupted record was parsed as data"
        );
        c.assert_written(&items);
        c.assert_resumes(&path);
    }
}

/// Rewrites header line `n` (0-based) of the file with `edit`, then
/// checks that a reopen is refused as stale and leaves the file alone.
fn assert_edited_header_is_stale(c: Consumer, name: &str, n: usize, edit: fn(&str) -> String) {
    let path = scratch(&format!("{name}-{c:?}"));
    c.run(&path, FP, 2).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let edited: Vec<String> = text
        .split('\n')
        .enumerate()
        .map(|(k, l)| if k == n { edit(l) } else { l.to_string() })
        .collect();
    let edited = edited.join("\n");
    std::fs::write(&path, &edited).unwrap();
    assert!(is_stale(c.run(&path, FP, ITEMS)), "{c:?}: {name} accepted");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        edited,
        "{c:?}: refused file changed"
    );
}

#[test]
fn a_file_of_another_kind_is_refused_as_stale() {
    for c in CONSUMERS {
        assert_edited_header_is_stale(c, "stale-kind", 1, |l| format!("{l}-other"));
    }
}

#[test]
fn a_file_of_other_parameters_is_refused_as_stale() {
    for c in CONSUMERS {
        let path = scratch(&format!("stale-fp-{c:?}"));
        c.run(&path, FP, 2).unwrap();
        assert!(is_stale(c.run(&path, FP + 1, ITEMS)), "{c:?}");
        assert_edited_header_is_stale(c, "stale-fp-edit", 2, |l| {
            let (head, last) = l.split_at(l.len() - 1);
            format!("{head}{}", if last == "0" { "1" } else { "0" })
        });
    }
}

#[test]
fn a_file_of_another_total_is_refused_as_stale() {
    for c in CONSUMERS {
        assert_edited_header_is_stale(c, "stale-total", 3, |l| l.replace('4', "5"));
    }
}

#[test]
fn version_one_files_are_refused_as_stale() {
    for c in CONSUMERS {
        assert_edited_header_is_stale(c, "stale-v1", 0, |_| "tecopt-checkpoint v1".into());
    }
}

#[test]
fn an_orphaned_temp_sibling_does_not_block_a_fresh_file() {
    for c in CONSUMERS {
        let path = scratch(&format!("orphan-{c:?}"));
        // A kill between the temp-file write and the rename.
        std::fs::write(temp_sibling(&path), "garbage").unwrap();
        c.run(&path, FP, 2).unwrap();
        let items = c.run(&path, FP, 0).unwrap();
        assert_eq!(recovered(&items), 2, "{c:?}");
        c.assert_written(&items);
        c.assert_resumes(&path);
        let _ = std::fs::remove_file(temp_sibling(&path));
    }
}

#[test]
fn a_full_disk_under_the_temp_sibling_is_a_typed_error_and_writes_nothing() {
    for c in CONSUMERS {
        let path = scratch(&format!("diskfull-{c:?}"));
        let block = DiskFull::at(&path).unwrap();
        let err = c.run(&path, FP, ITEMS).unwrap_err();
        assert!(
            matches!(&err, OptError::InvalidParameter(m) if m.contains(" io at ")),
            "{c:?}: want a typed io error, got {err:?}"
        );
        assert!(!path.exists(), "{c:?}: the final path must be untouched");
        block.release().unwrap();
        c.assert_resumes(&path);
    }
}

// ---------------------------------------------------------------------------
// Properties at the trust boundary
// ---------------------------------------------------------------------------

/// Byte length of the four header lines of `bytes`.
fn header_len(bytes: &[u8]) -> usize {
    let mut newlines = 0;
    bytes
        .iter()
        .position(|b| {
            newlines += usize::from(*b == b'\n');
            newlines == 4
        })
        .unwrap()
        + 1
}

/// Writes `bytes` as consumer `c`'s file, reopens it, and checks the
/// trust-boundary contract: a typed error, or only written records
/// followed by a bit-identical resume.
fn assert_contract(c: Consumer, name: &str, bytes: &[u8]) {
    let path = scratch(&format!("{name}-{c:?}"));
    std::fs::write(&path, bytes).unwrap();
    match c.run(&path, FP, 0) {
        Ok(items) => {
            c.assert_written(&items);
            c.assert_resumes(&path);
        }
        Err(e) => assert!(matches!(e, OptError::InvalidParameter(_)), "{c:?}: {e:?}"),
    }
}

fn arbitrary_f64() -> impl Strategy<Value = f64> {
    (0u64..=u64::MAX).prop_map(f64::from_bits)
}

/// Appends one `item 0` record of `r` to a fresh record file and replays
/// it through the codec.
fn round_trip<R: Checkpointable>(r: &R) -> Option<R> {
    let path = scratch(&format!("codec-{}", R::KIND));
    let header = Header {
        noun: "checkpoint",
        kind: R::KIND,
        fingerprint: FP,
        total: 1,
    };
    let file = RecordFile::open(&path, &header, |_| {}).unwrap();
    file.append("item", "0", &r.encode()).unwrap();
    let mut out = None;
    RecordFile::open(&path, &header, |rec| out = R::decode(rec.payload)).unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn arbitrary_bytes_after_a_valid_header_recover_only_written_records(
        which in 0usize..3,
        keep in 0usize..=ITEMS,
        junk in proptest::collection::vec(0u8..=255, 0..160),
    ) {
        let c = CONSUMERS[which];
        let template = c.template();
        let mut bytes = template[..header_len(template)].to_vec();
        let records: Vec<&[u8]> = template[bytes.len()..].split_inclusive(|b| *b == b'\n').collect();
        for record in records.iter().take(keep) {
            bytes.extend_from_slice(record);
        }
        bytes.extend_from_slice(&junk);
        assert_contract(c, "junk", &bytes);
    }

    #[test]
    fn any_truncation_recovers_only_written_records(which in 0usize..3, cut in 0.0f64..=1.0) {
        let c = CONSUMERS[which];
        let template = c.template();
        let len = (cut * template.len() as f64) as usize;
        assert_contract(c, "truncated", &template[..len.min(template.len())]);
    }

    #[test]
    fn any_single_byte_flip_recovers_only_written_records(
        which in 0usize..3,
        at in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let c = CONSUMERS[which];
        let mut bytes = c.template().to_vec();
        let at = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[at] ^= mask;
        assert_contract(c, "flipped", &bytes);
    }

    #[test]
    fn sweep_codecs_round_trip_bit_exactly(
        (a, b, c, d) in (arbitrary_f64(), arbitrary_f64(), arbitrary_f64(), arbitrary_f64()),
        (n, m, tile, absent) in (0usize..1_000_000, 0usize..1_000_000, 0usize..4096, 0u8..4),
    ) {
        let s = CandidateScore {
            device_count: n,
            current: Amperes(a),
            peak: Celsius(b),
            tec_power: Watts(c),
            evaluations: m,
        };
        let back = round_trip(&s).unwrap();
        prop_assert_eq!(score_bits(&back), score_bits(&s));

        let p = SweepPoint {
            current: Amperes(d),
            peak: (absent & 1 == 0).then_some(Celsius(a)),
            tec_power: (absent & 2 == 0).then_some(Watts(b)),
        };
        let back = round_trip(&p).unwrap();
        let bits = |p: &SweepPoint| {
            (
                p.current.value().to_bits(),
                p.peak.map(|c| c.value().to_bits()),
                p.tec_power.map(|w| w.value().to_bits()),
            )
        };
        prop_assert_eq!(bits(&back), bits(&p));

        let outcomes = [
            None,
            Some(CertificateOutcome::Certified),
            Some(CertificateOutcome::Inconclusive {
                tile,
                interval: (a, b),
                lower_bound: c,
            }),
        ];
        let bits = |o: &Option<CertificateOutcome>| match o {
            Some(CertificateOutcome::Inconclusive { tile, interval, lower_bound }) => vec![
                *tile as u64,
                interval.0.to_bits(),
                interval.1.to_bits(),
                lower_bound.to_bits(),
            ],
            Some(CertificateOutcome::Certified) => vec![1],
            None => vec![0],
        };
        for o in outcomes {
            let back = round_trip(&o).unwrap();
            prop_assert_eq!(bits(&back), bits(&o));
        }
    }

    #[test]
    fn ledger_codecs_round_trip_bit_exactly(
        (a, b, c) in (arbitrary_f64(), arbitrary_f64(), arbitrary_f64()),
        (id, devices, attempt) in (0u64..=u64::MAX, 0usize..100_000, 0u32..=u32::MAX),
        (reason, partial, feasible) in (0usize..4, 0u8..2, 0u8..2),
        message in proptest::collection::vec(32u8..127, 0..40),
    ) {
        let path = scratch("ledger-codec");
        let total = 3;
        let eval = EvalRecord::Evaluated {
            id,
            feasible: feasible == 1,
            devices,
            current: Amperes(a),
            peak: Celsius(b),
            tec_power: Watts(c),
            evaluations: devices / 3,
        };
        let pruned = EvalRecord::Pruned { id: id ^ 1 };
        let reasons = [
            QuarantineReason::Panicked,
            QuarantineReason::NonFinite,
            QuarantineReason::Envelope,
            QuarantineReason::Solver,
        ];
        let quar = QuarantineRecord::new(
            id ^ 2,
            attempt,
            reasons[reason],
            String::from_utf8(message).unwrap(),
            (partial == 1).then_some(PartialPrefix { devices, peak: Celsius(a) }),
        );
        let (ledger, _) = Ledger::open(&path, FP, total).unwrap();
        ledger.claim(id, attempt).unwrap();
        ledger.record(&eval).unwrap();
        ledger.record(&pruned).unwrap();
        ledger.quarantine(&quar).unwrap();
        drop(ledger);
        let (_, state) = Ledger::open(&path, FP, total).unwrap();
        prop_assert_eq!(state.claims.get(&id), Some(&attempt));
        prop_assert_eq!(state.done.get(&id).map(eval_bits), Some(eval_bits(&eval)));
        prop_assert_eq!(state.done.get(&(id ^ 1)), Some(&pruned));
        let bits = |q: &QuarantineRecord| {
            let partial = q.partial.map(|p| (p.devices, p.peak.value().to_bits()));
            (q.id, q.attempts, q.reason, q.message.clone(), partial)
        };
        let back = state.quarantined.get(&(id ^ 2)).unwrap();
        prop_assert_eq!(bits(back), bits(&quar));
    }
}
