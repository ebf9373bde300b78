//! End-to-end adoption path: export the Alpha floorplan and synthetic
//! traces to the HotSpot file formats, read them back, and run the
//! optimizer on the file-derived inputs — the workflow a user with an
//! existing HotSpot toolchain would follow.

//!
//! The parsers read untrusted text, so the properties at the end feed
//! them arbitrary, truncated and oversized input (a typed `PowerError`,
//! never a panic) and round-trip generated plans and traces through the
//! writers.

use proptest::prelude::*;
use tecopt::designer::CoolingDesigner;
use tecopt::{PackageConfig, TecParams};
use tecopt_power::hotspot_io::{parse_flp, parse_ptrace, to_flp, to_ptrace, worst_case_of};
use tecopt_power::{Floorplan, PowerError, PowerProfile, Unit, WorkloadModel};
use tecopt_thermal::Rect;
use tecopt_units::{Celsius, Meters, Watts};

#[test]
fn file_round_trip_preserves_the_design_outcome() {
    // Build the reference inputs in memory.
    let model = WorkloadModel::alpha_spec2000_like().unwrap();
    let plan = model.plan().clone();
    let traces: Vec<_> = model
        .benchmark_names()
        .into_iter()
        .map(|name| model.benchmark_profile(name).unwrap())
        .collect();

    // Serialize to the HotSpot formats and parse back.
    let flp_text = to_flp(&plan);
    let ptrace_text = to_ptrace(&traces).unwrap();
    let plan_back = parse_flp("alpha21364-like", &flp_text).unwrap();
    let traces_back = parse_ptrace(&plan_back, &ptrace_text).unwrap();
    assert_eq!(traces_back.len(), traces.len());

    // The paper's procedure on file traces: per-unit max + 20 % margin.
    let envelope_file = worst_case_of(&traces_back, 0.2).unwrap();
    let envelope_mem = model.worst_case_envelope(0.2).unwrap();
    for (a, b) in envelope_file
        .unit_powers()
        .iter()
        .zip(envelope_mem.unit_powers())
    {
        assert!(
            (a.value() - b.value()).abs() < 1e-4,
            "file envelope diverged: {a:?} vs {b:?}"
        );
    }

    // Run the full design from the file-derived inputs and check it matches
    // the in-memory pipeline's shape.
    let config = PackageConfig::hotspot41_like(12, 12).unwrap();
    let powers = envelope_file.rasterize(config.grid()).unwrap();
    let report = CoolingDesigner::new(config, TecParams::superlattice_thin_film())
        .tile_powers(powers)
        .temperature_limit(Celsius(85.0))
        .compare_full_cover(false)
        .convexity_settings(None)
        .design()
        .unwrap();
    assert!(
        (90.0..=96.0).contains(&report.uncooled_peak().value()),
        "uncooled peak {:?}",
        report.uncooled_peak()
    );
    assert!(report.deployment().device_count() > 0);
    assert!(report.deployment().cooling_swing().value() > 2.0);
}

fn abc_plan() -> Floorplan {
    parse_flp(
        "abc",
        "A 1.0 1.0 0.0 0.0\nB 1.0 1.0 1.0 0.0\nC 1.0 1.0 2.0 0.0\n",
    )
    .unwrap()
}

#[test]
fn a_ptrace_header_naming_a_unit_twice_is_refused() {
    let plan = parse_flp("ab", "A 1.0 1.0 0.0 0.0\nB 1.0 1.0 1.0 0.0\n").unwrap();
    // Accepting `A A B` would read A from the second column and drop 9.0.
    assert_eq!(
        parse_ptrace(&plan, "A A B\n9.0 1.0 2.0\n"),
        Err(PowerError::DuplicateUnit { unit: "A".into() })
    );
}

#[test]
fn a_ptrace_missing_units_reports_how_many_it_matched() {
    for (header, matched) in [("C", 1), ("A C", 2), ("B", 1)] {
        assert_eq!(
            parse_ptrace(&abc_plan(), &format!("{header}\n1.0 2.0\n")),
            Err(PowerError::ProfileMismatch {
                expected: 3,
                actual: matched,
            }),
            "header `{header}`"
        );
    }
}

/// A plan of `widths.len()` side-by-side units, widths in 0.1 mm steps so
/// the `.flp` writer's six-digit mantissa is exact.
fn strip_plan(widths: &[u32], height: u32) -> Floorplan {
    let (mut x, mut units) = (0, Vec::new());
    for (i, w) in widths.iter().enumerate() {
        let rect = Rect::new(
            f64::from(x) * 1e-4,
            0.0,
            f64::from(x + w) * 1e-4,
            f64::from(height) * 1e-4,
        );
        units.push(Unit::new(format!("u{i}"), rect));
        x += w;
    }
    let (width, height) = (
        Meters(f64::from(x) * 1e-4),
        Meters(f64::from(height) * 1e-4),
    );
    Floorplan::new("strip", width, height, units).unwrap()
}

fn truncated(text: &str, at: f64) -> &str {
    let mut cut = ((text.len() as f64) * at) as usize;
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

/// Every parser result is a value or a typed error; reaching here at all
/// means nothing panicked.
fn parse_both(plan: &Floorplan, text: &str) {
    let flp: Result<Floorplan, PowerError> = parse_flp("fuzz", text);
    let ptrace: Result<Vec<PowerProfile>, PowerError> = parse_ptrace(plan, text);
    if let Ok(rows) = ptrace {
        assert!(rows
            .iter()
            .all(|r| r.unit_powers().len() == plan.unit_count()));
    }
    drop(flp);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn flp_and_ptrace_writers_round_trip_through_the_parsers(
        widths in proptest::collection::vec(1u32..50, 1..8),
        height in 1u32..50,
        rows in proptest::collection::vec(proptest::collection::vec(0.0f64..10.0, 8), 1..5),
    ) {
        let plan = strip_plan(&widths, height);
        let back = parse_flp("strip", &to_flp(&plan)).unwrap();
        prop_assert_eq!(back.unit_count(), plan.unit_count());
        for (a, b) in plan.units().iter().zip(back.units()) {
            prop_assert_eq!(a.name(), b.name());
            prop_assert!((a.rect().x0 - b.rect().x0).abs() < 1e-12);
            prop_assert!((a.rect().x1 - b.rect().x1).abs() < 1e-12);
            prop_assert!((a.rect().y1 - b.rect().y1).abs() < 1e-12);
        }
        let profiles: Vec<PowerProfile> = rows
            .iter()
            .map(|row| {
                let powers = row.iter().take(plan.unit_count()).map(|w| Watts(*w)).collect();
                PowerProfile::new(&plan, powers).unwrap()
            })
            .collect();
        let parsed = parse_ptrace(&back, &to_ptrace(&profiles).unwrap()).unwrap();
        prop_assert_eq!(parsed.len(), profiles.len());
        for (a, b) in profiles.iter().zip(&parsed) {
            for (x, y) in a.unit_powers().iter().zip(b.unit_powers()) {
                prop_assert!((x.value() - y.value()).abs() <= 5e-7);
            }
        }
    }

    #[test]
    fn arbitrary_text_yields_a_typed_error_never_a_panic(
        bytes in proptest::collection::vec(0u8..=255, 0..300),
        tokens in proptest::collection::vec(0usize..12, 0..60),
    ) {
        parse_both(&abc_plan(), &String::from_utf8_lossy(&bytes));
        const WORDS: [&str; 12] =
            ["A", "B", "C", "1.0", "0.0", "-1", "NaN", "1e999", "#", "\n", " ", "\t"];
        let text: String = tokens.iter().map(|t| WORDS[*t]).collect();
        parse_both(&abc_plan(), &text);
    }

    #[test]
    fn truncated_and_oversized_files_yield_typed_errors(
        widths in proptest::collection::vec(1u32..50, 1..8),
        at in 0.0f64..1.0,
        copies in 1usize..2000,
    ) {
        let plan = strip_plan(&widths, 10);
        let row = PowerProfile::new(&plan, vec![Watts(1.5); plan.unit_count()]).unwrap();
        let flp = to_flp(&plan);
        let ptrace = to_ptrace(&[row]).unwrap();
        parse_both(&plan, truncated(&flp, at));
        parse_both(&plan, truncated(&ptrace, at));
        // Oversized: every unit repeated, and one row far wider than the
        // header.
        let repeated = flp.repeat(copies.min(50));
        prop_assert!(copies.min(50) == 1 || parse_flp("big", &repeated).is_err());
        let wide = format!("{ptrace}{}\n", "1.0 ".repeat(plan.unit_count() + copies));
        prop_assert!(matches!(parse_ptrace(&plan, &wide), Err(PowerError::InvalidParameter(_))));
        let header = format!("{}\n", "u0 ".repeat(copies + 1));
        prop_assert!(parse_ptrace(&plan, &header).is_err());
    }
}
