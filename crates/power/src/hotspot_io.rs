//! HotSpot-compatible file formats.
//!
//! The paper's toolchain lives in the HotSpot ecosystem (its thermal
//! parameters are "set according to an existing thermal simulator,
//! HotSpot 4.1"). This module reads and writes the two text formats that
//! ecosystem exchanges, so existing floorplans and power traces can be fed
//! straight into the optimizer:
//!
//! - **`.flp` floorplans** — one unit per line:
//!   `<name> <width> <height> <left-x> <bottom-y>` in meters, `#` comments;
//! - **`.ptrace` power traces** — a header line of unit names followed by
//!   one line of per-unit watts per sampling interval.

use crate::{Floorplan, PowerError, PowerProfile, Unit};
use tecopt_thermal::Rect;
use tecopt_units::{Meters, Watts};

/// Parses a HotSpot `.flp` floorplan.
///
/// The die outline is the bounding box of the units; the usual validation
/// applies (units must tile the die exactly).
///
/// # Errors
///
/// Returns [`PowerError::InvalidParameter`] for malformed lines and the
/// standard floorplan validation errors otherwise.
pub fn parse_flp(name: impl Into<String>, text: &str) -> Result<Floorplan, PowerError> {
    let mut units = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [name, w, h, x, y, ..] = fields.as_slice() else {
            return Err(PowerError::InvalidParameter(format!(
                "flp line {}: expected `name w h x y`, got '{raw}'",
                lineno + 1
            )));
        };
        let parse = |s: &str, what: &str| -> Result<f64, PowerError> {
            s.parse::<f64>().map_err(|_| {
                PowerError::InvalidParameter(format!(
                    "flp line {}: {what} '{s}' is not a number",
                    lineno + 1
                ))
            })
        };
        let w = parse(w, "width")?;
        let h = parse(h, "height")?;
        let x = parse(x, "left-x")?;
        let y = parse(y, "bottom-y")?;
        // `1e999` parses to +∞ and `NaN` parses to NaN, so a plain
        // `w <= 0.0` check lets both through; require finiteness explicitly.
        for (what, v) in [("width", w), ("height", h), ("left-x", x), ("bottom-y", y)] {
            if !v.is_finite() {
                return Err(PowerError::InvalidParameter(format!(
                    "flp line {}: unit '{name}' has non-finite {what} {v}",
                    lineno + 1,
                )));
            }
        }
        if w <= 0.0 || h <= 0.0 {
            return Err(PowerError::InvalidParameter(format!(
                "flp line {}: unit '{name}' has nonpositive extent",
                lineno + 1,
            )));
        }
        units.push(Unit::new(*name, Rect::new(x, y, x + w, y + h)));
    }
    if units.is_empty() {
        return Err(PowerError::InvalidParameter(
            "flp file contains no units".into(),
        ));
    }
    let x1 = units
        .iter()
        .map(|u| u.rect().x1)
        .fold(f64::NEG_INFINITY, f64::max);
    let y1 = units
        .iter()
        .map(|u| u.rect().y1)
        .fold(f64::NEG_INFINITY, f64::max);
    // Units must start at the origin for the bounding box to be the die.
    let x0 = units
        .iter()
        .map(|u| u.rect().x0)
        .fold(f64::INFINITY, f64::min);
    let y0 = units
        .iter()
        .map(|u| u.rect().y0)
        .fold(f64::INFINITY, f64::min);
    if x0.abs() > 1e-12 || y0.abs() > 1e-12 {
        return Err(PowerError::InvalidParameter(format!(
            "flp units must be anchored at the origin; bounding box starts at ({x0}, {y0})"
        )));
    }
    Floorplan::new(name, Meters(x1), Meters(y1), units)
}

/// Serializes a floorplan to the `.flp` format.
pub fn to_flp(plan: &Floorplan) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} — {} units, {:.1} x {:.1} mm\n",
        plan.name(),
        plan.unit_count(),
        plan.width().to_millimeters(),
        plan.height().to_millimeters()
    ));
    for u in plan.units() {
        let r = u.rect();
        out.push_str(&format!(
            "{}\t{:.6e}\t{:.6e}\t{:.6e}\t{:.6e}\n",
            u.name(),
            r.width(),
            r.height(),
            r.x0,
            r.y0
        ));
    }
    out
}

/// Parses a HotSpot `.ptrace` power trace against a floorplan: one
/// [`PowerProfile`] per data row. Columns are matched to units by header
/// name in any order; every unit of the plan must be present.
///
/// # Errors
///
/// Returns [`PowerError::UnknownUnit`] for a header naming a foreign unit,
/// [`PowerError::DuplicateUnit`] for a header naming a unit twice,
/// [`PowerError::ProfileMismatch`] (counting the plan units the header
/// matched) if a unit is missing, and [`PowerError::InvalidParameter`] for
/// malformed rows.
pub fn parse_ptrace(plan: &Floorplan, text: &str) -> Result<Vec<PowerProfile>, PowerError> {
    let mut lines = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty());
    let header = lines
        .next()
        .ok_or_else(|| PowerError::InvalidParameter("ptrace file is empty".into()))?;
    let names: Vec<&str> = header.split_whitespace().collect();
    // The header column of each plan unit; a repeated name would shadow
    // (and silently drop) a column.
    let mut column_of_unit = vec![None; plan.unit_count()];
    for (col, name) in names.iter().enumerate() {
        let slot = column_of_unit.get_mut(plan.unit_index(name)?);
        if slot.and_then(|slot| slot.replace(col)).is_some() {
            return Err(PowerError::DuplicateUnit {
                unit: (*name).to_string(),
            });
        }
    }
    let columns: Vec<usize> = column_of_unit.iter().flatten().copied().collect();
    if columns.len() != plan.unit_count() {
        return Err(PowerError::ProfileMismatch {
            expected: plan.unit_count(),
            actual: columns.len(),
        });
    }
    let mut profiles = Vec::new();
    for (rowno, row) in lines.enumerate() {
        let values: Vec<&str> = row.split_whitespace().collect();
        if values.len() != names.len() {
            return Err(PowerError::InvalidParameter(format!(
                "ptrace row {}: {} values for {} columns",
                rowno + 1,
                values.len(),
                names.len()
            )));
        }
        let power = |col: &usize| {
            let text = values.get(*col).copied().unwrap_or_default();
            let v: f64 = text.parse().map_err(|_| {
                PowerError::InvalidParameter(format!(
                    "ptrace row {}: '{text}' is not a number",
                    rowno + 1
                ))
            })?;
            if !v.is_finite() {
                return Err(PowerError::InvalidParameter(format!(
                    "ptrace row {}: power {v} W is not finite",
                    rowno + 1
                )));
            }
            Ok(Watts(v))
        };
        let powers = columns.iter().map(power).collect::<Result<Vec<_>, _>>()?;
        profiles.push(PowerProfile::new(plan, powers)?);
    }
    Ok(profiles)
}

/// Serializes power profiles (all over the same plan) to the `.ptrace`
/// format.
///
/// # Errors
///
/// Returns [`PowerError::InvalidParameter`] if `profiles` is empty or the
/// profiles disagree on the floorplan.
pub fn to_ptrace(profiles: &[PowerProfile]) -> Result<String, PowerError> {
    let plan = profiles
        .first()
        .ok_or_else(|| PowerError::InvalidParameter("need at least one profile".into()))?
        .plan();
    for p in profiles {
        if p.plan() != plan {
            return Err(PowerError::InvalidParameter(
                "profiles must share one floorplan".into(),
            ));
        }
    }
    let mut out = String::new();
    let names: Vec<&str> = plan.units().iter().map(|u| u.name()).collect();
    out.push_str(&names.join("\t"));
    out.push('\n');
    for p in profiles {
        let row: Vec<String> = p
            .unit_powers()
            .iter()
            .map(|w| format!("{:.6}", w.value()))
            .collect();
        out.push_str(&row.join("\t"));
        out.push('\n');
    }
    Ok(out)
}

/// The worst-case envelope of a set of trace rows plus a safety margin —
/// the paper's "worst case power consumption … added a 20% margin" applied
/// to file traces instead of the synthetic suite.
///
/// # Errors
///
/// Returns [`PowerError::InvalidParameter`] for an empty set, a negative
/// margin, or mismatched plans.
pub fn worst_case_of(profiles: &[PowerProfile], margin: f64) -> Result<PowerProfile, PowerError> {
    let first = profiles
        .first()
        .ok_or_else(|| PowerError::InvalidParameter("worst case of an empty trace set".into()))?;
    if margin < 0.0 || !margin.is_finite() {
        return Err(PowerError::InvalidParameter(format!(
            "margin must be nonnegative, got {margin}"
        )));
    }
    let plan = first.plan().clone();
    let mut max = vec![0.0_f64; plan.unit_count()];
    for p in profiles {
        if p.plan() != &plan {
            return Err(PowerError::InvalidParameter(
                "trace rows use different floorplans".into(),
            ));
        }
        for (m, w) in max.iter_mut().zip(p.unit_powers()) {
            *m = m.max(w.value());
        }
    }
    PowerProfile::new(
        &plan,
        max.into_iter().map(|v| Watts(v * (1.0 + margin))).collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha21364_like;

    #[test]
    fn flp_round_trip_preserves_the_alpha_plan() {
        let plan = alpha21364_like().unwrap();
        let text = to_flp(&plan);
        let back = parse_flp("alpha21364-like", &text).unwrap();
        assert_eq!(back.unit_count(), plan.unit_count());
        for (a, b) in plan.units().iter().zip(back.units()) {
            assert_eq!(a.name(), b.name());
            assert!((a.rect().x0 - b.rect().x0).abs() < 1e-12);
            assert!((a.rect().area() - b.rect().area()).abs() < 1e-15);
        }
        assert!((back.width().value() - plan.width().value()).abs() < 1e-12);
    }

    #[test]
    fn flp_parsing_handles_comments_and_errors() {
        let good = "# comment\nA\t1.0\t1.0\t0.0\t0.0\nB\t1.0\t1.0\t1.0\t0.0 # trailing\n";
        let plan = parse_flp("demo", good).unwrap();
        assert_eq!(plan.unit_count(), 2);
        assert!(parse_flp("x", "").is_err());
        assert!(parse_flp("x", "A 1.0 1.0 0.0").is_err());
        assert!(parse_flp("x", "A w 1.0 0.0 0.0").is_err());
        assert!(parse_flp("x", "A -1.0 1.0 0.0 0.0").is_err());
        // Not anchored at origin.
        assert!(parse_flp("x", "A 1.0 1.0 5.0 5.0").is_err());
    }

    #[test]
    fn flp_rejects_non_finite_fields() {
        // Regression: `NaN <= 0.0` is false, so a NaN width used to sail
        // through the nonpositive-extent check; `1e999` parses as +∞.
        for bad in [
            "A NaN 1.0 0.0 0.0",
            "A 1.0 nan 0.0 0.0",
            "A 1e999 1.0 0.0 0.0",
            "A 1.0 1.0 inf 0.0",
            "A 1.0 1.0 0.0 -inf",
        ] {
            match parse_flp("x", bad) {
                Err(PowerError::InvalidParameter(msg)) => {
                    assert!(msg.contains("non-finite"), "line '{bad}' gave '{msg}'")
                }
                other => panic!("'{bad}' must be rejected as non-finite, got {other:?}"),
            }
        }
    }

    #[test]
    fn ptrace_rejects_non_finite_powers() {
        let plan = parse_flp("demo", "A\t1.0\t1.0\t0.0\t0.0\nB\t1.0\t1.0\t1.0\t0.0\n").unwrap();
        for bad in ["A B\nNaN 1.0\n", "A B\n1.0 inf\n", "A B\n1e999 1.0\n"] {
            match parse_ptrace(&plan, bad) {
                Err(PowerError::InvalidParameter(msg)) => {
                    assert!(msg.contains("not finite"), "trace '{bad}' gave '{msg}'")
                }
                other => panic!("'{bad}' must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    fn to_ptrace_errors_instead_of_panicking() {
        assert!(matches!(
            to_ptrace(&[]),
            Err(PowerError::InvalidParameter(_))
        ));
        let plan_a = parse_flp("a", "A\t1.0\t1.0\t0.0\t0.0\n").unwrap();
        let plan_b = parse_flp("b", "B\t2.0\t2.0\t0.0\t0.0\n").unwrap();
        let pa = PowerProfile::new(&plan_a, vec![Watts(1.0)]).unwrap();
        let pb = PowerProfile::new(&plan_b, vec![Watts(1.0)]).unwrap();
        assert!(to_ptrace(&[pa, pb]).is_err());
    }

    #[test]
    fn ptrace_round_trip() {
        let plan = alpha21364_like().unwrap();
        let rows: Vec<PowerProfile> = (1..=3)
            .map(|k| {
                PowerProfile::new(
                    &plan,
                    (0..plan.unit_count())
                        .map(|u| Watts(0.1 * k as f64 + 0.01 * u as f64))
                        .collect(),
                )
                .unwrap()
            })
            .collect();
        let text = to_ptrace(&rows).unwrap();
        let back = parse_ptrace(&plan, &text).unwrap();
        assert_eq!(back.len(), 3);
        for (a, b) in rows.iter().zip(&back) {
            for (x, y) in a.unit_powers().iter().zip(b.unit_powers()) {
                assert!((x.value() - y.value()).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn ptrace_column_order_is_free() {
        let plan = parse_flp("demo", "A\t1.0\t1.0\t0.0\t0.0\nB\t1.0\t1.0\t1.0\t0.0\n").unwrap();
        let text = "B A\n2.0 1.0\n";
        let rows = parse_ptrace(&plan, text).unwrap();
        assert_eq!(rows[0].unit_power("A").unwrap(), Watts(1.0));
        assert_eq!(rows[0].unit_power("B").unwrap(), Watts(2.0));
    }

    #[test]
    fn ptrace_errors() {
        let plan = parse_flp("demo", "A\t1.0\t1.0\t0.0\t0.0\nB\t1.0\t1.0\t1.0\t0.0\n").unwrap();
        assert!(parse_ptrace(&plan, "").is_err());
        assert!(parse_ptrace(&plan, "A Z\n1 2\n").is_err());
        assert!(parse_ptrace(&plan, "A\n1\n").is_err()); // B missing
        assert!(parse_ptrace(&plan, "A B\n1\n").is_err()); // short row
        assert!(parse_ptrace(&plan, "A B\n1 x\n").is_err()); // bad number
    }

    #[test]
    fn worst_case_envelope_of_traces() {
        let plan = parse_flp("demo", "A\t1.0\t1.0\t0.0\t0.0\nB\t1.0\t1.0\t1.0\t0.0\n").unwrap();
        let rows = parse_ptrace(&plan, "A B\n1.0 5.0\n3.0 2.0\n").unwrap();
        let wc = worst_case_of(&rows, 0.2).unwrap();
        assert!((wc.unit_power("A").unwrap().value() - 3.6).abs() < 1e-12);
        assert!((wc.unit_power("B").unwrap().value() - 6.0).abs() < 1e-12);
        assert!(worst_case_of(&[], 0.2).is_err());
        assert!(worst_case_of(&rows, -0.5).is_err());
    }
}
