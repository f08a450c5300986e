//! Two-level experimental designs.

use std::collections::BTreeSet;
use std::fmt;

/// Errors for design construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DoeError {
    /// Factor count must be at least one.
    NoFactors,
    /// The requested design is too large to enumerate.
    TooLarge,
    /// A fractional-factorial generator was malformed.
    BadGenerator {
        /// Description of the defect.
        what: &'static str,
    },
}

impl fmt::Display for DoeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DoeError::NoFactors => write!(f, "design needs at least one factor"),
            DoeError::TooLarge => write!(f, "design too large to enumerate"),
            DoeError::BadGenerator { what } => write!(f, "bad generator: {what}"),
        }
    }
}

impl std::error::Error for DoeError {}

/// A two-level design matrix: one row per run, levels in `{-1, +1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DesignMatrix {
    /// Factor names, column order.
    pub factors: Vec<String>,
    /// Rows of `-1`/`+1` levels.
    pub rows: Vec<Vec<i8>>,
}

impl DesignMatrix {
    /// Number of runs.
    #[must_use]
    pub fn runs(&self) -> usize {
        self.rows.len()
    }

    /// Number of factors.
    #[must_use]
    pub fn factor_count(&self) -> usize {
        self.factors.len()
    }

    /// Whether every column is balanced (equal +1 and −1 counts).
    #[must_use]
    pub fn is_balanced(&self) -> bool {
        (0..self.factor_count()).all(|j| {
            let plus = self.rows.iter().filter(|r| r[j] == 1).count();
            plus * 2 == self.runs()
        })
    }

    /// Whether all column pairs are orthogonal (zero dot product).
    #[must_use]
    pub fn is_orthogonal(&self) -> bool {
        let k = self.factor_count();
        for a in 0..k {
            for b in (a + 1)..k {
                let dot: i32 = self
                    .rows
                    .iter()
                    .map(|r| i32::from(r[a]) * i32::from(r[b]))
                    .sum();
                if dot != 0 {
                    return false;
                }
            }
        }
        true
    }

    /// The level of factor `j` in run `i`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    #[must_use]
    pub fn level(&self, i: usize, j: usize) -> i8 {
        self.rows[i][j]
    }
}

impl fmt::Display for DesignMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "run")?;
        for name in &self.factors {
            write!(f, " {name:>10}")?;
        }
        writeln!(f)?;
        for (i, row) in self.rows.iter().enumerate() {
            write!(f, "{i:>3}")?;
            for &l in row {
                write!(f, " {:>10}", if l == 1 { "+1" } else { "-1" })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Full factorial 2^k design.
///
/// # Errors
///
/// Returns [`DoeError::NoFactors`] for empty input and
/// [`DoeError::TooLarge`] for more than 20 factors.
pub fn full_factorial(factors: &[&str]) -> Result<DesignMatrix, DoeError> {
    let k = factors.len();
    if k == 0 {
        return Err(DoeError::NoFactors);
    }
    if k > 20 {
        return Err(DoeError::TooLarge);
    }
    let rows = (0..(1usize << k))
        .map(|run| {
            (0..k)
                .map(|j| if run & (1 << j) != 0 { 1 } else { -1 })
                .collect()
        })
        .collect();
    Ok(DesignMatrix {
        factors: factors.iter().map(|s| (*s).to_string()).collect(),
        rows,
    })
}

/// Regular fractional factorial 2^(k−p).
///
/// The first `k − p` factors are *basic* (full factorial); each remaining
/// factor is generated as the product of a set of basic-factor columns.
/// `generators[i]` lists the basic-factor indices whose product defines
/// generated factor `k − p + i`.
///
/// Returns the design and its **defining relation words** (each word is
/// the set of factor indices whose product is identically +1), from which
/// the alias structure follows.
///
/// # Errors
///
/// Returns [`DoeError`] for empty factors, wrong generator count, or a
/// generator referencing a non-basic factor.
pub fn fractional_factorial(
    factors: &[&str],
    generators: &[Vec<usize>],
) -> Result<(DesignMatrix, Vec<BTreeSet<usize>>), DoeError> {
    let k = factors.len();
    let p = generators.len();
    if k == 0 {
        return Err(DoeError::NoFactors);
    }
    if p >= k {
        return Err(DoeError::BadGenerator {
            what: "more generators than factors",
        });
    }
    let basic = k - p;
    if basic > 20 {
        return Err(DoeError::TooLarge);
    }
    for g in generators {
        if g.is_empty() {
            return Err(DoeError::BadGenerator {
                what: "empty generator",
            });
        }
        if g.iter().any(|&i| i >= basic) {
            return Err(DoeError::BadGenerator {
                what: "generator must reference basic factors only",
            });
        }
    }
    let mut rows = Vec::with_capacity(1 << basic);
    for run in 0..(1usize << basic) {
        let mut row: Vec<i8> = (0..basic)
            .map(|j| if run & (1 << j) != 0 { 1 } else { -1 })
            .collect();
        for g in generators {
            let prod: i8 = g.iter().map(|&i| row[i]).product();
            row.push(prod);
        }
        rows.push(row);
    }
    // Defining words: for each generator, I = (generated factor) × (basic
    // factors in the generator).
    let words: Vec<BTreeSet<usize>> = generators
        .iter()
        .enumerate()
        .map(|(i, g)| {
            let mut w: BTreeSet<usize> = g.iter().copied().collect();
            w.insert(basic + i);
            w
        })
        .collect();
    Ok((
        DesignMatrix {
            factors: factors.iter().map(|s| (*s).to_string()).collect(),
            rows,
        },
        words,
    ))
}

/// The resolution of a fractional design: the length of the shortest word
/// in the (closed) defining relation. Resolution ≥ III means main effects
/// are unaliased with each other; ≥ IV means main effects are unaliased
/// with two-factor interactions.
#[must_use]
pub fn resolution(words: &[BTreeSet<usize>]) -> usize {
    // Close the word set under symmetric difference (group generated by
    // the defining words).
    let mut group: BTreeSet<BTreeSet<usize>> = BTreeSet::new();
    group.insert(BTreeSet::new());
    for w in words {
        let snapshot: Vec<BTreeSet<usize>> = group.iter().cloned().collect();
        for g in snapshot {
            let sym: BTreeSet<usize> = g.symmetric_difference(w).copied().collect();
            group.insert(sym);
        }
    }
    group
        .iter()
        .filter(|w| !w.is_empty())
        .map(BTreeSet::len)
        .min()
        .unwrap_or(usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_factorial_shape() {
        let d = full_factorial(&["A", "B", "C"]).unwrap();
        assert_eq!(d.runs(), 8);
        assert_eq!(d.factor_count(), 3);
        assert!(d.is_balanced());
        assert!(d.is_orthogonal());
        // All rows distinct.
        let set: std::collections::HashSet<_> = d.rows.iter().collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn full_factorial_errors() {
        assert_eq!(full_factorial(&[]).unwrap_err(), DoeError::NoFactors);
        let many: Vec<&str> = (0..25).map(|_| "x").collect();
        assert_eq!(full_factorial(&many).unwrap_err(), DoeError::TooLarge);
    }

    #[test]
    fn fractional_half_of_2_4() {
        // 2^(4-1) with D = ABC: resolution IV.
        let (d, words) = fractional_factorial(&["A", "B", "C", "D"], &[vec![0, 1, 2]]).unwrap();
        assert_eq!(d.runs(), 8);
        assert_eq!(d.factor_count(), 4);
        assert!(d.is_balanced());
        assert!(d.is_orthogonal(), "main effects unaliased in res-IV design");
        assert_eq!(words.len(), 1);
        assert_eq!(resolution(&words), 4);
        // D column equals product of A, B, C in every run.
        for row in &d.rows {
            assert_eq!(row[3], row[0] * row[1] * row[2]);
        }
    }

    #[test]
    fn r3_design_2_6_2() {
        // The experiment R3 design: 6 factors in 16 runs, generators
        // E = ABC, F = BCD (resolution IV).
        let (d, words) = fractional_factorial(
            &[
                "OS",
                "PLC-FW",
                "Protocol",
                "Firewall",
                "Sensor",
                "Historian",
            ],
            &[vec![0, 1, 2], vec![1, 2, 3]],
        )
        .unwrap();
        assert_eq!(d.runs(), 16);
        assert!(d.is_balanced());
        assert!(d.is_orthogonal());
        assert_eq!(resolution(&words), 4);
    }

    #[test]
    fn fractional_errors() {
        assert!(fractional_factorial(&[], &[]).is_err());
        assert!(fractional_factorial(&["A"], &[vec![0]]).is_err()); // p >= k
        assert!(
            fractional_factorial(&["A", "B", "C"], &[vec![5]]).is_err(),
            "generator referencing non-basic factor"
        );
        assert!(fractional_factorial(&["A", "B", "C"], &[vec![]]).is_err());
    }

    #[test]
    fn display_renders_runs() {
        let d = full_factorial(&["A", "B"]).unwrap();
        let s = d.to_string();
        assert!(s.contains("A"));
        assert!(s.contains("+1"));
        assert!(s.contains("-1"));
    }

    #[test]
    fn resolution_of_principal_fraction_2_5_2() {
        // 2^(5-2) with D = AB, E = AC → words {A,B,D}, {A,C,E}; their
        // product {B,C,D,E} has length 4; shortest is 3 → resolution III.
        let (_, words) =
            fractional_factorial(&["A", "B", "C", "D", "E"], &[vec![0, 1], vec![0, 2]]).unwrap();
        assert_eq!(resolution(&words), 3);
    }
}
