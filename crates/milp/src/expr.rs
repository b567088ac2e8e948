//! Linear expressions over model variables.
//!
//! [`LinExpr`] is a small sum-of-terms representation with operator
//! overloads so that constraint code at the call site reads like the maths
//! in the paper, e.g. `tin(e) - tout(ep) >= beta` is written
//! `m.add_constraint(tin - tout, cmp::GE, beta)`.

use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// Identifier of a variable inside one [`Model`](crate::Model).
///
/// `VarId`s are only meaningful for the model that created them; using an id
/// from another model is caught by the debug assertions in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable in the owning model (construction order).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A linear expression `Σ coeff_i · var_i + constant`.
///
/// Terms are kept unsorted and possibly duplicated while building; they are
/// merged by [`LinExpr::compact`] (called by the model when the expression
/// is committed to a constraint or objective).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinExpr {
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) constant: f64,
}

impl LinExpr {
    /// The empty expression (`0`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Expression consisting of a bare constant.
    pub fn constant(c: f64) -> Self {
        LinExpr {
            terms: Vec::new(),
            constant: c,
        }
    }

    /// Expression consisting of a single variable with coefficient 1.
    pub fn var(v: VarId) -> Self {
        LinExpr {
            terms: vec![(v, 1.0)],
            constant: 0.0,
        }
    }

    /// Expression `coeff · v`.
    pub fn term(v: VarId, coeff: f64) -> Self {
        LinExpr {
            terms: vec![(v, coeff)],
            constant: 0.0,
        }
    }

    /// The additive constant of the expression.
    pub fn constant_part(&self) -> f64 {
        self.constant
    }

    /// Iterates over `(variable, coefficient)` terms (possibly un-merged).
    pub fn iter(&self) -> impl Iterator<Item = (VarId, f64)> + '_ {
        self.terms.iter().copied()
    }

    /// `true` if the expression has no variable terms (after compaction).
    pub fn is_constant(&self) -> bool {
        self.terms.iter().all(|&(_, c)| c == 0.0)
    }

    /// Merges duplicate variables and drops zero coefficients.
    pub fn compact(&mut self) {
        if self.terms.len() <= 1 {
            self.terms.retain(|&(_, c)| c != 0.0);
            return;
        }
        self.terms.sort_by_key(|&(v, _)| v);
        let mut out: Vec<(VarId, f64)> = Vec::with_capacity(self.terms.len());
        for &(v, c) in &self.terms {
            match out.last_mut() {
                Some((lv, lc)) if *lv == v => *lc += c,
                _ => out.push((v, c)),
            }
        }
        out.retain(|&(_, c)| c != 0.0);
        self.terms = out;
    }

    /// Evaluates the expression under an assignment (indexed by
    /// [`VarId::index`]).
    ///
    /// # Panics
    ///
    /// Panics if a referenced variable index is out of range for `values`.
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.constant
            + self
                .terms
                .iter()
                .map(|&(v, c)| c * values[v.0])
                .sum::<f64>()
    }
}

impl From<VarId> for LinExpr {
    fn from(v: VarId) -> Self {
        LinExpr::var(v)
    }
}

impl From<f64> for LinExpr {
    fn from(c: f64) -> Self {
        LinExpr::constant(c)
    }
}

impl FromIterator<(VarId, f64)> for LinExpr {
    fn from_iter<I: IntoIterator<Item = (VarId, f64)>>(iter: I) -> Self {
        LinExpr {
            terms: iter.into_iter().collect(),
            constant: 0.0,
        }
    }
}

// --- operator overloads -------------------------------------------------

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
        self
    }
}

impl AddAssign for LinExpr {
    fn add_assign(&mut self, rhs: LinExpr) {
        self.terms.extend(rhs.terms);
        self.constant += rhs.constant;
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: LinExpr) -> LinExpr {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
        self
    }
}

impl SubAssign for LinExpr {
    fn sub_assign(&mut self, rhs: LinExpr) {
        self.terms
            .extend(rhs.terms.into_iter().map(|(v, c)| (v, -c)));
        self.constant -= rhs.constant;
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(mut self) -> LinExpr {
        for t in &mut self.terms {
            t.1 = -t.1;
        }
        self.constant = -self.constant;
        self
    }
}

impl Mul<f64> for LinExpr {
    type Output = LinExpr;
    fn mul(mut self, rhs: f64) -> LinExpr {
        for t in &mut self.terms {
            t.1 *= rhs;
        }
        self.constant *= rhs;
        self
    }
}

impl Mul<LinExpr> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: LinExpr) -> LinExpr {
        rhs * self
    }
}

// Mixed VarId/LinExpr/f64 conveniences.

impl Add<VarId> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: VarId) -> LinExpr {
        self.terms.push((rhs, 1.0));
        self
    }
}

impl Sub<VarId> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: VarId) -> LinExpr {
        self.terms.push((rhs, -1.0));
        self
    }
}

impl Add<f64> for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: f64) -> LinExpr {
        self.constant += rhs;
        self
    }
}

impl Sub<f64> for LinExpr {
    type Output = LinExpr;
    fn sub(mut self, rhs: f64) -> LinExpr {
        self.constant -= rhs;
        self
    }
}

impl Add<LinExpr> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: LinExpr) -> LinExpr {
        LinExpr::var(self) + rhs
    }
}

impl Sub<LinExpr> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        LinExpr::var(self) - rhs
    }
}

impl Add for VarId {
    type Output = LinExpr;
    fn add(self, rhs: VarId) -> LinExpr {
        LinExpr::var(self) + rhs
    }
}

impl Sub for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: VarId) -> LinExpr {
        LinExpr::var(self) - rhs
    }
}

impl Mul<f64> for VarId {
    type Output = LinExpr;
    fn mul(self, rhs: f64) -> LinExpr {
        LinExpr::term(self, rhs)
    }
}

impl Add<f64> for VarId {
    type Output = LinExpr;
    fn add(self, rhs: f64) -> LinExpr {
        LinExpr::var(self) + rhs
    }
}

impl Sub<f64> for VarId {
    type Output = LinExpr;
    fn sub(self, rhs: f64) -> LinExpr {
        LinExpr::var(self) - rhs
    }
}

impl Mul<VarId> for f64 {
    type Output = LinExpr;
    fn mul(self, rhs: VarId) -> LinExpr {
        LinExpr::term(rhs, self)
    }
}

impl Neg for VarId {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr::term(self, -1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId(i)
    }

    #[test]
    fn builds_and_compacts() {
        let mut e = 2.0 * v(0) + v(1) - v(0) + 3.0;
        e.compact();
        assert_eq!(e.terms, vec![(v(0), 1.0), (v(1), 1.0)]);
        assert_eq!(e.constant, 3.0);
    }

    #[test]
    fn compact_drops_zero_terms() {
        let mut e = v(2) - v(2) + 1.0 * v(1);
        e.compact();
        assert_eq!(e.terms, vec![(v(1), 1.0)]);
        assert!(!e.is_constant());
        let mut z = v(0) - v(0);
        z.compact();
        assert!(z.is_constant());
    }

    #[test]
    fn eval_matches_hand_computation() {
        let e = 2.0 * v(0) - 0.5 * v(1) + 7.0;
        assert_eq!(e.eval(&[3.0, 4.0]), 6.0 - 2.0 + 7.0);
    }

    #[test]
    fn neg_negates_everything() {
        let e = -(2.0 * v(0) + 1.0);
        assert_eq!(e.eval(&[1.0]), -3.0);
    }

    #[test]
    fn from_iterator_collects_terms() {
        let e: LinExpr = vec![(v(0), 1.0), (v(3), 2.0)].into_iter().collect();
        assert_eq!(e.eval(&[1.0, 0.0, 0.0, 2.0]), 5.0);
    }

    #[test]
    fn scalar_multiplication_scales_constant() {
        let e = (v(0) + 2.0) * 3.0;
        assert_eq!(e.constant_part(), 6.0);
        assert_eq!(e.eval(&[1.0]), 9.0);
    }
}
