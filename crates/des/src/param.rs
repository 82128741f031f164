//! Range rules for numeric config parameters.
//!
//! Config validators (scenario profiles, distributions, fault specs) check
//! each number against one of these rules and report the first failure as
//! `"<path>: must be <rule>, got <value>"`, led by the field's path.

/// What a numeric config field must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Any finite number.
    Finite,
    /// Finite and > 0.
    Positive,
    /// Finite and ≥ 0.
    NonNegative,
    /// Finite and ≥ the bound.
    AtLeast(f64),
    /// In `[0, 1]`.
    Probability,
}

impl Rule {
    /// `Ok` if `v` satisfies the rule, else the error for the field at `path`.
    pub fn check(self, path: &str, v: f64) -> Result<(), String> {
        let (ok, want) = match self {
            Rule::Finite => (v.is_finite(), "finite".to_string()),
            Rule::Positive => (v.is_finite() && v > 0.0, "positive and finite".into()),
            Rule::NonNegative => (v.is_finite() && v >= 0.0, "non-negative and finite".into()),
            Rule::AtLeast(lo) => (v.is_finite() && v >= lo, format!("finite and >= {lo}")),
            Rule::Probability => ((0.0..=1.0).contains(&v), "a probability in [0, 1]".into()),
        };
        if ok {
            Ok(())
        } else {
            Err(format!("{path}: must be {want}, got {v}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_accept_and_reject() {
        assert_eq!(Rule::Finite.check("x", -3.0), Ok(()));
        assert_eq!(Rule::NonNegative.check("x", 0.0), Ok(()));
        assert_eq!(Rule::AtLeast(1.0).check("x", 1.0), Ok(()));
        assert_eq!(Rule::Probability.check("x", 1.0), Ok(()));
        assert_eq!(
            Rule::Positive.check("a.b", 0.0),
            Err("a.b: must be positive and finite, got 0".into())
        );
        assert_eq!(
            Rule::AtLeast(3.0).check("hi", 1.0),
            Err("hi: must be finite and >= 3, got 1".into())
        );
        assert!(Rule::Finite.check("x", f64::NAN).is_err());
        assert!(Rule::NonNegative.check("x", f64::INFINITY).is_err());
        assert!(Rule::Probability.check("x", f64::NAN).is_err());
    }
}
