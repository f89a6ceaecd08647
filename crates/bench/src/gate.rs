//! Experiment gates: the claims `report` checks after it writes each
//! artefact.
//!
//! Every experiment's numbers type implements [`Numbers`]: it prints
//! itself, builds its artefact as an [`obs::json::Value`], and lists its
//! [`Gate`]s over its own typed fields. The artefact's schema and the
//! checks on it therefore live in one module, and `report` exits
//! non-zero when any gate fails.

use std::fmt;

use obs::json::Value;

/// One checked claim: what was measured, the bound it must meet, and
/// whether it met it.
#[derive(Debug)]
pub struct Gate {
    /// What the gate checks.
    pub(crate) name: String,
    /// The measured value.
    pub(crate) measured: String,
    /// The comparison and bound it must meet, e.g. `<= 3`.
    pub(crate) bound: String,
    /// Whether the measured value met the bound.
    pub passed: bool,
}

/// What a gate can measure: anything ordered and printable.
pub trait Measure: PartialOrd + fmt::Display {}
impl<T: PartialOrd + fmt::Display> Measure for T {}

impl Gate {
    fn new<T: Measure>(name: impl Into<String>, passed: bool, measured: T, op: &str, bound: T) -> Gate {
        let (name, measured, bound) = (name.into(), measured.to_string(), format!("{op} {bound}"));
        Gate { name, measured, bound, passed }
    }

    /// `measured` must be true.
    pub(crate) fn holds(name: impl Into<String>, measured: bool) -> Gate {
        Gate::new(name, measured, measured, "==", true)
    }

    /// `measured == bound`.
    pub fn equals<T: Measure>(name: impl Into<String>, measured: T, bound: T) -> Gate {
        Gate::new(name, measured == bound, measured, "==", bound)
    }

    /// `measured <= bound`.
    pub(crate) fn at_most<T: Measure>(name: impl Into<String>, measured: T, bound: T) -> Gate {
        Gate::new(name, measured <= bound, measured, "<=", bound)
    }

    /// `measured >= bound`.
    pub(crate) fn at_least<T: Measure>(name: impl Into<String>, measured: T, bound: T) -> Gate {
        Gate::new(name, measured >= bound, measured, ">=", bound)
    }

    /// `measured < bound`.
    pub(crate) fn below<T: Measure>(name: impl Into<String>, measured: T, bound: T) -> Gate {
        Gate::new(name, measured < bound, measured, "<", bound)
    }

    /// `measured > bound`.
    pub fn above<T: Measure>(name: impl Into<String>, measured: T, bound: T) -> Gate {
        Gate::new(name, measured > bound, measured, ">", bound)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed { "PASS" } else { "FAIL" };
        write!(f, "{verdict} {}: {} (bound {})", self.name, self.measured, self.bound)
    }
}

/// An experiment's typed result: printed, written as a JSON artefact,
/// and gated.
pub trait Numbers: fmt::Display {
    /// The artefact's `experiment` field, e.g. `"F9_scale"`.
    const EXPERIMENT: &'static str;

    /// The artefact document.
    fn to_json(&self) -> Value;

    /// Every claim the numbers must meet.
    fn gates(&self) -> Vec<Gate>;
}

/// The names of the gates `numbers` fails.
#[cfg(test)]
pub(crate) fn failing(numbers: &impl Numbers) -> Vec<String> {
    numbers.gates().into_iter().filter(|g| !g.passed).map(|g| g.name).collect()
}
