//! Station mobility and access-point fields.
//!
//! The paper's mobile stations "can be performed at anytime and from
//! anywhere" (§8) — which in simulation means positions that change. This
//! module provides a deterministic random-waypoint walk and a field of
//! access points with nearest-AP association, the two ingredients behind
//! every handoff experiment.

use rand::rngs::StdRng;
use rand::RngExt;

/// A point in the 2-D simulation plane, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// X coordinate in metres.
    pub x: f64,
    /// Y coordinate in metres.
    pub(crate) y: f64,
}

impl Point {
    /// Builds a point.
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    pub fn distance_to(self, other: Point) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// Random-waypoint mobility: walk to a uniformly chosen target inside a
/// rectangle at constant speed, then pick a new target.
///
/// ```
/// use wireless::mobility::{Point, Waypoint};
/// use simnet::rng::rng_for;
///
/// let mut walk = Waypoint::new(Point::new(0.0, 0.0), 100.0, 100.0, 1.5,
///                              rng_for(1, "walk"));
/// let before = walk.position();
/// walk.advance(10.0); // ten seconds at 1.5 m/s
/// assert!(walk.position().distance_to(before) <= 15.0 + 1e-9);
/// ```
#[derive(Debug)]
pub struct Waypoint {
    position: Point,
    target: Point,
    width: f64,
    height: f64,
    speed_mps: f64,
    rng: StdRng,
}

impl Waypoint {
    /// Creates a walk starting at `start` inside a `width`×`height` box,
    /// moving at `speed_mps`.
    ///
    /// # Panics
    ///
    /// Panics if the box is degenerate or the speed is not positive.
    pub fn new(start: Point, width: f64, height: f64, speed_mps: f64, mut rng: StdRng) -> Self {
        assert!(
            width > 0.0 && height > 0.0,
            "mobility box must have positive area"
        );
        assert!(speed_mps > 0.0, "speed must be positive");
        let target = Point::new(rng.random_range(0.0..width), rng.random_range(0.0..height));
        Waypoint {
            position: start,
            target,
            width,
            height,
            speed_mps,
            rng,
        }
    }

    /// Current position.
    pub fn position(&self) -> Point {
        self.position
    }

    /// Advances the walk by `dt_secs` seconds, possibly passing through
    /// several waypoints, and returns the new position.
    pub fn advance(&mut self, dt_secs: f64) -> Point {
        assert!(dt_secs >= 0.0, "time cannot flow backwards");
        let mut budget = self.speed_mps * dt_secs;
        while budget > 0.0 {
            let to_target = self.position.distance_to(self.target);
            if to_target <= budget {
                self.position = self.target;
                budget -= to_target;
                self.target = Point::new(
                    self.rng.random_range(0.0..self.width),
                    self.rng.random_range(0.0..self.height),
                );
                if to_target == 0.0 && budget > 0.0 {
                    // Degenerate same-point target; burn a step to make progress.
                    continue;
                }
            } else {
                let frac = budget / to_target;
                self.position = Point::new(
                    self.position.x + (self.target.x - self.position.x) * frac,
                    self.position.y + (self.target.y - self.position.y) * frac,
                );
                budget = 0.0;
            }
        }
        self.position
    }
}

/// A set of access points (or base stations) with nearest-AP association.
#[derive(Debug, Clone, Default)]
pub struct ApField {
    aps: Vec<Point>,
}

impl ApField {
    /// A regular 1-D corridor of `n` APs spaced `spacing` metres apart —
    /// the classic topology for handoff experiments.
    pub fn corridor(n: usize, spacing: f64) -> Self {
        ApField {
            aps: (0..n)
                .map(|i| Point::new(i as f64 * spacing, 0.0))
                .collect(),
        }
    }

    /// The index and distance of the AP nearest to `p`, or `None` when the
    /// field is empty. Signal strength is monotone in distance, so nearest
    /// AP = strongest signal.
    pub fn nearest(&self, p: Point) -> Option<(usize, f64)> {
        self.aps
            .iter()
            .enumerate()
            .map(|(i, ap)| (i, ap.distance_to(p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("distances are not NaN"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::rng_for;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance_to(a), 0.0);
    }

    #[test]
    fn walk_respects_speed_limit() {
        let mut w = Waypoint::new(Point::default(), 200.0, 200.0, 2.0, rng_for(3, "walk"));
        let mut prev = w.position();
        for _ in 0..100 {
            let next = w.advance(1.0);
            assert!(prev.distance_to(next) <= 2.0 + 1e-9);
            assert!(next.x >= 0.0 && next.x <= 200.0);
            assert!(next.y >= 0.0 && next.y <= 200.0);
            prev = next;
        }
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let run = |seed| {
            let mut w = Waypoint::new(Point::default(), 100.0, 100.0, 1.0, rng_for(seed, "walk"));
            for _ in 0..50 {
                w.advance(3.0);
            }
            let p = w.position();
            (p.x, p.y)
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn walk_eventually_moves() {
        let mut w = Waypoint::new(Point::default(), 100.0, 100.0, 1.0, rng_for(5, "walk"));
        w.advance(30.0);
        assert!(w.position().distance_to(Point::default()) > 0.0);
    }

    #[test]
    fn corridor_nearest_ap_switches_at_midpoint() {
        let field = ApField::corridor(3, 100.0);
        assert_eq!(field.aps.len(), 3);
        assert_eq!(field.nearest(Point::new(10.0, 0.0)).unwrap().0, 0);
        assert_eq!(field.nearest(Point::new(60.0, 0.0)).unwrap().0, 1);
        assert_eq!(field.nearest(Point::new(160.0, 0.0)).unwrap().0, 2);
    }

    #[test]
    fn empty_field_has_no_nearest() {
        assert!(ApField::default().nearest(Point::default()).is_none());
        assert!(ApField::default().aps.is_empty());
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_panics() {
        Waypoint::new(Point::default(), 10.0, 10.0, 0.0, rng_for(0, "walk"));
    }
}
