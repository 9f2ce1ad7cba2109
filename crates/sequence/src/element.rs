//! Element types and the [`Element`] trait.
//!
//! A sequence in the paper is `Q = (q1, …, q|Q|)` with elements drawn from an
//! alphabet `Σφ`. `Σ` can be a finite character set (strings) or an infinite,
//! multi-dimensional space (time series). Every distance function in
//! `ssr-distance` is defined on top of a *ground distance* between individual
//! elements, so the only requirements placed on an element type are:
//!
//! * a symmetric, non-negative ground distance that satisfies the triangle
//!   inequality (needed so that DTW / ERP / discrete Fréchet built on top of it
//!   behave as described in the paper), and
//! * a designated *gap element* `g` used by ERP, which charges
//!   `ground_distance(x, g)` for unmatched elements.

use std::fmt;

/// An element of a sequence.
///
/// Implementors must guarantee that [`Element::ground_distance`] is
/// non-negative, symmetric, zero on equal elements, and satisfies the triangle
/// inequality. All the element types shipped with this crate do.
pub trait Element: Clone + PartialEq + fmt::Debug {
    /// Ground distance between two elements.
    fn ground_distance(&self, other: &Self) -> f64;

    /// The gap element `g` used by the ERP distance (Chen & Ng, VLDB 2004).
    ///
    /// For numeric elements this is the origin; for symbolic elements it is a
    /// dedicated sentinel that is at distance 1 from every real symbol.
    fn gap() -> Self;

    /// An upper bound on the ground distance between any two elements of this
    /// type, if one exists (e.g. 1.0 for symbols, 11.0 for pitches).
    ///
    /// Used to derive maximum sequence distances for bounded alphabets, which
    /// the evaluation (Figures 8 and 12) expresses query ranges against.
    fn max_ground_distance() -> Option<f64> {
        None
    }

    /// A one-byte code for this element, if its type has one.
    ///
    /// The contract: equal codes ⟺ equal elements, and a type gives a code
    /// to every one of its values or to none. A kernel over a small alphabet
    /// may then index a 256-entry table by code instead of comparing
    /// elements (Levenshtein's bit-vector program builds its match masks
    /// this way). The default is `None`: no code, and such kernels fall back
    /// to their element-by-element program.
    fn small_code(&self) -> Option<u8> {
        None
    }
}

/// A symbol of a finite alphabet, e.g. a DNA base or an amino-acid code.
///
/// The ground distance is the discrete metric (0 if equal, 1 otherwise), which
/// makes Hamming and Levenshtein the natural sequence distances.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u8);

/// Sentinel code used for [`Symbol`]'s gap element.
///
/// No alphabet shipped with this crate uses code 255, so the gap symbol is at
/// distance 1 from every real symbol, as required by ERP over strings.
pub const GAP_SYMBOL_CODE: u8 = u8::MAX;

impl Symbol {
    /// Creates a symbol from an ASCII character.
    pub fn from_char(c: char) -> Self {
        Symbol(c as u8)
    }

    /// Returns the symbol as a `char` (lossy for non-ASCII codes).
    pub fn to_char(self) -> char {
        self.0 as char
    }

    /// Whether this symbol is the ERP gap sentinel.
    pub fn is_gap(self) -> bool {
        self.0 == GAP_SYMBOL_CODE
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_gap() {
            write!(f, "Symbol(GAP)")
        } else if self.0.is_ascii_graphic() {
            write!(f, "Symbol('{}')", self.0 as char)
        } else {
            write!(f, "Symbol({})", self.0)
        }
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_ascii_graphic() {
            write!(f, "{}", self.0 as char)
        } else {
            write!(f, "#{}", self.0)
        }
    }
}

impl Element for Symbol {
    fn ground_distance(&self, other: &Self) -> f64 {
        if self == other {
            0.0
        } else {
            1.0
        }
    }

    fn gap() -> Self {
        Symbol(GAP_SYMBOL_CODE)
    }

    fn max_ground_distance() -> Option<f64> {
        Some(1.0)
    }

    /// The symbol's byte: 256 values, 256 codes.
    fn small_code(&self) -> Option<u8> {
        Some(self.0)
    }
}

/// A pitch value in `0..=11`, the element type of the SONGS dataset.
///
/// The paper notes that "the pitch values range between 0 and 11", which makes
/// the discrete Fréchet distance distribution on SONGS extremely skewed
/// (Figure 4). The ground distance is the absolute difference of pitch values.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct Pitch(pub i16);

impl Pitch {
    /// Largest pitch value produced by the SONGS generator.
    pub const MAX: i16 = 11;

    /// Creates a pitch, clamping into the valid `0..=11` range.
    pub fn clamped(value: i16) -> Self {
        Pitch(value.clamp(0, Self::MAX))
    }

    /// Raw pitch value.
    pub fn value(self) -> i16 {
        self.0
    }
}

impl Element for Pitch {
    fn ground_distance(&self, other: &Self) -> f64 {
        f64::from((self.0 - other.0).abs() as i32)
    }

    fn gap() -> Self {
        Pitch(0)
    }

    fn max_ground_distance() -> Option<f64> {
        Some(f64::from(Self::MAX as i32))
    }
}

impl Element for f64 {
    fn ground_distance(&self, other: &Self) -> f64 {
        (self - other).abs()
    }

    fn gap() -> Self {
        0.0
    }
}

/// A point in the plane; the element type of the TRAJ (trajectory) dataset.
///
/// Ground distance is the Euclidean (L2) distance between points, matching the
/// per-coupling cost the paper uses for DTW / ERP / discrete Fréchet on
/// trajectories.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point2D {
    /// Horizontal coordinate (e.g. longitude or metres east).
    pub x: f64,
    /// Vertical coordinate (e.g. latitude or metres north).
    pub y: f64,
}

impl Point2D {
    /// Creates a new 2-D point.
    pub fn new(x: f64, y: f64) -> Self {
        Point2D { x, y }
    }

    /// Euclidean norm of the point treated as a vector from the origin.
    pub fn norm(&self) -> f64 {
        self.x.hypot(self.y)
    }
}

impl Element for Point2D {
    /// `√(dx² + dy²)`, as [`Point3D`]'s. Where the sum of squares is not a
    /// normal number — it overflowed, underflowed, or the points are equal —
    /// `hypot` takes over, so a finite difference never reads `∞` and a
    /// nonzero one never reads `0`.
    fn ground_distance(&self, other: &Self) -> f64 {
        let (dx, dy) = (self.x - other.x, self.y - other.y);
        let squares = dx * dx + dy * dy;
        if squares.is_normal() {
            squares.sqrt()
        } else {
            dx.hypot(dy)
        }
    }

    fn gap() -> Self {
        Point2D { x: 0.0, y: 0.0 }
    }
}

/// A point in 3-D space, for tracks over a 3-D volume (`ΣT ⊆ R³` in the paper).
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Point3D {
    /// X coordinate.
    pub x: f64,
    /// Y coordinate.
    pub y: f64,
    /// Z coordinate.
    pub z: f64,
}

impl Point3D {
    /// Creates a new 3-D point.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Point3D { x, y, z }
    }
}

impl Element for Point3D {
    /// `√(dx² + dy² + dz²)`; where the sum of squares is not a normal
    /// number, the scaled form `hypot(hypot(dx, dy), dz)`, as for
    /// [`Point2D`].
    fn ground_distance(&self, other: &Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        let squares = dx * dx + dy * dy + dz * dz;
        if squares.is_normal() {
            squares.sqrt()
        } else {
            dx.hypot(dy).hypot(dz)
        }
    }

    fn gap() -> Self {
        Point3D {
            x: 0.0,
            y: 0.0,
            z: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_ground_distance_is_discrete_metric() {
        let a = Symbol::from_char('A');
        let b = Symbol::from_char('C');
        assert_eq!(a.ground_distance(&a), 0.0);
        assert_eq!(a.ground_distance(&b), 1.0);
        assert_eq!(b.ground_distance(&a), 1.0);
    }

    #[test]
    fn symbol_gap_is_distinct_from_alphabet() {
        let gap = Symbol::gap();
        assert!(gap.is_gap());
        for c in "ACDEFGHIKLMNPQRSTVWY".chars() {
            assert_eq!(gap.ground_distance(&Symbol::from_char(c)), 1.0);
        }
    }

    #[test]
    fn symbol_display_and_debug() {
        let a = Symbol::from_char('Q');
        assert_eq!(format!("{a}"), "Q");
        assert_eq!(format!("{a:?}"), "Symbol('Q')");
        assert_eq!(format!("{:?}", Symbol::gap()), "Symbol(GAP)");
        assert_eq!(format!("{}", Symbol(3)), "#3");
    }

    #[test]
    fn pitch_ground_distance_is_absolute_difference() {
        assert_eq!(Pitch(3).ground_distance(&Pitch(8)), 5.0);
        assert_eq!(Pitch(8).ground_distance(&Pitch(3)), 5.0);
        assert_eq!(Pitch(11).ground_distance(&Pitch(0)), 11.0);
        assert_eq!(Pitch(5).ground_distance(&Pitch(5)), 0.0);
    }

    #[test]
    fn pitch_clamps_into_range() {
        assert_eq!(Pitch::clamped(-3).value(), 0);
        assert_eq!(Pitch::clamped(42).value(), 11);
        assert_eq!(Pitch::clamped(7).value(), 7);
    }

    #[test]
    fn pitch_max_ground_distance_matches_alphabet_span() {
        assert_eq!(Pitch::max_ground_distance(), Some(11.0));
    }

    #[test]
    fn scalar_ground_distance() {
        assert_eq!(2.5_f64.ground_distance(&-1.5), 4.0);
        assert_eq!(f64::gap(), 0.0);
    }

    #[test]
    fn point2d_ground_distance_is_euclidean() {
        let a = Point2D::new(0.0, 0.0);
        let b = Point2D::new(3.0, 4.0);
        assert!((a.ground_distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.ground_distance(&a), 0.0);
    }

    #[test]
    fn point3d_ground_distance_is_euclidean() {
        let a = Point3D::new(1.0, 2.0, 3.0);
        let b = Point3D::new(1.0, 2.0, 3.0);
        assert_eq!(a.ground_distance(&b), 0.0);
        let c = Point3D::new(1.0, 2.0, 5.0);
        assert!((a.ground_distance(&c) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn point_ground_distances_neither_overflow_nor_underflow() {
        for scale in [1e200, 1e-170] {
            let d2 = Point2D::new(scale, scale).ground_distance(&Point2D::default());
            assert!(d2.is_finite() && d2 > 0.0, "2-D at {scale}: {d2}");
            assert!((d2 / (scale * 2f64.sqrt()) - 1.0).abs() < 1e-15, "{d2}");
            let d3 = Point3D::new(scale, -scale, scale).ground_distance(&Point3D::default());
            assert!(d3.is_finite() && d3 > 0.0, "3-D at {scale}: {d3}");
            assert!((d3 / (scale * 3f64.sqrt()) - 1.0).abs() < 1e-15, "{d3}");
        }
    }

    #[test]
    fn ground_distance_triangle_inequality_spot_checks() {
        let pts = [
            Point2D::new(0.0, 0.0),
            Point2D::new(1.0, 2.0),
            Point2D::new(-3.0, 0.5),
        ];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(
                        a.ground_distance(c) <= a.ground_distance(b) + b.ground_distance(c) + 1e-12
                    );
                }
            }
        }
    }
}
