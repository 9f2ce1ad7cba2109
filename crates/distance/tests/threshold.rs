//! Property coverage for the threshold-aware kernels: for every distance and
//! every element type, `distance_within(a, b, τ)` must return `Some(d)` with
//! `d` **bit-identical** to `distance(a, b)` whenever the distance is within
//! `τ`, and `None` must imply the distance exceeds `τ` — including at the
//! adversarial band boundary `|len(a) − len(b)| ≈ τ` where an off-by-one in
//! the Ukkonen band would first show. Every end table must equal its
//! measure's kernel slot by slot, and the [`Unpruned`] ablation of a measure
//! must answer exactly as the measure does while doing the full work.
//! Levenshtein's bit-vector program is held to its banded one the same way,
//! and every free-start column to the minimum, over start points, of the
//! kernel's own distances.
//!
//! Every `to_bits` here compares two evaluations by the same build. On
//! points, the ground distance under them is `√(dx² + dy²)`, with `hypot`
//! only where the sum of squares is not a normal number; its low bits are
//! not `hypot`'s, and every point distance's moved once when it replaced
//! `hypot`.

use proptest::prelude::*;

use ssr_distance::{
    dp_cells_thread_total, lower_bound_prunes_thread_total, DiscreteFrechet, DistanceProperties,
    Dtw, EndSpec, Erp, Euclidean, Hamming, Levenshtein, SequenceDistance, Unpruned,
};
use ssr_sequence::{Element, Pitch, Point2D, Symbol};

/// Thresholds worth probing for a pair whose true distance is `d`: below,
/// exactly at, and above the distance, plus degenerate values.
fn probe_taus(d: f64) -> Vec<f64> {
    let mut taus = vec![0.0, f64::INFINITY, -1.0, f64::NAN];
    if d.is_finite() {
        taus.extend([d, d / 2.0, d - 0.5, d - 1e-9, d + 1e-9, d + 0.5, d * 2.0]);
    }
    taus
}

/// The exact contract: `Some(d)` (bitwise equal to the full distance) iff
/// `distance(a, b) ≤ τ`, `None` iff not.
fn assert_threshold_contract<E, D>(dist: &D, a: &[E], b: &[E])
where
    E: Element,
    D: SequenceDistance<E>,
{
    let full = dist.distance(a, b);
    for tau in probe_taus(full) {
        match dist.distance_within(a, b, tau) {
            Some(d) => {
                assert!(
                    full <= tau,
                    "{}: Some({d}) returned although full {full} > tau {tau}",
                    dist.name()
                );
                assert!(
                    d == full || (d.is_nan() && full.is_nan()),
                    "{}: thresholded value {d} differs from full {full} (tau {tau})",
                    dist.name()
                );
            }
            None => {
                // `None` must mean "not within": full > tau, or tau is NaN
                // (in which case `d ≤ tau` can never hold).
                let within = matches!(
                    full.partial_cmp(&tau),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                );
                assert!(
                    !within,
                    "{}: None returned although full {full} <= tau {tau}",
                    dist.name()
                );
            }
        }
    }
}

/// The six built-in measures.
fn measures<E: Element>() -> [Box<dyn SequenceDistance<E>>; 6] {
    [
        Box::new(Levenshtein::new()),
        Box::new(Erp::new()),
        Box::new(Dtw::new()),
        Box::new(DiscreteFrechet::new()),
        Box::new(Euclidean::new()),
        Box::new(Hamming::new()),
    ]
}

/// The contract for every measure and for its [`Unpruned`] ablation.
fn check_all_distances<E: Element>(a: &[E], b: &[E]) {
    for dist in measures() {
        assert_threshold_contract(&dist, a, b);
        assert_threshold_contract(&Unpruned(&dist), a, b);
    }
}

/// A measure that defines nothing but `distance`, as a foreign one may: its
/// end table is the trait's default, built on the default `distance_within`.
struct OnlyDistance<D>(D);

impl<E: Element, D: SequenceDistance<E>> SequenceDistance<E> for OnlyDistance<D> {
    fn distance(&self, a: &[E], b: &[E]) -> f64 {
        self.0.distance(a, b)
    }

    fn name(&self) -> &'static str {
        "only-distance"
    }

    fn properties(&self) -> DistanceProperties {
        self.0.properties()
    }
}

/// Thresholds for a table over inputs at distance `full`: zero, small, at
/// and beside the band boundary `|len(a) − len(b)|`, at and beside `full`,
/// and the degenerate ones.
fn table_taus(full: f64, len_diff: usize) -> Vec<f64> {
    let edge = len_diff as f64;
    let mut taus = vec![
        0.0,
        1.0,
        2.5,
        edge - 1e-9,
        edge,
        edge + 1.0,
        f64::INFINITY,
        f64::NAN,
        -1.0,
    ];
    if full.is_finite() {
        taus.extend([full / 2.0, full - 1e-9, full, full + 0.5]);
    }
    taus
}

/// The end-table contract: every slot of [`SequenceDistance::end_table`]
/// equals `distance_within(&a[..i], &b[..j], τ)` bit for bit, `∞` standing
/// for `None` and for the slots beyond the length-difference bound.
fn assert_end_table<E: Element, D: SequenceDistance<E>>(dist: &D, a: &[E], b: &[E], ends: EndSpec) {
    let mut out = vec![f64::NAN; ends.slots(a.len(), b.len())];
    for tau in table_taus(dist.distance(a, b), a.len().abs_diff(b.len())) {
        dist.end_table(a, b, ends, tau, &mut out);
        for i in ends.min_a..=a.len() {
            for j in ends.min_b..=b.len() {
                let expected = if i.abs_diff(j) <= ends.max_len_diff {
                    dist.distance_within(&a[..i], &b[..j], tau)
                        .unwrap_or(f64::INFINITY)
                } else {
                    f64::INFINITY
                };
                let got = out[ends.slot(b.len(), i, j)];
                assert_eq!(
                    got.to_bits(),
                    expected.to_bits(),
                    "{}: slot ({i}, {j}) of {ends:?} at tau {tau} holds {got}, the kernel says {expected}",
                    dist.name()
                );
            }
        }
    }
}

/// Checks the tables of all six measures, of their [`Unpruned`] ablations,
/// and the default one, over `(a, b)` for the given end ranges.
fn check_end_tables<E: Element>(a: &[E], b: &[E], ends: EndSpec) {
    for dist in measures() {
        assert_end_table(&dist, a, b, ends);
        assert_end_table(&Unpruned(&dist), a, b, ends);
    }
    assert_end_table(&OnlyDistance(Erp::new()), a, b, ends);
}

fn symbol_seq(max_len: usize) -> impl Strategy<Value = Vec<Symbol>> {
    prop::collection::vec(
        (0u8..6).prop_map(|i| Symbol::from_char(b"ACGTWY"[i as usize] as char)),
        0..max_len,
    )
}

fn pitch_seq(max_len: usize) -> impl Strategy<Value = Vec<Pitch>> {
    prop::collection::vec((0i16..=11).prop_map(Pitch), 0..max_len)
}

fn scalar_seq(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-8.0f64..8.0, 0..max_len)
}

fn point_seq(max_len: usize) -> impl Strategy<Value = Vec<Point2D>> {
    prop::collection::vec(
        (-5.0f64..5.0, -5.0f64..5.0).prop_map(|(x, y)| Point2D::new(x, y)),
        0..max_len,
    )
}

/// End ranges for inputs of the given lengths: minimum prefix lengths
/// anywhere from empty to the whole input, and a length-difference bound
/// that is tight, loose or absent.
fn end_spec(a_len: usize, b_len: usize, seed: (usize, usize, usize)) -> EndSpec {
    EndSpec {
        min_a: seed.0 % (a_len + 1),
        min_b: seed.1 % (b_len + 1),
        max_len_diff: [0, 1, 2, 3, usize::MAX][seed.2 % 5],
    }
}

fn end_seed() -> impl Strategy<Value = (usize, usize, usize)> {
    (0usize..64, 0usize..64, 0usize..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn end_tables_on_symbols(a in symbol_seq(14), b in symbol_seq(14), seed in end_seed()) {
        check_end_tables(&a, &b, end_spec(a.len(), b.len(), seed));
    }

    #[test]
    fn end_tables_on_pitches(a in pitch_seq(12), b in pitch_seq(12), seed in end_seed()) {
        check_end_tables(&a, &b, end_spec(a.len(), b.len(), seed));
    }

    #[test]
    fn end_tables_on_scalars(a in scalar_seq(10), b in scalar_seq(10), seed in end_seed()) {
        check_end_tables(&a, &b, end_spec(a.len(), b.len(), seed));
    }

    #[test]
    fn end_tables_on_trajectories(a in point_seq(10), b in point_seq(10), seed in end_seed()) {
        check_end_tables(&a, &b, end_spec(a.len(), b.len(), seed));
    }

    #[test]
    fn threshold_contract_on_symbols(a in symbol_seq(14), b in symbol_seq(14)) {
        check_all_distances(&a, &b);
    }

    #[test]
    fn threshold_contract_on_pitches(a in pitch_seq(12), b in pitch_seq(12)) {
        check_all_distances(&a, &b);
    }

    #[test]
    fn threshold_contract_on_scalars(a in scalar_seq(10), b in scalar_seq(10)) {
        check_all_distances(&a, &b);
    }

    #[test]
    fn threshold_contract_on_trajectories(a in point_seq(10), b in point_seq(10)) {
        check_all_distances(&a, &b);
    }

    #[test]
    fn erp_free_start_columns_on_pitches(text in pitch_seq(14), pattern in pitch_seq(10)) {
        assert_erp_free_start(&text, &pattern, true);
    }

    #[test]
    fn erp_free_start_columns_on_symbols(text in symbol_seq(14), pattern in symbol_seq(10)) {
        assert_erp_free_start(&text, &pattern, true);
    }

    #[test]
    fn erp_free_start_columns_on_scalars(text in scalar_seq(14), pattern in scalar_seq(10)) {
        assert_erp_free_start(&text, &pattern, false);
    }

    #[test]
    fn band_boundary_length_differences(base in symbol_seq(10), extra in 0usize..6) {
        // |len(a) − len(b)| = extra, probed with taus straddling it: the
        // length-difference lower bound and the band edge coincide here.
        let mut b: Vec<Symbol> = base.clone();
        b.extend(std::iter::repeat_n(Symbol::from_char('A'), extra));
        for tau in [
            extra as f64 - 1.0,
            extra as f64 - 1e-9,
            extra as f64,
            extra as f64 + 1e-9,
            extra as f64 + 1.0,
        ] {
            let lev = Levenshtein::new();
            let erp = Erp::new();
            let full_lev = lev.distance(&base, &b);
            let full_erp = erp.distance(&base, &b);
            prop_assert_eq!(lev.distance_within(&base, &b, tau), (full_lev <= tau).then_some(full_lev));
            prop_assert_eq!(erp.distance_within(&base, &b, tau), (full_erp <= tau).then_some(full_erp));
        }
    }
}

fn sym(text: &str) -> Vec<Symbol> {
    text.chars().map(Symbol::from_char).collect()
}

#[test]
fn fixed_band_boundary_cases() {
    let lev = Levenshtein::new();
    // d = 3 (three appended characters): the band of width ⌊τ⌋ must still
    // reach the corner cell exactly at τ = 3.
    let a = sym("AAAA");
    let b = sym("AAAAAAA");
    assert_eq!(lev.distance_within(&a, &b, 3.0), Some(3.0));
    assert_eq!(lev.distance_within(&a, &b, 2.999), None);
    assert_eq!(lev.distance_within(&a, &b, 2.0), None);
    // Substitutions only: band 0 suffices for equal-length inputs at τ < 1.
    let c = sym("ACGT");
    let d = sym("ACGA");
    assert_eq!(lev.distance_within(&c, &d, 1.0), Some(1.0));
    assert_eq!(lev.distance_within(&c, &d, 0.5), None);
    assert_eq!(lev.distance_within(&c, &c, 0.0), Some(0.0));
    // ERP on symbols: unit gap costs make the band exact at τ = |Δlen|.
    let erp = Erp::new();
    assert_eq!(erp.distance_within(&a, &b, 3.0), Some(3.0));
    assert_eq!(erp.distance_within(&a, &b, 2.5), None);
    // Empty inputs.
    let empty: Vec<Symbol> = Vec::new();
    assert_eq!(lev.distance_within(&empty, &b, 7.0), Some(7.0));
    assert_eq!(lev.distance_within(&empty, &b, 6.0), None);
    assert_eq!(lev.distance_within(&empty, &empty, 0.0), Some(0.0));
}

#[test]
fn dp_cell_tallies_shrink_under_tight_thresholds() {
    let lev = Levenshtein::new();
    let a = sym("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY");
    let b = sym("WYACMMMMGHIKLMNPQRSTVWYACDEFGHIMMMMQRSTV");
    let before = dp_cells_thread_total();
    let full = lev.distance(&a, &b);
    let full_cells = dp_cells_thread_total() - before;
    assert_eq!(full_cells, (a.len() * b.len()) as u64);
    assert!(full > 2.0, "workload must not be trivially similar");
    let before = dp_cells_thread_total();
    assert_eq!(lev.distance_within(&a, &b, 2.0), None);
    let banded_cells = dp_cells_thread_total() - before;
    assert!(
        banded_cells * 3 <= full_cells,
        "banded + abandoned run used {banded_cells} of {full_cells} cells"
    );
}

/// The ablation changes the work, never a result: at every threshold
/// `Unpruned(d)` answers as `d` does, bit for bit, fills exactly the cells
/// of `d`'s full program and tries no lower bound.
#[test]
fn disabling_pruning_changes_work_but_never_results() {
    let a = sym("ACDEFGHIKLMNPQRSTVWYACDEFGHIKLMNPQRSTVWY");
    let b = sym("WYACMMMMGHIKLMNPQRSTVWYACDEFGHIMMMMQRSTV");
    for dist in measures() {
        let before = dp_cells_thread_total();
        dist.distance(&a, &b);
        let full_cells = dp_cells_thread_total() - before;
        for tau in [
            0.0,
            1.0,
            2.0,
            4.0,
            10.0,
            40.0,
            f64::INFINITY,
            f64::NAN,
            -1.0,
        ] {
            let (cells, prunes) = (dp_cells_thread_total(), lower_bound_prunes_thread_total());
            let unpruned = Unpruned(&dist).distance_within(&a, &b, tau);
            assert_eq!(
                dp_cells_thread_total() - cells,
                full_cells,
                "{} at {tau}",
                dist.name()
            );
            assert_eq!(
                lower_bound_prunes_thread_total(),
                prunes,
                "{} at {tau}",
                dist.name()
            );
            assert_eq!(
                unpruned.map(f64::to_bits),
                dist.distance_within(&a, &b, tau).map(f64::to_bits),
                "{} at {tau}",
                dist.name()
            );
        }
    }
    let before = dp_cells_thread_total();
    Unpruned(Levenshtein::new()).distance_within(&a, &b, 2.0);
    assert_eq!(dp_cells_thread_total() - before, (a.len() * b.len()) as u64);
}

/// A symbol without a [`Element::small_code`]: Levenshtein over it runs the
/// banded program on inputs the bit-vector program takes as [`Symbol`]s.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Uncoded(Symbol);

impl Element for Uncoded {
    fn ground_distance(&self, other: &Self) -> f64 {
        self.0.ground_distance(&other.0)
    }

    fn gap() -> Self {
        Uncoded(Symbol::gap())
    }
}

/// splitmix64: a fixed stream of test inputs.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn random_symbols(state: &mut u64, len: usize, alphabet: &[u8]) -> Vec<Symbol> {
    (0..len)
        .map(|_| Symbol(alphabet[next(state) as usize % alphabet.len()]))
        .collect()
}

/// `b` after a few random substitutions, insertions and deletions, at most
/// 70 symbols long: a text within small thresholds of the pattern.
fn edited(state: &mut u64, b: &[Symbol], alphabet: &[u8]) -> Vec<Symbol> {
    let mut a = b.to_vec();
    for _ in 0..next(state) % 6 {
        let at = next(state) as usize % (a.len() + 1);
        let symbol = Symbol(alphabet[next(state) as usize % alphabet.len()]);
        match next(state) % 3 {
            0 if at < a.len() => a[at] = symbol,
            1 if at < a.len() => {
                a.remove(at);
            }
            _ => a.insert(at, symbol),
        }
    }
    a.truncate(70);
    a
}

/// The bit-vector program against the banded one, its oracle: for every
/// pattern length 0..=70 (so 63, 64 and 65 all occur), on random and on
/// nearby texts, `distance_within` agrees in `Some` / `None` and by
/// `to_bits`, and the end tables of the three shapes the framework asks
/// for — the family column, the verifier's diagonals, the full table —
/// agree slot for slot.
#[test]
fn bit_vector_program_matches_the_banded_program() {
    let lev = Levenshtein::new();
    let taus = [
        -1.0,
        f64::NAN,
        0.0,
        0.5,
        1.0,
        2.0,
        4.0,
        10.0,
        64.0,
        f64::INFINITY,
    ];
    let mut state = 34;
    for m in 0..=70 {
        for (round, alphabet) in [&b"ACGT"[..], b"ACDEFGHIKLMNPQRSTVWY", b"AB"]
            .into_iter()
            .enumerate()
        {
            let b = random_symbols(&mut state, m, alphabet);
            let a = if round == 1 {
                let n = next(&mut state) as usize % 71;
                random_symbols(&mut state, n, alphabet)
            } else {
                edited(&mut state, &b, alphabet)
            };
            let (ua, ub): (Vec<_>, Vec<_>) = (
                a.iter().copied().map(Uncoded).collect(),
                b.iter().copied().map(Uncoded).collect(),
            );
            let (n, lambda) = (a.len(), a.len().min(m) / 2);
            let shapes = [
                EndSpec {
                    min_a: n / 2,
                    min_b: m,
                    max_len_diff: usize::MAX,
                },
                EndSpec {
                    min_a: lambda,
                    min_b: lambda,
                    max_len_diff: 2,
                },
                EndSpec {
                    min_a: 0,
                    min_b: 0,
                    max_len_diff: usize::MAX,
                },
            ];
            for tau in taus {
                let (bits, banded) = (
                    lev.distance_within(&a, &b, tau),
                    lev.distance_within(&ua, &ub, tau),
                );
                assert_eq!(
                    bits.map(f64::to_bits),
                    banded.map(f64::to_bits),
                    "distance_within, |a| = {n}, |b| = {m}, tau {tau}"
                );
                for ends in shapes {
                    let mut bits = vec![f64::NAN; ends.slots(n, m)];
                    let mut banded = bits.clone();
                    lev.end_table(&a, &b, ends, tau, &mut bits);
                    lev.end_table(&ua, &ub, ends, tau, &mut banded);
                    assert_eq!(
                        bits.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                        banded.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
                        "{ends:?}, |a| = {n}, |b| = {m}, tau {tau}"
                    );
                }
            }
        }
    }
}

/// The contract of [`Element::small_code`] for [`Symbol`]: a code for every
/// value, and distinct symbols, distinct codes.
#[test]
fn symbol_codes_are_injective() {
    let mut seen = [false; 256];
    for byte in 0..=u8::MAX {
        let code = Symbol(byte).small_code().expect("every symbol has a code");
        assert!(!seen[usize::from(code)], "code {code} given twice");
        seen[usize::from(code)] = true;
    }
}

/// `min_o dist.distance(&text[o..e], pattern)` for every end `e`, by the
/// definition.
fn brute_free_start<E: Element, D: SequenceDistance<E>>(
    dist: &D,
    text: &[E],
    pattern: &[E],
) -> Vec<f64> {
    (0..=text.len())
        .map(|e| {
            (0..=e)
                .map(|o| dist.distance(&text[o..e], pattern))
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The free-start column of `pattern` over `text`, or `None` when the
/// measure has none.
fn free_start<E: Element, D: SequenceDistance<E>>(
    dist: &D,
    text: &[E],
    pattern: &[E],
) -> Option<Vec<f64>> {
    let mut out = vec![f64::NAN; text.len() + 1];
    dist.free_start_column(text, pattern, &mut out)
        .then_some(out)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// ERP's column against the minimum of its anchored distances: equal by
/// `to_bits` where every cost is integral (`exact`), never above it.
fn assert_erp_free_start<E: Element>(text: &[E], pattern: &[E], exact: bool) {
    let erp = Erp::new();
    let column = free_start(&erp, text, pattern).expect("ERP has a free-start column");
    let brute = brute_free_start(&erp, text, pattern);
    if exact {
        assert_eq!(bits(&column), bits(&brute), "{text:?} / {pattern:?}");
    } else {
        for (e, (got, min)) in column.iter().zip(&brute).enumerate() {
            assert!(got <= min, "end {e}: column {got} above the minimum {min}");
        }
    }
}

/// Levenshtein's search-mode column against the minimum of its anchored
/// distances, by `to_bits`: for every pattern length 0..=70 (so 63, 64 and
/// 65 all occur) and every prefix 0..=70 of a text that holds an edited
/// copy of the pattern. Past 64 symbols, and on elements without a code,
/// there is no column.
#[test]
fn levenshtein_free_start_column_is_the_minimum_over_starts() {
    let lev = Levenshtein::new();
    let mut state = 36;
    for m in 0..=70 {
        for alphabet in [&b"ACGT"[..], b"ACDEFGHIKLMNPQRSTVWY", b"AB"] {
            let pattern = random_symbols(&mut state, m, alphabet);
            let head = next(&mut state) as usize % 8;
            let mut text = random_symbols(&mut state, head, alphabet);
            text.extend(edited(&mut state, &pattern, alphabet));
            let tail = 70usize.saturating_sub(text.len());
            text.extend(random_symbols(&mut state, tail, alphabet));
            text.truncate(70);
            let uncoded: Vec<Uncoded> = pattern.iter().copied().map(Uncoded).collect();
            let uncoded_text: Vec<Uncoded> = text.iter().copied().map(Uncoded).collect();
            if m > 0 {
                assert_eq!(free_start(&lev, &uncoded_text, &uncoded), None, "m = {m}");
            }
            if m > 64 {
                assert_eq!(free_start(&lev, &text, &pattern), None, "m = {m}");
                continue;
            }
            let brute = brute_free_start(&lev, &text, &pattern);
            for n in 0..=text.len() {
                let column = free_start(&lev, &text[..n], &pattern).expect("a column");
                assert_eq!(bits(&column), bits(&brute[..=n]), "m = {m}, n = {n}");
            }
        }
    }
}

/// The pointer forwarders hand the method on, `dyn` included; the ablation
/// and the measures that keep the default have no column.
#[test]
fn free_start_columns_forward_and_default_to_none() {
    let lev = Levenshtein::new();
    let text = sym("ACDEFGHIKLMNPQRSTVWY");
    let pattern = sym("GHIKMNP");
    let column = free_start(&lev, &text, &pattern).expect("a column");
    assert_eq!(
        (column[0], column[13]),
        (7.0, 1.0),
        "GHIKLMNP is one deletion away"
    );
    let boxed: Box<dyn SequenceDistance<Symbol>> = Box::new(lev);
    assert_eq!(free_start(&&lev, &text, &pattern).as_ref(), Some(&column));
    assert_eq!(
        free_start(&Box::new(lev), &text, &pattern).as_ref(),
        Some(&column)
    );
    assert_eq!(
        free_start(&std::sync::Arc::new(lev), &text, &pattern).as_ref(),
        Some(&column)
    );
    assert_eq!(free_start(&boxed, &text, &pattern).as_ref(), Some(&column));
    assert_eq!(free_start(&Unpruned(lev), &text, &pattern), None);
    assert_eq!(free_start(&Unpruned(Erp::new()), &text, &pattern), None);
    assert_eq!(free_start(&DiscreteFrechet::new(), &text, &pattern), None);
    assert_eq!(free_start(&Dtw::new(), &text, &pattern), None);
}
