//! Dataset preparation for the experiment harness: windowed views of the
//! synthetic PROTEINS / SONGS / TRAJ datasets at several scales.

use ssr_datagen::{
    generate_proteins, generate_songs, generate_trajectories, ProteinConfig, SongsConfig,
    TrajConfig,
};
use ssr_sequence::{partition_windows_dataset, Element, Pitch, Point2D, SequenceDataset, Symbol};

/// Window length used throughout the evaluation (the paper uses `l = 20` for
/// all three datasets).
pub const WINDOW_LEN: usize = 20;

/// Experiment scale. The paper's full sizes (100K windows for PROTEINS and
/// TRAJ, 20K for SONGS) are reachable with [`Scale::Full`] but take a long
/// time to index on a laptop; the default [`Scale::Small`] keeps every figure
/// under a few minutes while preserving the qualitative behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    /// ~2K windows per dataset; minutes for the whole figure suite.
    Small,
    /// ~6K windows per dataset.
    Medium,
    /// Paper-scale window counts (100K / 20K / 100K); expect long runtimes.
    Full,
}

impl Scale {
    /// Parses a `--scale` argument.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// Target number of PROTEINS windows.
    pub fn protein_windows(self) -> usize {
        match self {
            Scale::Small => 2_000,
            Scale::Medium => 6_000,
            Scale::Full => 100_000,
        }
    }

    /// Target number of SONGS windows.
    pub fn song_windows(self) -> usize {
        match self {
            Scale::Small => 2_000,
            Scale::Medium => 6_000,
            Scale::Full => 20_000,
        }
    }

    /// Target number of TRAJ windows.
    pub fn traj_windows(self) -> usize {
        match self {
            Scale::Small => 2_000,
            Scale::Medium => 6_000,
            Scale::Full => 100_000,
        }
    }
}

/// The first `target` windows of length [`WINDOW_LEN`] of `dataset`.
fn first_windows<E: Element>(dataset: &SequenceDataset<E>, target: usize) -> Vec<Vec<E>> {
    let store = partition_windows_dataset(dataset, WINDOW_LEN);
    store
        .iter()
        .take(target)
        .map(|(id, _)| store.slice(id).expect("store views resolve").to_vec())
        .collect()
}

/// Generates approximately `target` PROTEINS windows of length
/// [`WINDOW_LEN`]. `seed` controls the generator so that query workloads can
/// be drawn from an independent generation.
pub fn protein_windows(target: usize, seed: u64) -> Vec<Vec<Symbol>> {
    let config = ProteinConfig::sized_for_windows(target, WINDOW_LEN, seed);
    first_windows(&generate_proteins(&config), target)
}

/// Generates approximately `target` SONGS windows.
pub fn song_windows(target: usize, seed: u64) -> Vec<Vec<Pitch>> {
    let config = SongsConfig::sized_for_windows(target, WINDOW_LEN, seed);
    first_windows(&generate_songs(&config), target)
}

/// Generates approximately `target` TRAJ windows.
pub fn traj_windows(target: usize, seed: u64) -> Vec<Vec<Point2D>> {
    let config = TrajConfig::sized_for_windows(target, WINDOW_LEN, seed);
    first_windows(&generate_trajectories(&config), target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn window_targets_are_monotone_in_scale() {
        assert!(Scale::Small.protein_windows() < Scale::Medium.protein_windows());
        assert!(Scale::Medium.protein_windows() < Scale::Full.protein_windows());
        assert!(Scale::Small.song_windows() < Scale::Full.song_windows());
    }

    #[test]
    fn generators_produce_windows_of_the_right_length() {
        for w in protein_windows(50, 1) {
            assert_eq!(w.len(), WINDOW_LEN);
        }
        for w in song_windows(50, 2) {
            assert_eq!(w.len(), WINDOW_LEN);
        }
        for w in traj_windows(50, 3) {
            assert_eq!(w.len(), WINDOW_LEN);
        }
        assert!(!protein_windows(50, 1).is_empty());
    }

    #[test]
    fn different_seeds_give_different_windows() {
        let a = protein_windows(20, 1);
        let b = protein_windows(20, 2);
        assert_ne!(a, b);
    }
}
