//! Snapshot codecs ([`Encode`]/[`Decode`]) for the sequence substrate.
//!
//! Everything here round-trips bit-exactly: `f64` coordinates are stored as
//! IEEE-754 bit patterns, labels and provenance verbatim. Decoding is total —
//! structurally impossible inputs (a window whose data length disagrees with
//! the store's window length, an out-of-range pitch) surface as
//! [`StorageError::Malformed`] rather than panicking, so the container-level
//! CRCs of `ssr-storage` are a second line of defence, not the only one.

use ssr_storage::{Decode, Encode, Reader, StorableElement, StorageError, Writer};

use crate::arena::ElementArena;
use crate::element::{Pitch, Point2D, Point3D, Symbol};
use crate::sequence::SequenceId;
use crate::window::WindowId;

impl Encode for Symbol {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.0);
    }
}

impl Decode for Symbol {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(Symbol(r.take_u8()?))
    }
}

impl StorableElement for Symbol {
    const TAG: &'static str = "symbol";
}

impl Encode for Pitch {
    fn encode(&self, w: &mut Writer) {
        w.put_i32(i32::from(self.0));
    }
}

impl Decode for Pitch {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let raw = r.take_i32()?;
        let value = i16::try_from(raw)
            .map_err(|_| StorageError::Malformed(format!("pitch value {raw} out of range")))?;
        Ok(Pitch(value))
    }
}

impl StorableElement for Pitch {
    const TAG: &'static str = "pitch";
}

impl Encode for Point2D {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.x);
        w.put_f64(self.y);
    }
}

impl Decode for Point2D {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(Point2D {
            x: r.take_f64()?,
            y: r.take_f64()?,
        })
    }
}

impl StorableElement for Point2D {
    const TAG: &'static str = "point2d";
}

impl Encode for Point3D {
    fn encode(&self, w: &mut Writer) {
        w.put_f64(self.x);
        w.put_f64(self.y);
        w.put_f64(self.z);
    }
}

impl Decode for Point3D {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(Point3D {
            x: r.take_f64()?,
            y: r.take_f64()?,
            z: r.take_f64()?,
        })
    }
}

impl StorableElement for Point3D {
    const TAG: &'static str = "point3d";
}

impl Encode for SequenceId {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
}

impl Decode for SequenceId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(SequenceId(r.take_usize()?))
    }
}

impl Encode for WindowId {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.0);
    }
}

impl Decode for WindowId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        Ok(WindowId(r.take_usize()?))
    }
}

/// The arena serializes as one contiguous element run (snapshot format
/// version 3): sequence boundaries first, then every element back to back.
/// Decoding therefore performs exactly **one** element-buffer allocation for
/// the whole database — no per-window (or per-sequence) element vectors —
/// and the flat layout keeps the section compatible with a future
/// mmap-backed loader that resolves slices without copying at all. Labels
/// are not part of the section (the snapshot's `dataset` section holds them).
impl<E: crate::Element + Encode> Encode for ElementArena<E> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.sequence_count());
        // bounds[0] is always 0; store the n upper bounds only.
        for &b in &self.bounds()[1..] {
            w.put_usize(b);
        }
        w.put_usize(self.len());
        for e in self.elements() {
            e.encode(w);
        }
    }
}

impl<E: crate::Element + Decode> Decode for ElementArena<E> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, StorageError> {
        let sequences = r.take_len(8)?;
        let mut bounds = Vec::with_capacity(sequences + 1);
        bounds.push(0usize);
        for _ in 0..sequences {
            bounds.push(r.take_usize()?);
        }
        let count = r.take_len(1)?;
        if Some(&count) != bounds.last() {
            return Err(StorageError::Malformed(format!(
                "arena stores {count} elements but its last bound is {}",
                bounds.last().expect("bounds always start with 0")
            )));
        }
        let mut elements = Vec::with_capacity(count);
        for _ in 0..count {
            elements.push(E::decode(r)?);
        }
        ElementArena::from_parts(elements, bounds).ok_or_else(|| {
            StorageError::Malformed("arena bounds are not a monotone cover of the elements".into())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sequence::{Sequence, SequenceDataset};
    use crate::window::partition_windows_dataset;

    fn roundtrip<T: Encode + Decode + PartialEq + std::fmt::Debug>(value: T) {
        let mut w = Writer::new();
        value.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::decode(&mut r).unwrap();
        r.expect_empty("value").unwrap();
        assert_eq!(back, value);
    }

    fn seq(text: &str) -> Sequence<Symbol> {
        Sequence::new(text.chars().map(Symbol::from_char).collect())
    }

    #[test]
    fn elements_roundtrip() {
        roundtrip(Symbol::from_char('Q'));
        roundtrip(<Symbol as crate::Element>::gap());
        roundtrip(Pitch(11));
        roundtrip(Pitch(-3));
        roundtrip(Point2D::new(1.5, -2.25));
        roundtrip(Point3D::new(0.1, 0.2, 0.3));
        roundtrip(SequenceId(42));
        roundtrip(WindowId(7));
    }

    #[test]
    fn arenas_roundtrip_and_repartition_identically() {
        let ds: SequenceDataset<Symbol> = vec![seq("AAAABBBB"), seq("CCCCDDDD"), seq("EE")]
            .into_iter()
            .collect();
        let arena = ElementArena::from_dataset(&ds);
        roundtrip(arena.clone());

        // Partitioning the decoded arena reproduces the original store's
        // views exactly — this is what makes the v3 snapshot format free of
        // per-window data.
        let mut w = Writer::new();
        arena.encode(&mut w);
        let bytes = w.into_bytes();
        let back = ElementArena::<Symbol>::decode(&mut Reader::new(&bytes)).unwrap();
        let store = partition_windows_dataset(&ds, 4);
        let restored = crate::window::WindowStore::partition(back, 4);
        assert_eq!(restored.len(), store.len());
        for ((ida, a), (idb, b)) in restored.iter().zip(store.iter()) {
            assert_eq!((ida, a), (idb, b));
            assert_eq!(restored.slice(ida).unwrap(), store.slice(idb).unwrap());
        }
    }

    #[test]
    fn empty_arena_roundtrips() {
        roundtrip(ElementArena::<Symbol>::from_dataset(&SequenceDataset::new()));
        let ds: SequenceDataset<Symbol> = vec![Sequence::new(vec![])].into_iter().collect();
        roundtrip(ElementArena::from_dataset(&ds));
    }

    #[test]
    fn malformed_arena_is_rejected_not_panicked() {
        // Element count disagreeing with the last bound.
        let mut w = Writer::new();
        w.put_usize(1); // one sequence
        w.put_usize(4); // its upper bound
        w.put_usize(3); // but only three elements claimed
        for _ in 0..3 {
            Symbol(b'A').encode(&mut w);
        }
        assert!(matches!(
            ElementArena::<Symbol>::decode(&mut Reader::new(w.bytes())),
            Err(StorageError::Malformed(_))
        ));

        // Non-monotone bounds.
        let mut w = Writer::new();
        w.put_usize(2);
        w.put_usize(3);
        w.put_usize(2); // decreasing
        w.put_usize(2);
        for _ in 0..2 {
            Symbol(b'A').encode(&mut w);
        }
        assert!(matches!(
            ElementArena::<Symbol>::decode(&mut Reader::new(w.bytes())),
            Err(StorageError::Malformed(_))
        ));

        // Truncation anywhere yields a typed error.
        let ds: SequenceDataset<Symbol> = vec![seq("AAAABBBB")].into_iter().collect();
        let mut w = Writer::new();
        ElementArena::from_dataset(&ds).encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                ElementArena::<Symbol>::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes unexpectedly decoded"
            );
        }
    }

    #[test]
    fn element_tags_are_distinct() {
        let tags = [
            Symbol::TAG,
            Pitch::TAG,
            <f64 as StorableElement>::TAG,
            Point2D::TAG,
            Point3D::TAG,
        ];
        for (i, a) in tags.iter().enumerate() {
            for b in &tags[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
