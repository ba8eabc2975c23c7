//! Word-loop kernels for the bitset relation engine.
//!
//! Every hot word loop of [`crate::rel`] and [`crate::incr`] — row
//! unions/intersections/differences, the `seq` row OR-combines, the
//! Floyd–Warshall inner loop, the `IncrementalOrder` subset probe and row
//! OR — funnels through this module, so each loop shape is written once.
//! The kernels are plain one-word-at-a-time loops, bounds-checked per word
//! (`get(i).unwrap_or(0)` style).
//!
//! # Semantics
//!
//! All kernels treat slices as zero-extended bit vectors: words past the
//! end of the shorter operand read as `0`. Destination words with no
//! source counterpart are therefore unchanged by OR/ANDNOT and cleared by
//! AND.

/// `dst |= src` (zero-extended).
#[inline]
pub fn or_assign(dst: &mut [u64], src: &[u64]) {
    for (i, w) in dst.iter_mut().enumerate() {
        *w |= src.get(i).copied().unwrap_or(0);
    }
}

/// `dst |= src`, returning the number of newly set bits.
#[inline]
pub fn or_assign_added(dst: &mut [u64], src: &[u64]) -> usize {
    let mut added = 0usize;
    for (i, w) in dst.iter_mut().enumerate() {
        let new = *w | src.get(i).copied().unwrap_or(0);
        added += (new ^ *w).count_ones() as usize;
        *w = new;
    }
    added
}

/// `dst &= src` (destination words past `src` are cleared).
#[inline]
pub fn and_assign(dst: &mut [u64], src: &[u64]) {
    for (i, w) in dst.iter_mut().enumerate() {
        *w &= src.get(i).copied().unwrap_or(0);
    }
}

/// `dst &= !src` (zero-extended: words past `src` are unchanged).
#[inline]
pub fn andnot_assign(dst: &mut [u64], src: &[u64]) {
    for (i, w) in dst.iter_mut().enumerate() {
        *w &= !src.get(i).copied().unwrap_or(0);
    }
}

/// Population count of the whole slice.
#[inline]
pub fn count_ones(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

/// Population count of `a & b` (zero-extended).
#[inline]
pub fn count_and(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// True if every word is zero.
#[inline]
pub fn is_zero(words: &[u64]) -> bool {
    words.iter().all(|&w| w == 0)
}

/// True if `sup ⊇ sub` as bit sets (`sub`'s words past `sup` must be
/// zero).
#[inline]
pub fn is_superset(sup: &[u64], sub: &[u64]) -> bool {
    sub.iter()
        .enumerate()
        .all(|(i, t)| sup.get(i).copied().unwrap_or(0) & t == *t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_semantics() {
        // Zero-extension: AND clears the uncovered destination suffix,
        // OR/ANDNOT leave it alone.
        let mut d = vec![u64::MAX; 10];
        or_assign(&mut d, &[0b1]);
        assert_eq!(d, vec![u64::MAX; 10]);
        let mut d = vec![u64::MAX; 10];
        and_assign(&mut d, &[0b1]);
        assert_eq!(d[0], 0b1);
        assert!(d[1..].iter().all(|&w| w == 0));
        let mut d = vec![u64::MAX; 10];
        andnot_assign(&mut d, &[0b1]);
        assert_eq!(d[0], u64::MAX - 1);
        assert!(d[1..].iter().all(|&w| w == u64::MAX));
        // Superset with a longer sub: extra non-zero words break it.
        assert!(is_superset(&[0b11], &[0b01, 0, 0]));
        assert!(!is_superset(&[0b11], &[0b01, 0b1]));
        assert!(is_superset(&[], &[]));
        assert!(!is_superset(&[], &[1]));
        // Empty slices.
        assert!(is_zero(&[]));
        assert_eq!(count_ones(&[]), 0);
        // A meet reads the shorter operand's words only.
        assert_eq!(count_and(&[0b1011, u64::MAX], &[0b0110]), 1);
        assert_eq!(count_and(&[], &[1]), 0);
    }
}
