//! Seeded query-mix streams.
//!
//! A stream deals from a deck holding each query index exactly `weight`
//! times and reshuffles when the deck runs out, so the mix is exact over
//! every whole deck. Independent draws would let the realised share of
//! the rare hub queries — which set `latency_p95_s` — drift with the seed.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

#[derive(Clone)]
pub struct MixStream {
    rng: StdRng,
    deck: Vec<usize>,
    next: usize,
}

impl MixStream {
    /// A stream over query indices `0..weights.len()`; `lane` separates the
    /// clients of one run.
    pub fn new(weights: &[u32], seed: u64, lane: u64) -> Self {
        let deck: Vec<usize> = weights
            .iter()
            .enumerate()
            .flat_map(|(i, &w)| std::iter::repeat_n(i, w as usize))
            .collect();
        assert!(!deck.is_empty(), "a mix needs a positive weight");
        let rng = StdRng::seed_from_u64(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        MixStream {
            rng,
            next: deck.len(),
            deck,
        }
    }

    pub fn next_query(&mut self) -> usize {
        if self.next == self.deck.len() {
            self.deck.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        self.deck[self.next - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SNB_SKEW;

    fn draw(seed: u64, lane: u64, n: usize) -> Vec<usize> {
        let mut s = MixStream::new(&SNB_SKEW, seed, lane);
        (0..n).map(|_| s.next_query()).collect()
    }

    #[test]
    fn snb_skew_weights_sum_to_100() {
        assert_eq!(SNB_SKEW.iter().sum::<u32>(), 100);
        assert_eq!(SNB_SKEW[4], 30);
        assert_eq!(SNB_SKEW[1], 3);
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        assert_eq!(draw(42, 0, 300), draw(42, 0, 300));
        assert_ne!(draw(42, 0, 300), draw(43, 0, 300));
        assert_ne!(draw(42, 0, 300), draw(42, 1, 300));
    }

    #[test]
    fn every_deck_holds_the_exact_weights() {
        for deck in draw(7, 1, 300).chunks(100) {
            for (q, &w) in SNB_SKEW.iter().enumerate() {
                assert_eq!(deck.iter().filter(|&&d| d == q).count(), w as usize);
            }
        }
    }
}
