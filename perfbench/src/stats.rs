//! Order statistics, the seeded generator, and process memory.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile of a sample that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that rank.
    pub value: f64,
    /// Which percentile it is: `100 * (n - beyond) / n`.
    pub percentile: f64,
    /// Samples strictly above it in rank (exactly [`TAIL_BEYOND`] unless
    /// the sample is too small, when it is the maximum and this is 0).
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

pub const TAIL_BEYOND: usize = 10;

/// Select the tail: the value with exactly [`TAIL_BEYOND`] samples ranked
/// above it. A sample of [`TAIL_BEYOND`] or fewer supports no such
/// percentile; its maximum is returned with `beyond = 0`, so the caller
/// can flag it.
pub fn tail(xs: &[f64]) -> Tail {
    let n = xs.len();
    if n == 0 {
        return Tail { value: 0.0, percentile: 0.0, beyond: 0, samples: 0 };
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if n <= TAIL_BEYOND {
        return Tail { value: v[n - 1], percentile: 100.0, beyond: 0, samples: n };
    }
    let rank = n - 1 - TAIL_BEYOND;
    Tail {
        value: v[rank],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        beyond: TAIL_BEYOND,
        samples: n,
    }
}

/// SplitMix64: the benchmark's only source of randomness, so every input
/// follows from the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A fixed multiset of cards dealt in a seeded order, reshuffled each
/// time it runs out, so that every run of `N` cards holds each card once.
pub struct Deck<T: Copy, const N: usize> {
    cards: [T; N],
    next: usize,
}

impl<T: Copy, const N: usize> Deck<T, N> {
    pub fn new(cards: [T; N]) -> Self {
        Deck { cards, next: 0 }
    }

    pub fn deal(&mut self, rng: &mut Rng) -> T {
        if self.next == 0 {
            for i in (1..N).rev() {
                self.cards.swap(i, rng.below(i + 1));
            }
        }
        let card = self.cards[self.next];
        self.next = (self.next + 1) % N;
        card
    }
}

/// Peak resident set size of this process in MB, from `/proc/self/status`
/// (`VmHWM`); 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn tail_of_eleven_is_the_minimum_and_of_ten_is_flagged() {
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond), (0.0, 10));
        let t = tail(&xs[..10]);
        assert_eq!((t.value, t.beyond, t.samples), (9.0, 0, 10));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn every_deal_of_a_whole_deck_holds_each_card_once() {
        let mut rng = Rng::new(3);
        let mut deck = Deck::new([0, 0, 1, 2]);
        let mut orders = Vec::new();
        for _ in 0..5 {
            let mut hand: Vec<i32> = (0..4).map(|_| deck.deal(&mut rng)).collect();
            orders.push(hand.clone());
            hand.sort();
            assert_eq!(hand, [0, 0, 1, 2]);
        }
        assert!(orders.windows(2).any(|w| w[0] != w[1]), "the deck is reshuffled");
    }

    #[test]
    fn rng_repeats_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
