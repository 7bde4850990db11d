//! Lane-interleaved FNV-1a for the run's trace digest.
//!
//! [`NetStats::trace`](crate::NetStats::trace) folds an FNV-1a hash of every
//! arriving frame's bytes. FNV-1a is a serial xor-multiply chain, one
//! multiply latency per byte, but the chains of *different* frames are
//! independent. [`TraceLanes`] therefore copies up to [`LANES`] arrivals
//! aside and hashes them side by side, so the CPU overlaps the chains. The
//! trace is a wrapping sum, so the moment a frame's term is added cannot
//! change the result: the digest is bit-identical to hashing each frame as
//! it arrives.

use crate::net::splitmix64;

/// Frames hashed side by side. Eight independent chains keep the multiplier
/// busy, about three times the serial rate on a ~390-byte frame; wider
/// lanes run out of registers.
pub(crate) const LANES: usize = 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Pending trace terms: frame copies plus their pre-mixed arrival tags.
#[derive(Default)]
pub(crate) struct TraceLanes {
    /// Frame copies; grown on first use, their storage reused after.
    bufs: Vec<Vec<u8>>,
    /// Each pending frame's mixed `(time, node, port)` tag.
    mix: [u64; LANES],
    /// Occupied lanes: a prefix of `bufs`.
    pending: usize,
}

impl TraceLanes {
    /// Queue one arrival's bytes and its mixed tag. Returns true once every
    /// lane is occupied: the caller must [`flush`](TraceLanes::flush) before
    /// the next push.
    pub(crate) fn push(&mut self, frame: &[u8], mix: u64) -> bool {
        debug_assert!(self.pending < LANES, "push into full lanes");
        if self.pending == self.bufs.len() {
            self.bufs.push(Vec::new());
        }
        let buf = &mut self.bufs[self.pending];
        buf.clear();
        buf.extend_from_slice(frame);
        self.mix[self.pending] = mix;
        self.pending += 1;
        self.pending == LANES
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Empty the lanes, returning their trace term: the wrapping sum of
    /// `splitmix64(fnv1a(frame) ^ mix)` over every pending frame.
    pub(crate) fn flush(&mut self) -> u64 {
        let h = self.fnv_lanes();
        let n = std::mem::take(&mut self.pending);
        (0..n).fold(0, |acc: u64, l| acc.wrapping_add(splitmix64(h[l] ^ self.mix[l])))
    }

    /// FNV-1a of each pending lane's frame, by lane.
    fn fnv_lanes(&self) -> [u64; LANES] {
        let n = self.pending;
        // Longest first, so the lanes still hashing are always a prefix and
        // a lane retires the moment its bytes run out: unequal lengths keep
        // interleaving instead of finishing their tails one by one.
        let mut order: [usize; LANES] = std::array::from_fn(|i| i);
        order[..n].sort_unstable_by_key(|&l| std::cmp::Reverse(self.bufs[l].len()));
        let bytes: [&[u8]; LANES] =
            std::array::from_fn(|j| if j < n { &self.bufs[order[j]][..] } else { &[] });
        let mut h = [FNV_OFFSET; LANES];
        let mut pos = 0;
        let mut live = n;
        while live > 0 {
            let end = bytes[live - 1].len();
            match live {
                8 => step::<8>(&mut h, &bytes, pos, end),
                7 => step::<7>(&mut h, &bytes, pos, end),
                6 => step::<6>(&mut h, &bytes, pos, end),
                5 => step::<5>(&mut h, &bytes, pos, end),
                4 => step::<4>(&mut h, &bytes, pos, end),
                3 => step::<3>(&mut h, &bytes, pos, end),
                2 => step::<2>(&mut h, &bytes, pos, end),
                _ => step::<1>(&mut h, &bytes, pos, end),
            }
            pos = end;
            while live > 0 && bytes[live - 1].len() == end {
                live -= 1;
            }
        }
        let mut by_lane = [FNV_OFFSET; LANES];
        for j in 0..n {
            by_lane[order[j]] = h[j];
        }
        by_lane
    }
}

// `fnv_lanes` dispatches one kernel per live-lane count.
const _: () = assert!(LANES == 8);

/// Advance the first `N` lane states over bytes `from..to` of their frames,
/// interleaved: byte `i` of every lane before byte `i + 1` of any.
#[inline]
fn step<const N: usize>(h: &mut [u64; LANES], bytes: &[&[u8]; LANES], from: usize, to: usize) {
    let len = to - from;
    let seg: [&[u8]; N] = std::array::from_fn(|l| &bytes[l][from..to]);
    let mut s: [u64; N] = std::array::from_fn(|l| h[l]);
    let absorb = |s: &mut [u64; N], k: usize| {
        for l in 0..N {
            s[l] = (s[l] ^ u64::from(seg[l][k])).wrapping_mul(FNV_PRIME);
        }
    };
    // Four bytes a round: the loop overhead amortizes over 4 x N multiplies.
    let mut i = 0;
    while i + 4 <= len {
        absorb(&mut s, i);
        absorb(&mut s, i + 1);
        absorb(&mut s, i + 2);
        absorb(&mut s, i + 3);
        i += 4;
    }
    for k in i..len {
        absorb(&mut s, k);
    }
    h[..N].copy_from_slice(&s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The serial reference: FNV-1a one byte at a time.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h = FNV_OFFSET;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    prop_compose! {
        /// A frame of 0..2048 bytes, weighted toward the edges: empty,
        /// one byte, short, anywhere, and near the 2 KiB end (so lanes
        /// sharing a flush are often very unequal), plus its tag.
        fn arb_frame()(
            class in 0u8..5,
            short in 0usize..64,
            any_len in 0usize..2048,
            fill in any::<u64>(),
            mix in any::<u64>(),
        ) -> (Vec<u8>, u64) {
            let len = match class {
                0 => 0,
                1 => 1,
                2 => short,
                3 => any_len,
                _ => 2047 - short,
            };
            let bytes = (0..len as u64).map(|i| splitmix64(fill ^ i) as u8).collect();
            (bytes, mix)
        }
    }

    proptest! {
        /// Every occupied lane hashes to exactly the serial FNV-1a of its
        /// frame, at every occupancy from empty to full.
        #[test]
        fn every_lane_matches_serial_fnv1a(
            frames in prop::collection::vec(arb_frame(), 0..=LANES),
        ) {
            let mut lanes = TraceLanes::default();
            for (i, (bytes, mix)) in frames.iter().enumerate() {
                prop_assert_eq!(lanes.push(bytes, *mix), i + 1 == LANES);
            }
            let h = lanes.fnv_lanes();
            for (l, (bytes, _)) in frames.iter().enumerate() {
                prop_assert_eq!(h[l], fnv1a(bytes), "lane {} of {}", l, frames.len());
            }
        }

        /// Pushing a stream, flushing whenever the lanes fill and once more
        /// at the end (a partial flush), sums to the serial per-frame terms.
        #[test]
        fn flushed_terms_match_serial_sum(
            frames in prop::collection::vec(arb_frame(), 0..=3 * LANES + 3),
        ) {
            let mut lanes = TraceLanes::default();
            let mut trace = 0u64;
            let mut serial = 0u64;
            for (bytes, mix) in &frames {
                if lanes.push(bytes, *mix) {
                    trace = trace.wrapping_add(lanes.flush());
                }
                serial = serial.wrapping_add(splitmix64(fnv1a(bytes) ^ mix));
            }
            trace = trace.wrapping_add(lanes.flush());
            prop_assert!(lanes.is_empty());
            prop_assert_eq!(trace, serial);
        }
    }
}
