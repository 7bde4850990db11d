//! A fixed yardstick for the machine's own speed, interleaved with the
//! simulator runs.
//!
//! The host the benchmark was tuned on (a 2-vCPU KVM guest, Xeon Sapphire
//! Rapids class, shared with other tenants) drifts: over a ten-minute trace
//! of back-to-back `dc_probe` runs, 30-second medians of frame-hops per
//! second ranged from 307k to 564k with no steal time, while a pure ALU loop
//! stayed within a few percent. The drift is in the shared memory system,
//! so a wall-clock rate alone spread 0.07–0.29 (IQR over median) across ten
//! runs of the same code, depending on the neighbours of the hour.
//!
//! [`RefLoop`] is a fixed piece of work of the benchmark's own that shares
//! none of the simulator's code, so an optimisation of the simulator never
//! moves it, but whose time moves with the host's drift. One unit is two
//! parts: a small discrete-event loop (a binary heap of pending events,
//! each of which hashes a 300-byte frame buffer, updates a node's state and
//! schedules the next event; mostly compute) and a chain of dependent
//! random reads over 1 MiB (cache latency). In a trace where the
//! simulator's speed moved by 2x, the event loop alone moved about 2.5x
//! less than the simulator and the read chain about 2x more; at roughly
//! three parts loop to one part chain the unit's time moved in step with
//! it. The mix is part of the benchmark's definition: changing it changes
//! what `hops_per_ref` reads.
//!
//! Ten 50-second runs per workload (seeds 501–510) gave, as IQR over
//! median: `dc_probe` raw rate 0.073, reference unit 0.058, `hops_per_ref`
//! 0.032 (one run at 312k frame-hops/s against a median of 425k still read
//! within 5% of the median); `wan_rcp_x2` raw 0.127, reference 0.113,
//! `hops_per_ref` 0.032. A heavier datacenter workload (16 minimum-size
//! frames per 5 µs per host, deep enough to spill the scheduler to its
//! timing wheel) moved about 1.8x as much as the unit and stayed at 0.14
//! normalised across five seeds, which is why the benchmark has none.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use crate::workload::SplitMix;

/// Frames in flight.
const FRAMES: u32 = 8000;
/// Bytes per frame buffer.
const FRAME_BYTES: usize = 300;
/// Nodes whose state the events update.
const NODES: u32 = 4096;
/// Events per unit: about 70 ms on the host above.
const EVENTS_PER_UNIT: u32 = 100_000;
/// Entries of the read chain: 1 MiB of `u32`.
const CHAIN: usize = 1 << 18;
/// Dependent reads per unit: about 25 ms on the host above.
const READS_PER_UNIT: u32 = 2_000_000;

/// The reference event loop. Every unit does exactly the same work.
pub struct RefLoop {
    /// `(time, node, frame)`, earliest first.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
    frames: Vec<Vec<u8>>,
    nodes: Vec<[u64; 16]>,
    /// One random cycle through every entry: `chain[i]` is the next index.
    chain: Vec<u32>,
    at: u32,
}

impl RefLoop {
    /// Allocate the loop's state and run one unit to fault it in.
    pub fn new() -> RefLoop {
        let mut r = RefLoop {
            heap: (0..FRAMES).map(|i| Reverse((u64::from(i), i % NODES, i))).collect(),
            frames: (0..FRAMES).map(|i| vec![i as u8; FRAME_BYTES]).collect(),
            nodes: vec![[0; 16]; NODES as usize],
            chain: random_cycle(),
            at: 0,
        };
        r.unit();
        r
    }

    /// Run one unit; returns its wall time in seconds.
    pub fn unit(&mut self) -> f64 {
        let t0 = Instant::now();
        for _ in 0..EVENTS_PER_UNIT {
            let Reverse((t, node, frame)) = self.heap.pop().expect("the loop never drains");
            let buf = &mut self.frames[frame as usize];
            // FNV-1a over the whole buffer, written back so no pass can be
            // skipped.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for &b in buf.iter() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            buf[(h % 256) as usize] = h as u8;
            let state = &mut self.nodes[node as usize];
            state[0] = state[0].wrapping_add(h);
            state[(h % 16) as usize] ^= t;
            let next = (h % u64::from(NODES)) as u32;
            self.heap.push(Reverse((t + 1 + (h >> 40) % 1000, next, frame)));
        }
        black_box(&self.nodes);
        let mut at = self.at;
        for _ in 0..READS_PER_UNIT {
            at = self.chain[at as usize];
        }
        self.at = black_box(at);
        t0.elapsed().as_secs_f64()
    }
}

/// A single cycle through `0..CHAIN` in a fixed pseudo-random order, so
/// every read of the chain depends on the one before and none can be
/// prefetched.
fn random_cycle() -> Vec<u32> {
    let mut order: Vec<u32> = (0..CHAIN as u32).collect();
    let mut rng = SplitMix(0x5eed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut chain = vec![0; CHAIN];
    for (k, &from) in order.iter().enumerate() {
        chain[from as usize] = order[(k + 1) % CHAIN];
    }
    chain
}
