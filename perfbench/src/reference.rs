//! The reference kernel: a fixed piece of work, owned by the benchmark,
//! that measures how fast the host is running right now.
//!
//! The host's speed drifts by tens of percent from one second to the
//! next and from one minute to the next, and the simulator slows down
//! with it. The drift is in the memory system more than in the ALU: an
//! arithmetic loop barely moves while allocation- and pointer-heavy work
//! moves with the simulator. So the kernel churns ordered maps of boxed
//! values and sorts a vector, as the simulator does, and the benchmark
//! times it right before and right after each timed interval. Dividing
//! a wall time by the kernel's time in the same window cancels most of
//! the drift. The kernel uses only `std` and none of the simulator's
//! code, so no change to the simulator moves it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// The kernel's wall time on the reference host (the 2-vCPU virtual
/// machine in `README.md`), in seconds. Host-time metrics are scaled to
/// a host that runs the kernel in this time, so they read as seconds on
/// that host.
pub const REFERENCE_KERNEL_S: f64 = 0.3;

/// xorshift64: a fixed stream, so the kernel does the same work on
/// every call.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Inserts a boxed value for each drawn key that is absent and removes
/// it when present: `ops` draws over `keys` keys.
fn churn(rng: &mut XorShift, ops: u64, keys: u64) -> u64 {
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let mut acc = 0u64;
    for i in 0..ops {
        let k = rng.next() % keys;
        match map.remove(&k) {
            Some(v) => acc = acc.wrapping_add(v[0]),
            None => {
                map.insert(k, Box::new([i, k, acc, 1]));
            }
        }
    }
    acc.wrapping_add(map.len() as u64)
}

/// One run of the kernel; returns a checksum so none of it is elided.
fn kernel() -> u64 {
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
    let small = churn(&mut rng, 300_000, 100_000);
    let large = churn(&mut rng, 600_000, 1_000_000);
    let mut xs: Vec<f64> = (0..200_000).map(|_| (rng.next() >> 11) as f64).collect();
    xs.sort_by(f64::total_cmp);
    small
        .wrapping_add(large)
        .wrapping_add(xs[xs.len() / 2] as u64)
}

/// Wall time of one kernel run, in seconds.
pub fn time_kernel() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// A wall time scaled to the reference host: `wall` was measured between
/// kernel runs that took `before` and `after` seconds.
pub fn scale(wall: f64, before: f64, after: f64) -> f64 {
    wall * REFERENCE_KERNEL_S / ((before + after) / 2.0)
}
