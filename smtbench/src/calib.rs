//! Host-speed calibration of the untraced runs.
//!
//! The benchmark runs on shared hosts whose speed drifts by more than half
//! over minutes as other tenants load the machine, and every workload slows
//! together. Each repetition is therefore followed by a fixed calibration
//! kernel on as many threads as the repetition used, and its host times are
//! rescaled by `reference time / kernel time`: a repetition that ran while
//! the host was slow is scaled down by as much as the kernel next to it
//! slowed. The kernel is benchmark code that no
//! change to the simulator touches, so a faster simulator still shows as a
//! smaller calibrated time.
//!
//! The kernel allocates a fresh 32 MiB table and makes random
//! read-modify-write steps over it. It pays page faults, cache and TLB
//! misses and memory latency, as the simulator's set-up and cache models do.

use std::hint::black_box;
use std::time::Instant;

/// Host seconds the kernel takes on one and on two threads of a quiet host.
/// On a 2-vCPU Xeon VM (2.0 GHz, 105 MiB L3) the one-thread median of 793
/// runs was 0.1276 s, and over 152 alternating runs the two-thread kernel
/// took 1.276 times as long as the one-thread kernel. Calibrated times read
/// as host seconds on such a host when it is quiet.
const REFERENCE_S: [f64; 2] = [0.128, 0.163];

/// Words of each thread's table (32 MiB).
const TABLE_WORDS: usize = 1 << 22;

/// Random read-modify-write steps per thread.
const STEPS: u64 = 5_000_000;

/// Runs the kernel on `threads` (1 or 2) threads at once, one table each,
/// and returns its host seconds.
pub fn kernel_s(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads as u64)
            .map(|k| scope.spawn(move || black_box(walk(k))))
            .collect();
        for worker in workers {
            worker
                .join()
                .expect("the calibration kernel does not panic");
        }
    });
    t.elapsed().as_secs_f64()
}

/// Rescales host `seconds` measured next to a run of the kernel on
/// `threads` threads that took `kernel_s`.
pub fn calibrate(seconds: f64, kernel_s: f64, threads: usize) -> f64 {
    seconds * REFERENCE_S[threads - 1] / kernel_s
}

fn walk(seed: u64) -> u64 {
    let mut table = vec![0u64; TABLE_WORDS];
    let mask = TABLE_WORDS as u64 - 1;
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ seed;
    let mut acc = 0u64;
    for step in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let index = ((x >> 11) & mask) as usize;
        let value = table[index];
        if value & 3 == 1 {
            acc = acc.wrapping_add(value >> 2);
        } else {
            acc ^= value.rotate_left(7);
        }
        table[index] = value.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(step);
    }
    acc ^ table[(acc & mask) as usize]
}
