//! The reference clock: how fast the machine ran during each stretch of a
//! run, read from a kernel of the benchmark's own.
//!
//! This machine is a share of a busy host. For seconds to minutes at a time
//! its cores execute the same instructions 10–70 % slower — wall time and
//! CPU seconds together, with nothing else running in the machine — so two
//! runs of the same code an hour apart can differ by more than any change
//! worth landing. A timed run therefore interleaves its operations with
//! *ticks*: a fixed quantum of work that is not the program's, timed. The
//! quantum's time against [`REFERENCE_QUANTUM_MS`] is the machine's speed at
//! that moment, and every duration the timed pass reports is the integral
//! of that speed over the measured interval: the time the interval would
//! have taken at the reference pace. The kernel is written here and calls
//! nothing of the program, so no change to the program moves it.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::host;
use crate::stats::median;

/// What one quantum takes on the machine the baseline was measured on when
/// nothing disturbs it: the fastest runs of `baseline/BENCH_11_*.json` read
/// a `speed` of 1.00. Times are reported at this pace, so on that machine,
/// undisturbed, they read as measured.
pub const REFERENCE_QUANTUM_MS: f64 = 2.5;

/// The quantum is two parts, because the slow stretches are contention for
/// a core's execution units, not a slower clock: code that saturates the
/// multiplier slows by twice what a proof does, a chain of dependent
/// instructions hardly at all. [`CHAINS`] independent chains of 384-bit
/// Montgomery multiplications (the prover's inner loops) are the first
/// kind, one chain of dependent 64-bit operations the second; the lengths
/// give each about half of an undisturbed quantum, the mix at which the
/// quantum was measured to slow as a proof does (README, "Noise floor").
const CHAINS: usize = 8;
const MUL_STEPS: usize = 3_400;
const DEPENDENT_STEPS: usize = 880_000;

type Limbs = [u64; 6];

/// The BLS12-381 base field modulus, little-endian limbs.
const MODULUS: Limbs = [
    0xb9fe_ffff_ffff_aaab,
    0x1eab_fffe_b153_ffff,
    0x6730_d2a0_f6b0_f624,
    0x6477_4b84_f385_12bf,
    0x4b1b_a7b6_434b_acd7,
    0x1a01_11ea_397f_e69a,
];
/// `-MODULUS⁻¹ mod 2⁶⁴`.
const INV: u64 = 0x89f3_fffc_fffc_fffd;
/// `2³⁸⁴ mod MODULUS`: one, in Montgomery form.
const ONE: Limbs = [
    0x7609_0000_0002_fffd,
    0xebf4_000b_c40c_0002,
    0x5f48_9857_53c7_58ba,
    0x77ce_5853_7052_5745,
    0x5c07_1a97_a256_ec6d,
    0x15f6_5ec3_fa80_e493,
];

/// `a · b · 2⁻³⁸⁴ mod MODULUS`, operand scanning with the reduction
/// interleaved (CIOS); `a, b < MODULUS`.
fn mont_mul(a: &Limbs, b: &Limbs) -> Limbs {
    let mut t = [0u64; 8];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..6 {
            let v = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
            t[j] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[6]) + carry;
        t[6] = v as u64;
        t[7] = (v >> 64) as u64;

        let m = t[0].wrapping_mul(INV);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(MODULUS[0])) >> 64;
        for j in 1..6 {
            let v = u128::from(t[j]) + u128::from(m) * u128::from(MODULUS[j]) + carry;
            t[j - 1] = v as u64;
            carry = v >> 64;
        }
        let v = u128::from(t[6]) + carry;
        t[5] = v as u64;
        t[6] = t[7] + (v >> 64) as u64;
    }
    // The result is below 2·MODULUS: subtract once if it is not below
    // MODULUS.
    let mut reduced = [0u64; 6];
    let mut borrow = 0u64;
    for j in 0..6 {
        let (d, b1) = t[j].overflowing_sub(MODULUS[j]);
        let (d, b2) = d.overflowing_sub(borrow);
        reduced[j] = d;
        borrow = u64::from(b1 | b2);
    }
    if t[6] != 0 || borrow == 0 {
        reduced
    } else {
        [t[0], t[1], t[2], t[3], t[4], t[5]]
    }
}

/// Runs one quantum of the reference kernel; the CPU time it took, in ms.
/// CPU time of the thread, not wall time: the quantum may share its core
/// with the server's proving thread, and what it reads is how fast the core
/// executes, not how long the quantum waited for it.
fn quantum_ms() -> f64 {
    let began = host::thread_cpu_seconds();
    let factor = black_box(MODULUS.map(|limb| limb >> 1));
    let mut chains = [ONE; CHAINS];
    for (i, chain) in chains.iter_mut().enumerate() {
        chain[0] ^= i as u64;
    }
    for _ in 0..MUL_STEPS {
        for chain in &mut chains {
            *chain = mont_mul(chain, &factor);
        }
    }
    let mut x = black_box(chains)[0][0];
    for _ in 0..DEPENDENT_STEPS {
        x ^= x >> 29;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    }
    black_box(x);
    (host::thread_cpu_seconds() - began) * 1e3
}

/// The machine's speed at one moment: 1 at the reference pace, below 1 when
/// it ran slower.
#[derive(Copy, Clone, Debug)]
pub struct Tick {
    at: Instant,
    speed: f64,
}

/// Runs `quanta` quanta back to back and reads the speed off their median.
fn read(quanta: usize) -> Tick {
    let began = Instant::now();
    let times: Vec<f64> = (0..quanta).map(|_| quantum_ms()).collect();
    Tick {
        at: began + began.elapsed() / 2,
        speed: REFERENCE_QUANTUM_MS / median(&times),
    }
}

/// The ticks of the run being recorded, from whichever thread took them;
/// `None` while no run is.
static RECORDED: Mutex<Option<Vec<Tick>>> = Mutex::new(None);

fn recorded() -> MutexGuard<'static, Option<Vec<Tick>>> {
    RECORDED
        .lock()
        .expect("nothing panics while it holds the tick list")
}

/// Starts recording ticks. Only the timed pass does: everywhere else
/// [`tick`] returns at once.
pub fn record() {
    *recorded() = Some(Vec::new());
}

/// Reads the machine's speed off `quanta` quanta and records it; does
/// nothing, and costs nothing, while no run is being recorded.
pub fn tick(quanta: usize) {
    if recorded().is_none() {
        return;
    }
    let tick = read(quanta);
    if let Some(ticks) = recorded().as_mut() {
        ticks.push(tick);
    }
}

/// Stops recording; the clock of the ticks recorded since [`record`].
pub fn stop() -> Clock {
    Clock::new(recorded().take().unwrap_or_default())
}

/// The ticks of a run in time order: the speed at any moment is read off
/// the two ticks around it (linearly between them, the nearest one's before
/// the first and after the last). Without ticks the speed is 1 throughout:
/// times stay as measured.
pub struct Clock {
    ticks: Vec<Tick>,
}

impl Clock {
    fn new(mut ticks: Vec<Tick>) -> Self {
        ticks.sort_by_key(|t| t.at);
        Self { ticks }
    }

    fn speed_at(&self, at: Instant) -> f64 {
        let after = self.ticks.partition_point(|t| t.at <= at);
        match (after.checked_sub(1), self.ticks.get(after)) {
            (Some(before), Some(next)) => {
                let prev = self.ticks[before];
                let span = next.at.duration_since(prev.at).as_secs_f64();
                let share = at.duration_since(prev.at).as_secs_f64() / span;
                prev.speed + (next.speed - prev.speed) * share
            }
            (Some(before), None) => self.ticks[before].speed,
            (None, Some(first)) => first.speed,
            (None, None) => 1.0,
        }
    }

    /// What the `lasted_s` seconds from `from` would have lasted at the
    /// reference pace, in seconds: the integral of the speed over them.
    pub fn seconds(&self, from: Instant, lasted_s: f64) -> f64 {
        let to = from + Duration::from_secs_f64(lasted_s);
        let mut at = from;
        let mut speed = self.speed_at(from);
        let mut total = 0.0;
        let inside = self.ticks.iter().filter(|t| t.at > from && t.at < to);
        let end = Tick {
            at: to,
            speed: self.speed_at(to),
        };
        for next in inside.chain([&end]) {
            total += next.at.duration_since(at).as_secs_f64() * (speed + next.speed) / 2.0;
            (at, speed) = (next.at, next.speed);
        }
        total
    }

    /// The median speed over the run's ticks, for the record.
    pub fn median_speed(&self) -> f64 {
        if self.ticks.is_empty() {
            return 1.0;
        }
        median(&self.ticks.iter().map(|t| t.speed).collect::<Vec<_>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_a_montgomery_multiplication() {
        assert_eq!(MODULUS[0].wrapping_mul(INV), u64::MAX);
        let x = MODULUS.map(|limb| limb >> 1);
        let y = MODULUS.map(|limb| limb >> 3);
        assert_eq!(mont_mul(&x, &ONE), x);
        assert_eq!(mont_mul(&ONE, &ONE), ONE);
        assert_eq!(mont_mul(&x, &y), mont_mul(&y, &x));
        let xy = mont_mul(&x, &y);
        assert_eq!(mont_mul(&xy, &x), mont_mul(&x, &mont_mul(&y, &x)));
        // MODULUS − 1 squared is 1: the top of the range reduces correctly.
        let mut minus_one = [0u64; 6];
        let mut borrow = 0u64;
        for j in 0..6 {
            let (d, b1) = MODULUS[j].overflowing_sub(ONE[j]);
            let (d, b2) = d.overflowing_sub(borrow);
            minus_one[j] = d;
            borrow = u64::from(b1 | b2);
        }
        assert_eq!(mont_mul(&minus_one, &minus_one), ONE);
    }

    #[test]
    fn the_clock_integrates_speed_over_an_interval() {
        let t0 = Instant::now();
        let s = Duration::from_secs;
        let at = |secs, speed| Tick {
            at: t0 + s(secs),
            speed,
        };
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // Speed 1 until 10 s, falling to 0.5 at 20 s, 0.5 from then on.
        let clock = Clock::new(vec![at(20, 0.5), at(10, 1.0)]);
        assert!(close(clock.seconds(t0, 10.0), 10.0));
        assert!(close(clock.seconds(t0 + s(10), 10.0), 7.5));
        assert!(close(clock.seconds(t0 + s(20), 10.0), 5.0));
        assert!(close(clock.seconds(t0, 30.0), 22.5));
        assert!(close(clock.seconds(t0 + s(12), 4.0), 4.0 * 0.8));
        assert!(close(clock.seconds(t0 + s(5), 0.0), 0.0));
        assert_eq!(clock.median_speed(), 0.75);
        let as_measured = Clock::new(Vec::new());
        assert!(close(as_measured.seconds(t0, 3.0), 3.0));
        assert_eq!(as_measured.median_speed(), 1.0);
        let now = read(2);
        assert!(now.speed > 0.0 && now.at >= t0);
    }
}
