//! Machine-speed calibration for the in-process workloads.
//!
//! The machine the baseline was recorded on (a 2-vCPU x86-64 VM shared
//! with other tenants) runs carta's solve and optimize paths up to 1.6×
//! slower for stretches of seconds to minutes, so the wall-clock
//! throughput of a 20 s `sweep` or `design_loop` run spreads by 10–25 %
//! (interquartile range over ten identical runs). The slow-downs are per
//! CPU and hit allocation- and cache-heavy code, not tight arithmetic.
//! So right after every operation the benchmark times a fixed kernel of
//! that kind — vector allocation and a hash map of `Arc`s, no carta code
//! — and divides the operation's wall time by how much slower the kernel
//! ran around it than on the reference machine.
//!
//! The workload's thread and a helper thread that runs the kernel are
//! pinned to one CPU for the phase, so the kernel sees the slow-down the
//! operations saw. Unpinned, the operations that outlast a migration
//! between CPUs got slower than any sample showed, and `design_loop`'s
//! p95 moved by 25 % between otherwise identical runs. Running on a
//! thread of its own also gives the kernel its own allocator arena:
//! timed on the workload's thread, it slowed down as carta's heap grew
//! (by up to 2× over a sweep), and a change to carta's memory use would
//! then have moved the scale as well as the operations.
//!
//! The server workloads are not scaled: their latencies are dominated by
//! socket and timer waits, which repeat within a few percent as they are.

use crate::stats::median;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Median kernel time on the reference machine, in seconds. Scaled
/// timings read as if the run had been made there.
pub const REFERENCE_S: f64 = 0.000_29;

/// One timing of the calibration kernel, in seconds.
fn kernel_s() -> f64 {
    let start = Instant::now();
    let mut acc = 0u64;
    for k in 0..500usize {
        let v = vec![k as u64; 64 + (k * 37) % 4000];
        acc = acc.wrapping_add(black_box(&v)[v.len() / 2]);
    }
    let mut map: HashMap<u64, Arc<Vec<u32>>> = HashMap::new();
    let mut x = 1u64;
    for _ in 0..3000 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = x >> 52;
        match map.get(&key) {
            Some(v) => acc = acc.wrapping_add(v.len() as u64),
            None => {
                map.insert(key, Arc::new(vec![key as u32; 16]));
            }
        }
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Pinning threads to one CPU. Elsewhere than on Linux nothing is
/// pinned and the scheduler places the threads.
#[cfg(target_os = "linux")]
mod cpu {
    /// A `cpu_set_t`: 1024 bits.
    pub type Mask = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Pins the calling thread to the CPU it runs on. Returns that CPU
    /// and the thread's previous mask, or `None` (nothing changed) when
    /// either is unavailable.
    pub fn pin_here() -> Option<(usize, Mask)> {
        // SAFETY: `sched_getcpu` takes no arguments and only reads the
        // calling thread's state; a negative result reports an error.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut previous: Mask = [0; 16];
        // SAFETY: `previous` is a live `cpu_set_t`-sized buffer of
        // `size_of_val(&previous)` bytes for the call to fill; pid 0
        // names the calling thread.
        let got = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&previous), previous.as_mut_ptr())
        };
        if got != 0 || cpu >= 64 * previous.len() {
            return None;
        }
        pin(cpu);
        Some((cpu, previous))
    }

    /// Pins the calling thread to `cpu`; a failure leaves it unpinned,
    /// which only weakens the calibration.
    pub fn pin(cpu: usize) {
        let mut mask: Mask = [0; 16];
        if let Some(word) = mask.get_mut(cpu / 64) {
            *word |= 1 << (cpu % 64);
            set(&mask);
        }
    }

    /// Gives the calling thread `mask` back.
    pub fn set(mask: &Mask) {
        // SAFETY: `mask` is a live, initialized `cpu_set_t`-sized buffer
        // of `size_of_val(mask)` bytes, which the call only reads; pid 0
        // names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub type Mask = ();

    pub fn pin_here() -> Option<(usize, Mask)> {
        None
    }

    pub fn pin(_cpu: usize) {}

    pub fn set(_mask: &Mask) {}
}

/// Calibration samples of one phase, one per operation. While it lives,
/// the thread that created it and a helper thread that times the kernel
/// are pinned to one CPU; dropping it (on the same thread) stops the
/// helper and gives the thread its previous CPU mask back.
#[derive(Debug)]
pub struct Speed {
    samples: Vec<f64>,
    requests: Option<Sender<()>>,
    timings: Receiver<f64>,
    helper: Option<JoinHandle<()>>,
    unpinned: Option<cpu::Mask>,
}

impl Default for Speed {
    /// Pins the calling thread and starts the helper on the same CPU.
    fn default() -> Speed {
        let pinned = cpu::pin_here();
        let (requests, incoming) = channel::<()>();
        let (reply, timings) = channel();
        let helper = std::thread::spawn(move || {
            if let Some((cpu, _)) = pinned {
                cpu::pin(cpu);
            }
            for () in incoming {
                let mut three = [kernel_s(), kernel_s(), kernel_s()];
                three.sort_by(f64::total_cmp);
                if reply.send(three[1]).is_err() {
                    break;
                }
            }
        });
        Speed {
            samples: Vec::new(),
            requests: Some(requests),
            timings,
            helper: Some(helper),
            unpinned: pinned.map(|(_, mask)| mask),
        }
    }
}

impl Speed {
    /// Times the kernel (median of three) on the pinned CPU. Call right
    /// after each timed operation, outside its timing.
    ///
    /// # Panics
    ///
    /// Panics if the helper thread died (a bug in the kernel).
    pub fn sample(&mut self) {
        let requests = self.requests.as_ref().expect("helper runs until drop");
        requests.send(()).expect("calibration helper is alive");
        let timing = self.timings.recv().expect("calibration helper replies");
        self.samples.push(timing);
    }

    /// How much slower than the reference machine the phase ran: the
    /// median sample over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        median(&self.samples) / REFERENCE_S
    }

    /// The operations' wall times in reference-machine seconds. Operation
    /// `i` is divided by the slowdown around it: the median of samples
    /// `i - 1`, `i` and `i + 1`, which a single disturbed sample cannot
    /// move.
    ///
    /// # Panics
    ///
    /// Panics unless there is one sample per operation (a bug in the
    /// workload).
    pub fn scale(&self, wall_s: &[f64]) -> Vec<f64> {
        assert_eq!(wall_s.len(), self.samples.len(), "one sample per operation");
        scale_by(&self.samples, wall_s)
    }
}

impl Drop for Speed {
    fn drop(&mut self) {
        // Closing the request channel ends the helper's loop.
        drop(self.requests.take());
        if let Some(helper) = self.helper.take() {
            let _ = helper.join();
        }
        if let Some(mask) = self.unpinned.take() {
            cpu::set(&mask);
        }
    }
}

/// `wall_s[i]` divided by the median of `samples[i - 1..=i + 1]` over
/// [`REFERENCE_S`].
fn scale_by(samples: &[f64], wall_s: &[f64]) -> Vec<f64> {
    let n = samples.len();
    wall_s
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let around = &samples[i.saturating_sub(1)..(i + 2).min(n)];
            t * REFERENCE_S / median(around)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_is_scaled_by_the_samples_around_it() {
        let r = REFERENCE_S;
        let samples = [2.0 * r, 2.0 * r, 9.0 * r, 2.0 * r, 4.0 * r, 4.0 * r];
        let scaled = scale_by(&samples, &[1.0; 6]);
        // The lone 9× sample moves nothing; the last three ran at 4×.
        let want = [0.5, 0.5, 0.5, 0.25, 0.25, 0.25];
        assert!(
            scaled.iter().zip(want).all(|(a, b)| (a - b).abs() < 1e-9),
            "{scaled:?}"
        );
    }

    #[test]
    fn samples_come_from_the_helper_and_it_stops_on_drop() {
        let mut speed = Speed::default();
        speed.sample();
        speed.sample();
        assert_eq!(speed.samples.len(), 2);
        assert!(speed.slowdown() > 0.0);
        assert_eq!(speed.scale(&[1.0, 1.0]).len(), 2);
        drop(speed);
    }
}
