//! Moves a single-threaded workload between the CPUs it may run on.
//!
//! On a host shared with other tenants, each CPU slows down and speeds up
//! on its own, over seconds. A thread the scheduler leaves on one CPU
//! samples that CPU's stretch of luck; moving it to the next allowed CPU
//! at every window makes each run sample all of them alike.

use std::mem::size_of_val;

/// Words of a `cpu_set_t` (1024 CPUs).
const WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

pub struct Rotor {
    allowed: [u64; WORDS],
    cpus: Vec<usize>,
    next: usize,
}

impl Rotor {
    /// A rotor over the CPUs this thread may run on now. It does nothing
    /// when not `enabled` (a workload with worker threads, which would
    /// inherit the pin), when there is only one CPU, or when the set
    /// cannot be read.
    pub fn new(enabled: bool) -> Rotor {
        let mut allowed = [0u64; WORDS];
        // SAFETY: `allowed` is a writable buffer of the size passed.
        let ok = enabled
            && unsafe { sched_getaffinity(0, size_of_val(&allowed), allowed.as_mut_ptr()) } == 0;
        let cpus = if ok {
            (0..WORDS * 64)
                .filter(|c| allowed[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Rotor {
            allowed,
            cpus,
            next: 0,
        }
    }

    /// Pin the calling thread to the next allowed CPU.
    pub fn advance(&mut self) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask = [0u64; WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        self.set(&mask);
    }

    fn set(&self, mask: &[u64; WORDS]) {
        // SAFETY: `mask` is a readable buffer of the size passed. A
        // failure leaves the thread where it was, which only costs
        // steadiness.
        unsafe { sched_setaffinity(0, size_of_val(mask), mask.as_ptr()) };
    }
}

impl Drop for Rotor {
    /// Give the thread back every CPU it had.
    fn drop(&mut self) {
        if self.cpus.len() >= 2 {
            self.set(&self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn allowed_now() -> usize {
        let mut m = [0u64; WORDS];
        // SAFETY: as in `Rotor::new`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size_of_val(&m), m.as_mut_ptr()) },
            0
        );
        m.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn rotor_pins_one_cpu_at_a_time_and_restores_the_set() {
        let before = allowed_now();
        {
            let mut r = Rotor::new(false);
            r.advance();
            assert_eq!(allowed_now(), before, "a disabled rotor pins nothing");
        }
        {
            let mut r = Rotor::new(true);
            r.advance();
            assert_eq!(allowed_now(), before.min(1));
        }
        assert_eq!(allowed_now(), before, "dropping the rotor restores the set");
    }
}
