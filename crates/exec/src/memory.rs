//! Resident-memory sampling (paper Figure 10).
//!
//! The paper measures "memory usage at one-second intervals during HELIX
//! workflow execution" and reports per-iteration peak and average. We
//! sample the cache's resident bytes after every operator event instead —
//! event-driven sampling is strictly finer-grained than 1 Hz polling for
//! workloads of our scale. At one worker the samples are taken in the
//! serial topological order, so the series is deterministic; at wider
//! widths peak and average may vary with completion order.

/// Accumulates memory samples for one iteration. Every engine worker
/// records a sample after each cache mutation, so the tracker is shared.
///
/// The peak is a lock-free `fetch_max`; the running sum needs 128-bit
/// accumulation (no atomic u128 on stable), so it sits behind a mutex —
/// touched once per sample, far off any hot path.
#[derive(Debug, Default)]
pub struct SharedMemoryTracker {
    peak: std::sync::atomic::AtomicU64,
    accum: std::sync::Mutex<(u128, u64)>,
}

impl SharedMemoryTracker {
    /// Fresh tracker.
    pub fn new() -> SharedMemoryTracker {
        SharedMemoryTracker::default()
    }

    /// Record an observation of resident bytes.
    pub fn record(&self, resident_bytes: u64) {
        self.peak.fetch_max(resident_bytes, std::sync::atomic::Ordering::Relaxed);
        let mut accum = self.accum.lock().unwrap();
        accum.0 += resident_bytes as u128;
        accum.1 += 1;
    }

    /// Highest observation.
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Mean observation (0 when no samples).
    pub fn avg_bytes(&self) -> u64 {
        let accum = self.accum.lock().unwrap();
        if accum.1 == 0 {
            0
        } else {
            (accum.0 / accum.1 as u128) as u64
        }
    }

    /// Number of samples taken.
    pub fn samples(&self) -> u64 {
        self.accum.lock().unwrap().1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_tracker_peak_and_average() {
        let t = SharedMemoryTracker::new();
        t.record(100);
        t.record(300);
        t.record(200);
        assert_eq!(t.peak_bytes(), 300);
        assert_eq!(t.avg_bytes(), 200);
        assert_eq!(t.samples(), 3);
        let empty = SharedMemoryTracker::new();
        assert_eq!(empty.peak_bytes(), 0);
        assert_eq!(empty.avg_bytes(), 0);
    }

    #[test]
    fn shared_tracker_concurrent_records() {
        let t = SharedMemoryTracker::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    for v in 1..=100u64 {
                        t.record(v);
                    }
                });
            }
        });
        assert_eq!(t.samples(), 400);
        assert_eq!(t.peak_bytes(), 100);
        assert_eq!(t.avg_bytes(), 50); // mean of 1..=100 is 50.5, integer division
    }

    #[test]
    fn no_overflow_on_large_samples() {
        let t = SharedMemoryTracker::new();
        for _ in 0..1000 {
            t.record(u64::MAX / 2);
        }
        assert_eq!(t.avg_bytes(), u64::MAX / 2);
    }
}
