//! The thread-parallel execution knob shared by every parallel pass.
//!
//! Parallelism in this workspace follows one contract: **the serial path
//! is the verified twin**.  Every parallel code path (bulk cut
//! enumeration, the portfolio flow) must produce *bit-identical* results
//! at every thread count — identical cut arenas (contents and order) and
//! identical LUT counts.  The property suite and the CI smoke step enforce
//! this, so the knob can be turned freely without changing any result,
//! only wall-clock time.
//!
//! A threaded path stays only where a bench row (`BENCH_parallel.json`)
//! shows it pays at two threads on some workload.
//!
//! Bulk cut enumeration partitions *levels*: a
//! [`DepthView`](crate::views::DepthView) orders gates into levels where
//! every node of level `L` depends only on nodes of levels `< L`.  Each level is a
//! parallel-for over its node bucket; a barrier between levels is the only
//! synchronisation, so the path pays on shallow networks and loses on deep
//! ones with many near-empty levels.  The portfolio runs one
//! representation per thread.  Determinism falls out of commit
//! discipline: threads compute into private buffers and results are
//! committed in a fixed order that does not depend on the thread count.
//!
//! No new dependencies: everything builds on [`std::thread::scope`].

use std::sync::OnceLock;

/// Environment variable overriding the default thread count.
pub const THREADS_ENV_VAR: &str = "GLSX_THREADS";

/// The thread-count knob for parallel passes.
///
/// Defaults to serial (`threads == 1`); every consumer treats the serial
/// configuration as the reference implementation and the multi-threaded
/// configurations as bit-identical accelerations of it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Parallelism {
    /// Number of worker threads (clamped to at least 1).
    pub threads: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::serial()
    }
}

impl Parallelism {
    /// The serial configuration (the verified twin).
    #[inline]
    pub fn serial() -> Self {
        Self { threads: 1 }
    }

    /// A configuration with the given number of threads (at least 1).
    #[inline]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Reads the process-wide configuration from the `GLSX_THREADS`
    /// environment variable (cached after the first read; unset, empty or
    /// unparsable values mean serial).
    ///
    /// Only passes whose parallel path is bit-identical to their serial
    /// twin may consult this: the whole test suite must pass unchanged
    /// under any `GLSX_THREADS` value.
    pub fn from_env() -> Self {
        static CACHED: OnceLock<usize> = OnceLock::new();
        let threads = *CACHED.get_or_init(|| {
            std::env::var(THREADS_ENV_VAR)
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .unwrap_or(1)
                .max(1)
        });
        Self { threads }
    }

    /// Returns `true` if more than one thread is configured.
    #[inline]
    pub fn is_parallel(&self) -> bool {
        self.threads > 1
    }

    /// Splits `len` items into per-thread chunk bounds: at most
    /// [`threads`](Self::threads) half-open ranges covering `0..len`,
    /// balanced to within one item.  Empty ranges are omitted, so the
    /// result may have fewer entries than threads.
    pub fn chunk_bounds(&self, len: usize) -> Vec<(usize, usize)> {
        let workers = self.threads.min(len.max(1));
        let base = len / workers;
        let extra = len % workers;
        let mut bounds = Vec::with_capacity(workers);
        let mut start = 0;
        for worker in 0..workers {
            let size = base + usize::from(worker < extra);
            if size == 0 {
                continue;
            }
            bounds.push((start, start + size));
            start += size;
        }
        bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_the_default() {
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(!Parallelism::serial().is_parallel());
        assert_eq!(Parallelism::new(0).threads, 1);
        assert!(Parallelism::new(4).is_parallel());
    }

    #[test]
    fn chunk_bounds_cover_the_range_without_overlap() {
        for threads in 1..=8 {
            for len in 0..40 {
                let bounds = Parallelism::new(threads).chunk_bounds(len);
                assert!(bounds.len() <= threads);
                let mut expected_start = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, expected_start);
                    assert!(end > start, "no empty chunks");
                    expected_start = end;
                }
                assert_eq!(expected_start, len, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn chunk_bounds_are_balanced() {
        let bounds = Parallelism::new(4).chunk_bounds(10);
        let sizes: Vec<usize> = bounds.iter().map(|&(s, e)| e - s).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }
}
