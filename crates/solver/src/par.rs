//! Deterministic scoped-thread fan-out for embarrassingly parallel work.
//!
//! [`par_map`] splits an index range into contiguous chunks, one per
//! worker, and each worker writes results directly into its own slice of
//! the output buffer — so the result vector is *identical* to the
//! sequential `(0..n).map(f).collect()` regardless of how many threads run
//! or how they interleave. The flow's determinism guarantee (same circuit,
//! same seed ⇒ bit-identical outcome) therefore survives parallelization.
//!
//! The output is written through `MaybeUninit` slots (no `Vec<Option<T>>`
//! staging buffer, no per-slot unwrap pass): each chunk owns a disjoint
//! `&mut [MaybeUninit<T>]` and initializes every slot exactly once, after
//! which the buffer is reinterpreted as `Vec<T>` in place.
//!
//! Small inputs stay sequential: spawning threads for a handful of items
//! costs more than it saves. The thresholds live in [`ParConfig`] so
//! callers with very different per-item costs (a tap solve vs. a single
//! reduced-cost dot product) can each pick a profitable cutover.

use std::mem::{ManuallyDrop, MaybeUninit};
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// Fan-out thresholds for [`par_map_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Inputs below this size run sequentially.
    pub min_parallel: usize,
    /// Upper bound on worker threads. The default follows the machine
    /// ([`default_max_threads`]); override per call site, or fleet-wide
    /// through the `ROTARY_THREADS` environment variable.
    pub max_threads: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        Self { min_parallel: 64, max_threads: default_max_threads() }
    }
}

/// The default worker-thread cap: `ROTARY_THREADS` when set to a positive
/// integer, otherwise [`thread::available_parallelism`]. Read once and
/// cached for the process lifetime.
///
/// Determinism does not depend on this value: every parallel kernel in
/// this crate commits chunked results position-stably, so the output is
/// bit-identical for any thread count ≥ 1.
pub fn default_max_threads() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        if let Some(v) = std::env::var_os("ROTARY_THREADS") {
            if let Some(n) = v.to_str().and_then(|s| s.trim().parse::<usize>().ok()) {
                if n >= 1 {
                    return n;
                }
            }
        }
        thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
    })
}

impl ParConfig {
    /// Thresholds for cheap per-item work (a few flops each, e.g. the
    /// simplex pricing scan): only fan out when the scan is large enough
    /// that chunking beats the thread-spawn cost.
    pub fn fine_grained() -> Self {
        Self { min_parallel: 16_384, ..Self::default() }
    }

    /// Worker count for an input of `n` items (1 = run sequentially).
    pub fn workers(&self, n: usize) -> usize {
        if n < self.min_parallel {
            return 1;
        }
        thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
            .min(self.max_threads)
            .min(n.max(1))
    }
}

/// Maps `f` over `0..n` with the default [`ParConfig`], returning the same
/// vector as `(0..n).map(f).collect()` — deterministically, independent of
/// thread count and scheduling.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_with(&ParConfig::default(), n, f)
}

/// [`par_map`] with explicit thresholds.
pub fn par_map_with<T, F>(cfg: &ParConfig, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = cfg.workers(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }

    let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    out.resize_with(n, MaybeUninit::uninit);
    let chunk = n.div_ceil(workers);
    thread::scope(|s| {
        for (w, slice) in out.chunks_mut(chunk).enumerate() {
            let f = &f;
            s.spawn(move || {
                let base = w * chunk;
                for (k, slot) in slice.iter_mut().enumerate() {
                    slot.write(f(base + k));
                }
            });
        }
    });
    // SAFETY: the chunks partition `out`, every worker initialized each
    // slot of its chunk exactly once, and `thread::scope` joined all
    // workers before returning (a worker panic propagates out of the scope
    // above, in which case `out` is dropped as `MaybeUninit` — leaking the
    // written elements, never reading uninitialized ones).
    // `MaybeUninit<T>` is layout-compatible with `T`.
    unsafe {
        let mut out = ManuallyDrop::new(out);
        Vec::from_raw_parts(out.as_mut_ptr().cast::<T>(), n, out.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_map_above_threshold() {
        let n = ParConfig::default().min_parallel * 3 + 7;
        let expect: Vec<usize> = (0..n).map(|i| i * i + 1).collect();
        assert_eq!(par_map(n, |i| i * i + 1), expect);
    }

    #[test]
    fn small_and_empty_inputs() {
        assert_eq!(par_map(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(3, |i| i + 10), vec![10, 11, 12]);
    }

    #[test]
    fn calls_f_exactly_once_per_index() {
        let n = ParConfig::default().min_parallel * 2;
        let calls = AtomicUsize::new(0);
        let out = par_map(n, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn drop_types_survive_the_uninit_path() {
        // Heap-owning results exercise the MaybeUninit → Vec<T> handoff.
        let n = ParConfig::default().min_parallel * 2 + 1;
        let out = par_map(n, |i| vec![i; 3]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v, &vec![i; 3]);
        }
    }

    #[test]
    fn default_cap_follows_machine_or_env() {
        assert!(default_max_threads() >= 1);
        assert_eq!(ParConfig::default().max_threads, default_max_threads());
    }

    #[test]
    fn custom_config_thresholds() {
        let cfg = ParConfig { min_parallel: 4, max_threads: 2 };
        assert_eq!(par_map_with(&cfg, 10, |i| i * 2), (0..10).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(cfg.workers(3), 1);
        assert!(cfg.workers(10) <= 2);
        assert!(ParConfig::fine_grained().min_parallel > ParConfig::default().min_parallel);
    }
}
