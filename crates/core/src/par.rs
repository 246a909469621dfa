//! Scoped parallel helpers for the per-CFD loops of the batch `apply`s.
//!
//! The incremental protocols interleave computation with *metered*
//! shipment, so `incVer` splits each batch into a read-only, per-CFD
//! phase (candidate filtering, lines 4–6) that fans out over scoped
//! threads — matching the per-CFD parallelism the batch baselines already
//! use — and a serial replay phase that performs the protocol, keeping
//! message counts, `|M|` accounting and `ΔV` order bit-identical to the
//! sequential execution.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimum `ops × CFDs` product before the parallel path engages — below
/// this, thread spawn overhead dominates the saved work.
pub const PAR_THRESHOLD: usize = 4096;

/// Map `f` over `0..n`, on scoped worker threads when `parallel` is set
/// (and the machine has them); results are returned in index order either
/// way, so callers are deterministic regardless of the path taken.
pub fn par_map<T, F>(n: usize, parallel: bool, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(n);
    if !parallel || workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut parts: Vec<(usize, T)> = Vec::with_capacity(n);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let next = &next;
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            parts.extend(h.join().expect("par_map worker panicked"));
        }
    });
    parts.sort_unstable_by_key(|(i, _)| *i);
    parts.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_serial_agree_in_order() {
        let f = |i: usize| i * i;
        assert_eq!(par_map(100, true, &f), par_map(100, false, &f));
        assert_eq!(par_map(0, true, &f), Vec::<usize>::new());
        assert_eq!(par_map(1, true, &f), vec![0]);
    }
}
