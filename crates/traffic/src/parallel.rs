//! Thread-count policy for every parallel stage in the workspace.
//!
//! Flow routing, the per-shop searches and the detour-table fill all size
//! and split their work here, so worker counts are clamped
//! identically everywhere: requests are clamped to the number of
//! independent work units (extra workers would idle), never below one, and
//! the "use all cores" default comes from `available_parallelism()`, with a
//! logged fallback to 4 where the platform cannot report it.
//! [`mass_chunks`] cuts an index space into contiguous
//! shards balanced by per-item work.

/// Worker threads used when a caller asks for the automatic thread count:
/// `std::thread::available_parallelism()`, falling back to 4 when the
/// platform cannot report it (e.g. restricted sandboxes). The fallback is
/// logged to stderr once per process so a silently mis-sized run is
/// diagnosable.
pub fn default_threads() -> usize {
    match std::thread::available_parallelism() {
        Ok(n) => n.get(),
        Err(err) => {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!(
                    "rap-traffic: available_parallelism() failed ({err}); \
                     parallel routing defaulting to 4 worker threads"
                );
            });
            4
        }
    }
}

/// The single clamp point for requested thread counts: never more workers
/// than independent work units, never fewer than one.
pub fn effective_threads(requested: usize, unit_count: usize) -> usize {
    requested.min(unit_count).max(1)
}

/// Cuts `0..len` into contiguous `(lo, hi)` chunks balanced by the
/// per-item mass reported by `mass_of`: about `target` of them, one more
/// when trailing items carry no mass. Every chunk is non-empty and the
/// chunks cover the whole index space in order, so per-chunk results
/// concatenated in chunk order reproduce a sequential pass exactly.
pub fn mass_chunks(len: usize, mass_of: impl Fn(usize) -> usize, target: usize) -> Vec<(u32, u32)> {
    let total: usize = (0..len).map(&mass_of).sum();
    let quota = total.div_ceil(target.max(1)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut acc = 0usize;
    for i in 0..len {
        acc += mass_of(i);
        if acc >= quota {
            chunks.push((start as u32, i as u32 + 1));
            start = i + 1;
            acc = 0;
        }
    }
    if start < len {
        chunks.push((start as u32, len as u32));
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clamp_is_sane() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(4, 0), 1);
        assert_eq!(effective_threads(0, 10), 1);
    }

    #[test]
    fn default_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn mass_chunks_cover_everything_in_order() {
        let masses = [5usize, 1, 1, 1, 40, 2, 2, 2, 2, 10];
        for target in [1usize, 2, 3, 4, 8, 16] {
            let chunks = mass_chunks(masses.len(), |i| masses[i], target);
            assert!(!chunks.is_empty(), "target={target}");
            assert!(chunks.len() <= target.max(1) + 1, "target={target}");
            assert_eq!(chunks[0].0, 0, "target={target}");
            assert_eq!(chunks.last().unwrap().1 as usize, masses.len());
            for w in chunks.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous, target={target}");
                assert!(w[0].0 < w[0].1, "non-empty, target={target}");
            }
        }
        assert!(mass_chunks(0, |_| 1, 4).is_empty());
    }
}
