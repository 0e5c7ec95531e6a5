//! Per-block work on every core: the one place pvcheck spawns threads.
//!
//! Characterization and the rank tables both compute one independent
//! result per block. [`fill_rows`] hands fixed-size chunks of an output
//! buffer to workers that claim them from a shared cursor, so a slow chunk
//! delays only its own worker, and each row is written in place at its
//! final position: the result does not depend on the worker count or on
//! which worker took which chunk.

use std::sync::Mutex;

/// Rows per claimed chunk: large enough that claiming costs nothing next to
/// the rows' work, small enough that both cores stay busy to the end.
const CHUNK_ROWS: usize = 32;

/// The worker count [`fill_rows`] uses by default: every available core.
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Calls `fill(row, &mut out[row * row_len..][..row_len])` for every row of
/// `out` on up to `workers` spawned threads.
///
/// The calling thread only waits, as the snapshot's own threads did before
/// this helper: rows that allocate, such as a snapshot's profiles, then
/// come from the workers' allocator arenas, and the caller's heap does not
/// grow and shrink by half of them on every call.
///
/// # Panics
///
/// Panics if `workers` is zero, if a non-empty `out` does not hold whole
/// rows of `row_len`, or if `fill` panics.
pub(crate) fn fill_rows<T: Send>(
    out: &mut [T],
    row_len: usize,
    workers: usize,
    fill: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(workers > 0, "need at least one worker");
    if out.is_empty() {
        return;
    }
    assert!(row_len > 0 && out.len().is_multiple_of(row_len), "output is not whole rows");
    let chunks = out.len().div_ceil(CHUNK_ROWS * row_len);
    let cursor = Mutex::new(out.chunks_mut(CHUNK_ROWS * row_len).enumerate());
    let work = || loop {
        let Some((chunk, rows)) = cursor.lock().expect("a fill worker panicked").next() else {
            return;
        };
        for (i, row) in rows.chunks_exact_mut(row_len).enumerate() {
            fill(chunk * CHUNK_ROWS + i, row);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(chunks)).map(|_| scope.spawn(work)).collect();
        // Joined here, not by the scope: the scope returns once the
        // closures finish, while the threads may still be exiting, and
        // glibc frees a thread's allocator arena for reuse only as it
        // exits. Threads the caller spawns next would then grow new arenas.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_is_filled_once_at_its_index() {
        for workers in [1, 2, 3, 8] {
            for rows in [0, 1, 31, 32, 33, 100] {
                let mut out = vec![(0usize, 0usize); rows * 3];
                fill_rows(&mut out, 3, workers, |row, slots| {
                    for (k, slot) in slots.iter_mut().enumerate() {
                        *slot = (row, slot.1 + k + 1);
                    }
                });
                let expected: Vec<(usize, usize)> =
                    (0..rows).flat_map(|r| (1..=3).map(move |k| (r, k))).collect();
                assert_eq!(out, expected, "workers={workers} rows={rows}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole rows")]
    fn ragged_output_panics() {
        fill_rows(&mut [0u8; 5], 2, 1, |_, _| {});
    }
}
