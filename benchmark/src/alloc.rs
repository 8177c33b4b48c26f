//! A counting wrapper around the system allocator.
//!
//! Off (the default, and during every timed phase) it costs one relaxed
//! load per call and counts nothing. Switched on for the memory phase it
//! tracks live heap bytes and allocation calls of the whole process, which
//! is what `bytes_per_session` and `engine.allocs_per_kpoint` are read
//! from.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

pub struct CountingAlloc;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are side effects that touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
            ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counters at one instant. Memory freed while counting that was
/// allocated before counting began makes `live_bytes` negative; only
/// differences between two readings taken while on mean anything.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub live_bytes: i64,
    pub alloc_calls: u64,
}

pub fn set_counting(on: bool) {
    ON.store(on, Ordering::SeqCst);
}

pub fn read() -> Reading {
    Reading {
        live_bytes: LIVE_BYTES.load(Ordering::SeqCst),
        alloc_calls: ALLOC_CALLS.load(Ordering::SeqCst),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit-test binary installs the wrapper too (see main.rs), so this
    // exercises the real global path. Other tests allocate concurrently,
    // hence a private 3 MB block that nothing else would move by chance
    // and generous slack on everything else.
    #[test]
    fn counts_only_while_on_and_balances() {
        const BIG: usize = 3 << 20;
        set_counting(false);
        let off0 = read();
        drop(std::hint::black_box(vec![1u8; BIG]));
        let off1 = read();
        assert!(
            (off1.live_bytes - off0.live_bytes).abs() < BIG as i64 / 2,
            "counted while off"
        );

        set_counting(true);
        let on0 = read();
        let block = std::hint::black_box(vec![1u8; BIG]);
        let on1 = read();
        drop(block);
        let on2 = read();
        set_counting(false);

        let grew = on1.live_bytes - on0.live_bytes;
        assert!(
            (grew - BIG as i64).abs() < BIG as i64 / 2,
            "live bytes grew {grew}"
        );
        assert!(on1.alloc_calls > on0.alloc_calls);
        let back = on2.live_bytes - on0.live_bytes;
        assert!(back.abs() < BIG as i64 / 2, "alloc/free unbalanced: {back}");
    }
}
