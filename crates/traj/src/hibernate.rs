//! Session hibernation: the cold half of the two-tier session store.
//!
//! At fleet scale most open trips are idle between GPS pings, yet a hot
//! session pins two `hidden_dim` LSTM vectors plus its label buffer for
//! its whole lifetime. This module provides the machinery to park such
//! sessions cheaply:
//!
//! * [`Hibernate`] — the freeze/thaw contract a session value implements
//!   against a context (for RL4OASD: the model view of the epoch the
//!   session opened under). The contract is **exact restore**: thawing
//!   the frozen bytes must reproduce a value observationally identical
//!   to the one frozen — every later label must be byte-identical to a
//!   never-hibernated run (property-tested in `tests/hibernate.rs`).
//! * [`FrozenArena`] — a chunked bump arena holding the frozen blobs,
//!   with stable [`FrozenRef`] handles, per-blob free and automatic
//!   compaction once dead bytes dominate, so a churning fleet does not
//!   leak arena space.
//! * varint / run-length codec helpers ([`put_varint`], [`put_runs`],
//!   …) shared by implementors, so frozen encodings are compact and
//!   self-describing without per-implementor codec duplication.
//!
//! [`crate::SessionSlab`] stitches these together as its cold tier:
//! `freeze`/`thaw` move a live slot between the hot (`T`) and cold
//! (arena blob) representations without invalidating its generational
//! [`crate::SessionId`].

/// Freeze/thaw contract of a hibernatable session value.
///
/// `Ctx` is whatever shared immutable state the encoding is defined
/// against — for RL4OASD sessions, the model view of the epoch the
/// session was opened under, so stream vectors can be delta-encoded
/// against the model's initial stream state.
///
/// # Contract: exact restore
///
/// `thaw(ctx, &frozen)` where `frozen` was produced by
/// `freeze(ctx, &mut frozen)` (the *same* `ctx`) must yield a value whose
/// observable behaviour is identical to the original — in particular,
/// every label a detection session emits after thawing must equal what
/// the never-frozen session would have emitted. Lossy codecs (float
/// quantisation, label truncation) violate the contract.
pub trait Hibernate<Ctx: ?Sized>: Sized {
    /// Appends the frozen encoding of `self` to `out` (which may already
    /// hold a caller prefix; implementors must only append).
    fn freeze(&self, ctx: &Ctx, out: &mut Vec<u8>);

    /// Rebuilds a value from bytes produced by [`Hibernate::freeze`]
    /// under the same `ctx`.
    ///
    /// # Panics
    /// May panic on malformed bytes; frozen blobs never leave the
    /// process, so corruption is a logic error, not an input error.
    fn thaw(ctx: &Ctx, bytes: &[u8]) -> Self;
}

/// Appends `v` to `out` as a LEB128 varint (7 bits per byte, low first).
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads a LEB128 varint from the front of `bytes`, advancing the slice.
///
/// # Panics
/// Panics on truncated input.
#[inline]
pub fn get_varint(bytes: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        let (b, rest) = bytes.split_first().expect("truncated varint");
        *bytes = rest;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
        assert!(shift < 64, "varint overflow");
    }
}

/// Appends a binary (`0`/`1`) label sequence as alternating run lengths:
/// `varint len`, then (if non-empty) the first value byte followed by
/// varint run lengths that alternate between that value and its
/// complement until `len` is covered. Long normal stretches (the common
/// case: mostly-0 label streams with few anomalous runs) collapse to a
/// couple of bytes.
///
/// # Panics
/// Debug-asserts every label is `0` or `1` (the label contract).
pub fn put_runs(out: &mut Vec<u8>, labels: &[u8]) {
    put_varint(out, labels.len() as u64);
    let Some(&first) = labels.first() else { return };
    debug_assert!(labels.iter().all(|&l| l <= 1), "labels must be binary");
    out.push(first);
    let mut current = first;
    let mut run = 0u64;
    for &l in labels {
        if l == current {
            run += 1;
        } else {
            put_varint(out, run);
            current = l;
            run = 1;
        }
    }
    put_varint(out, run);
}

/// Reads a [`put_runs`] sequence from the front of `bytes` (advancing the
/// slice), appending the decoded labels to `out`.
///
/// # Panics
/// Panics on truncated or inconsistent input.
pub fn get_runs(bytes: &mut &[u8], out: &mut Vec<u8>) {
    let len = get_varint(bytes) as usize;
    if len == 0 {
        return;
    }
    let (first, rest) = bytes.split_first().expect("truncated run header");
    *bytes = rest;
    let mut value = *first;
    let mut decoded = 0usize;
    out.reserve(len);
    while decoded < len {
        let run = get_varint(bytes) as usize;
        assert!(run > 0 && decoded + run <= len, "inconsistent run lengths");
        out.resize(out.len() + run, value);
        decoded += run;
        value ^= 1;
    }
}

/// XOR-deltas `values` against `base` bit-for-bit and appends the result
/// as little-endian bytes. With an all-zero base (the LSTM initial
/// stream state) this is the identity on the bit pattern, but the delta
/// form keeps the encoding correct should a model ever carry a non-zero
/// initial state — and stays exactly invertible either way.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn put_f32_delta(out: &mut Vec<u8>, values: &[f32], base: &[f32]) {
    assert_eq!(values.len(), base.len(), "delta base length mismatch");
    out.reserve(values.len() * 4);
    for (&v, &b) in values.iter().zip(base) {
        out.extend_from_slice(&(v.to_bits() ^ b.to_bits()).to_le_bytes());
    }
}

/// Inverts [`put_f32_delta`]: reads `base.len()` deltaed floats from the
/// front of `bytes` (advancing the slice) into `out`.
///
/// # Panics
/// Panics on truncated input.
pub fn get_f32_delta(bytes: &mut &[u8], base: &[f32], out: &mut Vec<f32>) {
    let need = base.len() * 4;
    assert!(bytes.len() >= need, "truncated f32 delta block");
    let (block, rest) = bytes.split_at(need);
    *bytes = rest;
    out.reserve(base.len());
    for (chunk, &b) in block.chunks_exact(4).zip(base) {
        let bits = u32::from_le_bytes(chunk.try_into().unwrap());
        out.push(f32::from_bits(bits ^ b.to_bits()));
    }
}

/// Stable handle of one frozen blob inside a [`FrozenArena`].
///
/// Refs are single-owner by protocol (the slab's cold slot holds exactly
/// one); they are not generational — freeing a ref and keeping a copy is
/// a logic error the arena cannot detect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrozenRef(u32);

#[derive(Debug, Clone, Copy)]
struct ArenaEntry {
    chunk: u32,
    offset: u32,
    len: u32,
    live: bool,
}

/// Default chunk payload size: big enough to amortise chunk headers over
/// hundreds of frozen sessions, small enough that a near-empty arena
/// costs little.
const DEFAULT_CHUNK_SIZE: usize = 64 * 1024;

/// Chunked bump arena for frozen session blobs.
///
/// Allocation appends to the tail chunk (opening a new chunk when the
/// blob does not fit); [`FrozenArena::free`] marks a blob dead without
/// moving anything. Once dead bytes exceed live bytes (and a chunk's
/// worth in absolute terms), the arena **compacts**: live blobs are
/// copied into fresh chunks in entry order and the entry table is
/// rewritten in place, so every outstanding [`FrozenRef`] stays valid —
/// no back-pointers into the owner are needed.
#[derive(Debug, Clone)]
pub struct FrozenArena {
    chunks: Vec<Vec<u8>>,
    entries: Vec<ArenaEntry>,
    free: Vec<u32>,
    live_bytes: usize,
    dead_bytes: usize,
    chunk_size: usize,
    compactions: u64,
}

impl Default for FrozenArena {
    fn default() -> Self {
        Self::new()
    }
}

impl FrozenArena {
    /// An empty arena with the default chunk size.
    pub fn new() -> Self {
        Self::with_chunk_size(DEFAULT_CHUNK_SIZE)
    }

    /// An empty arena bump-allocating in chunks of `chunk_size` bytes
    /// (oversized blobs get a dedicated chunk).
    pub fn with_chunk_size(chunk_size: usize) -> Self {
        FrozenArena {
            chunks: Vec::new(),
            entries: Vec::new(),
            free: Vec::new(),
            live_bytes: 0,
            dead_bytes: 0,
            chunk_size: chunk_size.max(1),
            compactions: 0,
        }
    }

    /// Copies `bytes` into the arena, returning its stable ref.
    pub fn alloc(&mut self, bytes: &[u8]) -> FrozenRef {
        let fits = self
            .chunks
            .last()
            .is_some_and(|c| c.capacity() - c.len() >= bytes.len());
        if !fits {
            self.chunks
                .push(Vec::with_capacity(self.chunk_size.max(bytes.len())));
        }
        let chunk_idx = self.chunks.len() - 1;
        let chunk = &mut self.chunks[chunk_idx];
        let offset = chunk.len();
        chunk.extend_from_slice(bytes);
        let entry = ArenaEntry {
            chunk: chunk_idx as u32,
            offset: offset as u32,
            len: bytes.len() as u32,
            live: true,
        };
        self.live_bytes += bytes.len();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx as usize] = entry;
                idx
            }
            None => {
                let idx = u32::try_from(self.entries.len()).expect("more than 2^32 frozen blobs");
                self.entries.push(entry);
                idx
            }
        };
        FrozenRef(idx)
    }

    /// The bytes of a live blob.
    ///
    /// # Panics
    /// Panics (or debug-asserts bounds) if `r` was freed.
    pub fn get(&self, r: FrozenRef) -> &[u8] {
        let e = self.entries.get(r.0 as usize).filter(|e| e.live);
        let e = *e.unwrap_or_else(|| panic!("frozen blob {} was freed", r.0));
        let chunk = &self.chunks[e.chunk as usize];
        debug_assert!(
            (e.offset as usize).saturating_add(e.len as usize) <= chunk.len(),
            "arena entry out of chunk bounds"
        );
        &chunk[e.offset as usize..e.offset as usize + e.len as usize]
    }

    /// Frees a blob, compacting the arena when dead bytes dominate. Freeing
    /// the last live blob releases everything — chunks, entry table and
    /// free list — so a drained cold tier costs nothing.
    ///
    /// # Panics
    /// Panics if `r` was already freed.
    pub fn free(&mut self, r: FrozenRef) {
        let e = self.entries.get_mut(r.0 as usize).filter(|e| e.live);
        let e = e.unwrap_or_else(|| panic!("frozen blob {} double-freed", r.0));
        e.live = false;
        self.live_bytes -= e.len as usize;
        self.dead_bytes += e.len as usize;
        self.free.push(r.0);
        if self.free.len() == self.entries.len() {
            self.chunks = Vec::new();
            self.entries = Vec::new();
            self.free = Vec::new();
            self.dead_bytes = 0;
        } else if self.dead_bytes >= self.live_bytes && self.dead_bytes > self.chunk_size {
            self.compact();
        }
    }

    /// Rewrites live blobs into fresh chunks (entry order), updating the
    /// entry table in place so outstanding refs survive.
    fn compact(&mut self) {
        let mut chunks: Vec<Vec<u8>> = Vec::new();
        for e in &mut self.entries {
            if !e.live {
                continue;
            }
            let len = e.len as usize;
            let fits = chunks
                .last()
                .is_some_and(|c: &Vec<u8>| c.capacity() - c.len() >= len);
            if !fits {
                chunks.push(Vec::with_capacity(self.chunk_size.max(len)));
            }
            let dst_idx = chunks.len() - 1;
            let dst = &mut chunks[dst_idx];
            let offset = dst.len();
            let src = &self.chunks[e.chunk as usize];
            dst.extend_from_slice(&src[e.offset as usize..e.offset as usize + len]);
            e.chunk = dst_idx as u32;
            e.offset = offset as u32;
        }
        self.chunks = chunks;
        self.dead_bytes = 0;
        self.compactions += 1;
    }

    /// Number of live blobs.
    pub fn len(&self) -> usize {
        self.entries.len() - self.free.len()
    }

    /// Whether the arena holds no live blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Payload bytes of all live blobs (the per-session cold-tier cost).
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// Payload bytes currently wasted on freed blobs (reclaimed at the
    /// next compaction).
    pub fn dead_bytes(&self) -> usize {
        self.dead_bytes
    }

    /// Total allocated footprint: chunk capacities plus the entry table
    /// and free list.
    pub fn footprint_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.capacity()).sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<ArenaEntry>()
            + self.free.capacity() * 4
    }

    /// Compaction passes run so far.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut cursor = buf.as_slice();
        for &v in &values {
            assert_eq!(get_varint(&mut cursor), v);
        }
        assert!(cursor.is_empty());
    }

    #[test]
    fn runs_roundtrip_and_compress() {
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
            vec![1; 500],
            {
                let mut v = vec![0u8; 400];
                v.extend_from_slice(&[1; 30]);
                v.extend_from_slice(&[0; 70]);
                v
            },
        ];
        for labels in &cases {
            let mut buf = Vec::new();
            put_runs(&mut buf, labels);
            let mut cursor = buf.as_slice();
            let mut out = Vec::new();
            get_runs(&mut cursor, &mut out);
            assert_eq!(&out, labels);
            assert!(cursor.is_empty());
        }
        // A 500-label stream with 3 runs must land in single-digit bytes.
        let mut buf = Vec::new();
        put_runs(&mut buf, &cases[5]);
        assert!(buf.len() <= 8, "RLE did not compress: {} bytes", buf.len());
    }

    #[test]
    fn f32_delta_roundtrip_is_bit_exact() {
        let values = vec![0.0f32, -0.0, 1.5, -3.25e-7, f32::MIN_POSITIVE, 0.999];
        let base = vec![0.0f32; values.len()];
        let mut buf = Vec::new();
        put_f32_delta(&mut buf, &values, &base);
        assert_eq!(buf.len(), values.len() * 4);
        let mut cursor = buf.as_slice();
        let mut out = Vec::new();
        get_f32_delta(&mut cursor, &base, &mut out);
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits(), "delta codec not bit-exact");
        }
        // Non-zero base must invert exactly too.
        let base: Vec<f32> = (0..values.len()).map(|i| i as f32 * 0.25 - 0.5).collect();
        let mut buf = Vec::new();
        put_f32_delta(&mut buf, &values, &base);
        let mut cursor = buf.as_slice();
        let mut out = Vec::new();
        get_f32_delta(&mut cursor, &base, &mut out);
        for (a, b) in values.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn arena_alloc_get_free() {
        let mut arena = FrozenArena::with_chunk_size(64);
        let a = arena.alloc(b"hello");
        let b = arena.alloc(&[7u8; 100]); // oversized: dedicated chunk
        let c = arena.alloc(b"world");
        assert_eq!(arena.get(a), b"hello");
        assert_eq!(arena.get(b), &[7u8; 100]);
        assert_eq!(arena.get(c), b"world");
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.live_bytes(), 110);
        arena.free(b);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a), b"hello");
        assert_eq!(arena.get(c), b"world");
    }

    #[test]
    #[should_panic(expected = "was freed")]
    fn arena_get_after_free_panics() {
        let mut arena = FrozenArena::new();
        let a = arena.alloc(b"x");
        arena.free(a);
        arena.get(a);
    }

    #[test]
    #[should_panic(expected = "double-freed")]
    fn arena_double_free_panics() {
        let mut arena = FrozenArena::new();
        let a = arena.alloc(b"x");
        arena.free(a);
        arena.free(a);
    }

    #[test]
    fn arena_compaction_reclaims_dead_bytes_and_keeps_refs_valid() {
        let mut arena = FrozenArena::with_chunk_size(256);
        let mut live = Vec::new();
        let mut dead = Vec::new();
        for i in 0..200u32 {
            let blob = vec![i as u8; 32];
            let r = arena.alloc(&blob);
            if i % 2 == 0 {
                live.push((r, blob));
            } else {
                dead.push(r);
            }
        }
        let before = arena.footprint_bytes();
        for r in dead {
            arena.free(r);
        }
        assert!(arena.compactions() > 0, "compaction never triggered");
        assert_eq!(arena.dead_bytes(), 0);
        assert_eq!(arena.live_bytes(), live.len() * 32);
        assert!(
            arena.footprint_bytes() < before,
            "compaction did not shrink the footprint"
        );
        for (r, blob) in &live {
            assert_eq!(
                arena.get(*r),
                blob.as_slice(),
                "ref invalidated by compaction"
            );
        }
        // The arena keeps working after compaction: reuse + fresh allocs.
        let r = arena.alloc(b"post-compaction");
        assert_eq!(arena.get(r), b"post-compaction");
    }

    #[test]
    fn arena_churn_is_bounded() {
        // Alloc/free churn must not grow the footprint without bound.
        let mut arena = FrozenArena::with_chunk_size(1024);
        let mut refs = Vec::new();
        for round in 0..50 {
            for i in 0..64u32 {
                refs.push(arena.alloc(&[(round + i) as u8; 48]));
            }
            for r in refs.drain(..) {
                arena.free(r);
            }
        }
        assert_eq!(arena.live_bytes(), 0);
        assert!(
            arena.footprint_bytes() < 64 * 1024,
            "churn grew the arena footprint to {}",
            arena.footprint_bytes()
        );
    }

    #[test]
    fn a_drained_arena_releases_its_chunks() {
        // Freeze all, then thaw all: freeing the last live blob gives back
        // every chunk and the entry table, whatever the order.
        for reverse in [false, true] {
            let mut arena = FrozenArena::new();
            let mut refs: Vec<_> = (0..300u32).map(|i| arena.alloc(&[i as u8; 40])).collect();
            assert!(arena.footprint_bytes() >= DEFAULT_CHUNK_SIZE);
            if reverse {
                refs.reverse();
            }
            for r in refs {
                arena.free(r);
            }
            assert!(arena.is_empty());
            assert_eq!(arena.footprint_bytes(), 0, "reverse {reverse}");
            assert_eq!((arena.live_bytes(), arena.dead_bytes()), (0, 0));
            let r = arena.alloc(b"again");
            assert_eq!(arena.get(r), b"again");
        }
    }
}
