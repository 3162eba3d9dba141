//! Live-heap budgets of the prover, read off a counting allocator that
//! delegates to [`System`]. Both checks run on [`Serial`], so every
//! allocation they make is made by the test's own thread, and the counts
//! are per thread: the harness's threads never reach them.
//!
//! - One proof at μ = 12 on the paper's witness raises the live heap over
//!   its pre-prove baseline by at most [`PROOF_TABLES`] tables of `2^μ` Fr.
//!   A prover that keeps every table until it returns holds about 32; one
//!   that keeps σ₁…σ₃ and D₁…D₃ through the φ/π commitments, about 18.
//! - A SumCheck handed tables nobody else holds folds them in place: no
//!   allocation as large as a round-one half table.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use zkspeed::prelude::*;
use zkspeed_field::Fr;
use zkspeed_poly::{MultilinearPoly, VirtualPolynomial};
use zkspeed_rt::trace::TraceSink;
use zkspeed_sumcheck::{prove, prove_on};
use zkspeed_transcript::Transcript;

const MU: usize = 12;
/// Bytes of one table of `2^MU` field elements.
const TABLE: usize = (1 << MU) * std::mem::size_of::<Fr>();
/// What one proof may add to the live heap, in tables.
const PROOF_TABLES: usize = 14;

thread_local! {
    /// Bytes this thread has allocated and not freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocations of at least `LARGE_FROM` bytes since it was set.
    static LARGE: Cell<usize> = const { Cell::new(0) };
    static LARGE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Counts what the calling thread allocates, then asks [`System`].
struct Counting;

impl Counting {
    fn note(grown: isize, new_block: usize) {
        // A thread being torn down may no longer reach its counters.
        let _ = LIVE.try_with(|live| {
            live.set(live.get() + grown);
            PEAK.with(|peak| peak.set(peak.get().max(live.get())));
            if new_block >= LARGE_FROM.with(Cell::get) {
                LARGE.with(|large| large.set(large.get() + 1));
            }
        });
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the bookkeeping
// only touches this thread's `Cell`s, which have no destructors and do not
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract for `alloc`, passed on.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            Self::note(layout.size() as isize, layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) };
        Self::note(-(layout.size() as isize), 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract for `realloc`, passed on.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            let grown = new_size as isize - layout.size() as isize;
            Self::note(grown, if grown > 0 { new_size } else { 0 });
        }
        moved
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The calling thread's live bytes, after making them the peak.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// How many allocations of at least `bytes` `f` makes on this thread.
fn large_allocations(bytes: usize, f: impl FnOnce()) -> usize {
    LARGE.with(|large| large.set(0));
    LARGE_FROM.with(|from| from.set(bytes));
    f();
    LARGE_FROM.with(|from| from.set(usize::MAX));
    LARGE.with(Cell::get)
}

#[test]
fn a_proof_holds_at_most_14_tables_over_its_baseline() {
    let mut rng = StdRng::seed_from_u64(0x6e6d_0001);
    let srs = Srs::try_setup(MU, &mut rng, &Serial).expect("setup fits");
    let (circuit, witness) = mock_circuit(MU, SparsityProfile::paper_default(), &mut rng);
    let (prover, verifier) = ProofSystem::setup_with_backend(srs, Arc::new(Serial))
        .preprocess(circuit)
        .expect("circuit fits");

    let baseline = reset_peak();
    let proof = prover.prove(&witness).expect("valid witness");
    let added = PEAK.with(Cell::get) - baseline;
    verifier.verify(&proof).expect("honest proof verifies");

    let tables = added as f64 / TABLE as f64;
    println!("one proof at 2^{MU}: +{added} bytes over its baseline, {tables:.1} tables");
    assert!(
        added <= (PROOF_TABLES * TABLE) as isize,
        "a proof raised the live heap by {tables:.1} tables of 2^{MU} Fr, over {PROOF_TABLES}"
    );
}

#[test]
fn a_sumcheck_folds_the_tables_it_alone_holds_in_place() {
    let mut rng = StdRng::seed_from_u64(0x6e6d_0002);
    let polynomial = |rng: &mut StdRng| {
        let mut vp = VirtualPolynomial::new(MU);
        let f = vp.add_mle(MultilinearPoly::random(MU, rng));
        let g = vp.add_mle(MultilinearPoly::random(MU, rng));
        let h = vp.add_mle(MultilinearPoly::random(MU, rng));
        vp.add_term(Fr::from_u64(3), vec![f, g, h]);
        vp.add_term(-Fr::one(), vec![f, h]);
        vp.add_term(Fr::one(), vec![g]);
        vp
    };
    let vp = polynomial(&mut rng);
    let half_table = TABLE / 2;

    // Borrowed, through the shim: the first fold copies every table.
    let mut transcript = Transcript::new(b"memory");
    let copied = large_allocations(half_table, || {
        let _ = prove_on(&vp, &mut transcript, &Serial);
    });
    assert_eq!(copied, vp.mles().len(), "the shim copies each table once");

    // Handed over: no table is allocated, in round one or after.
    let mut transcript = Transcript::new(b"memory");
    let trace = TraceSink::disabled();
    let owned = large_allocations(half_table, || {
        let _ = prove(vp, &mut transcript, &Serial, &trace, "round");
    });
    assert_eq!(owned, 0, "an owned table was copied instead of folded");
}
