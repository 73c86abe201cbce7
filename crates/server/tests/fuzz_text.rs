//! Seeded fuzz properties for the text that crosses into the service: protocol lines
//! ([`parse_command`]), XML documents ([`parse_xml`]) and XPath goals ([`parse_xpath`]).
//! Arbitrary bytes, and valid inputs with bytes flipped, truncated or duplicated, must parse
//! to a value or an error — never a panic — and no parse may hold more heap at its peak than
//! a fixed multiple of its input's length plus a constant ([`bounded`]).
//!
//! The heap is measured by a counting global allocator. It keeps the live byte count of each
//! thread in a `const`-initialised thread-local, so the suite's tests can run in parallel
//! without seeing each other's allocations. The allocator is the only `unsafe` code here.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qbe_core::twig::parse_xpath;
use qbe_core::xml::parse_xml;
use qbe_server::protocol::parse_command;

/// Heap bytes a parse may hold at its peak, per byte of input (its result included).
///
/// Measured with this suite at 4,096 cases per property: beyond 16 bytes per input byte, the
/// largest peak was 2,097 bytes for an XML document, 385 for an XPath query and 47 for a
/// protocol line. So the bound is 16 bytes per input byte plus 4 KiB.
const PEAK_BYTES_PER_INPUT_BYTE: isize = 16;

/// Heap bytes a parse may hold at its peak, whatever its input's length.
const PEAK_BYTES_BASE: isize = 4096;

thread_local! {
    /// This thread's live heap bytes (negative after it frees another thread's memory), and
    /// their highest value since [`peak_bytes`] last reset it.
    static HEAP: Cell<(isize, isize)> = const { Cell::new((0, 0)) };
}

fn count(delta: isize) {
    // `try_with`: a thread being torn down may still free memory after its locals are gone.
    let _ = HEAP.try_with(|heap| {
        let (live, peak) = heap.get();
        heap.set((live + delta, peak.max(live + delta)));
    });
}

/// The system allocator, counting each thread's live bytes in `HEAP`.
struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the bookkeeping only reads layouts
// and updates a thread-local counter, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(layout.size() as isize);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the most heap bytes this thread held during it beyond
/// what it held before (the result's own heap included).
fn peak_bytes<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let base = HEAP.with(|heap| {
        let (live, _) = heap.get();
        heap.set((live, live));
        live
    });
    let out = f();
    (out, HEAP.with(Cell::get).1 - base)
}

/// Parse `input`, asserting that the parse's peak heap stays within
/// `PEAK_BYTES_PER_INPUT_BYTE · len + PEAK_BYTES_BASE`.
fn bounded<R>(input: &str, parse: impl FnOnce(&str) -> R) -> R {
    let (out, peak) = peak_bytes(|| parse(input));
    let len = input.len() as isize;
    let bound = PEAK_BYTES_PER_INPUT_BYTE * len + PEAK_BYTES_BASE;
    assert!(
        peak <= bound,
        "a parse of {len} input bytes peaked at {peak} heap bytes (bound {bound}): {input:?}"
    );
    out
}

const COMMANDS: &[&str] = &[
    "HELLO",
    "CORPUS tiny",
    "START path from=city0 to=city5 max_edges=6 strategy=halving seed=3 budget=9",
    "START graph CLASS=2rpq",
    "RESUME 12",
    "ANSWER yes",
    "QUIT",
];

const DOCUMENTS: &[&str] = &[
    "<?xml version=\"1.0\"?><!-- people --><!DOCTYPE site [<!ELEMENT site ANY>]>\
     <site><people><person id=\"p0\" tag='a &amp; b'><name>Ada</name>\
     <bio><![CDATA[x < y]]><?note keep?></bio></person><person/></people></site>",
    "<a><b><c/></b><b>text &lt; more</b></a>",
];

const XPATHS: &[&str] = &[
    "/site//person[profile[age][education]]/name",
    "//open_auction[bidder/increase]",
    "//*[.//age]/name",
];

/// Up to 64 bytes, about half of them from `alphabet` (the grammar's own characters, so that
/// inputs get past the first token), decoded as lossy UTF-8 like a line off the wire.
fn arbitrary(rng: &mut StdRng, alphabet: &[u8]) -> String {
    let bytes: Vec<u8> = (0..rng.gen_range(0..64usize))
        .map(|_| {
            if rng.gen() {
                alphabet[rng.gen_range(0..alphabet.len())]
            } else {
                rng.gen_range(0..=255u8)
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `valid` after one to three edits, each a flipped byte, a cut-off tail or a slice
/// duplicated in place, decoded as lossy UTF-8.
fn mutated(rng: &mut StdRng, valid: &str) -> String {
    let mut bytes = valid.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..3) {
            0 => bytes[at] ^= rng.gen_range(1..=255u8),
            1 => bytes.truncate(at),
            _ => {
                let end = rng.gen_range(at..=bytes.len());
                let slice = bytes[at..end].to_vec();
                bytes.splice(at..at, slice);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_command_survives_arbitrary_and_mutated_lines(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = bounded(&arbitrary(&mut rng, b" \t=STARTASKyes"), parse_command);
        for valid in COMMANDS {
            prop_assert!(bounded(valid, parse_command).is_ok());
            let _ = bounded(&mutated(&mut rng, valid), parse_command);
        }
    }

    #[test]
    fn parse_xml_survives_arbitrary_and_mutated_documents(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = bounded(&arbitrary(&mut rng, b"<>/=\"'?!-[]a&;"), parse_xml);
        for valid in DOCUMENTS {
            prop_assert!(bounded(valid, parse_xml).is_ok());
            let _ = bounded(&mutated(&mut rng, valid), parse_xml);
        }
    }

    #[test]
    fn parse_xpath_survives_arbitrary_and_mutated_queries(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = bounded(&arbitrary(&mut rng, b"/[]*.@ a"), parse_xpath);
        for valid in XPATHS {
            prop_assert!(bounded(valid, parse_xpath).is_ok());
            let _ = bounded(&mutated(&mut rng, valid), parse_xpath);
        }
    }
}
