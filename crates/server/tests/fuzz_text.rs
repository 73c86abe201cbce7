//! Seeded fuzz properties for the text that crosses into the service: protocol lines
//! ([`parse_command`]), XML documents ([`parse_xml`]) and XPath goals ([`parse_xpath`]).
//! Arbitrary bytes, and valid inputs with bytes flipped, truncated or duplicated, must parse
//! to a value or an error — never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qbe_core::twig::parse_xpath;
use qbe_core::xml::parse_xml;
use qbe_server::protocol::parse_command;

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
        let _ = parse_command(&arbitrary(&mut rng, b" \t=STARTASKyes"));
        for valid in COMMANDS {
            prop_assert!(parse_command(valid).is_ok());
            let _ = parse_command(&mutated(&mut rng, valid));
        }
    }

    #[test]
    fn parse_xml_survives_arbitrary_and_mutated_documents(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = parse_xml(&arbitrary(&mut rng, b"<>/=\"'?!-[]a&;"));
        for valid in DOCUMENTS {
            prop_assert!(parse_xml(valid).is_ok());
            let _ = parse_xml(&mutated(&mut rng, valid));
        }
    }

    #[test]
    fn parse_xpath_survives_arbitrary_and_mutated_queries(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let _ = parse_xpath(&arbitrary(&mut rng, b"/[]*.@ a"));
        for valid in XPATHS {
            prop_assert!(parse_xpath(valid).is_ok());
            let _ = parse_xpath(&mutated(&mut rng, valid));
        }
    }
}
