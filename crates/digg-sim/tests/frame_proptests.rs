//! Fuzz/property tests for the sweep-worker frame decoder: a
//! length-prefixed JSON stream truncated at **any** byte or with
//! **any** single bit flipped must come back as a typed
//! [`FrameError`] (or decode cleanly when the damage is benign) —
//! never a panic, never a generic I/O error masquerading as a dead
//! pipe, and clean EOF only at a true frame boundary. The decoder is
//! driven through the public [`worker_main`] entry, the same path the
//! supervisor's reader thread uses.

use digg_sim::population::PopulationConfig;
use digg_sim::supervisor::{worker_main, CellRequest, FrameError, SweepError, MAX_FRAME_BYTES};
use digg_sim::sweep::ScenarioSpec;
use digg_sim::{Kernel, SimConfig};
use proptest::prelude::*;
use std::io::Cursor;

fn tiny_request() -> CellRequest {
    CellRequest {
        cell: 0,
        spec: ScenarioSpec {
            name: "frame-prop".into(),
            cfg: SimConfig::toy(0),
            pop_cfg: PopulationConfig::toy(400),
            kernel: Kernel::default(),
            minutes: 120,
        },
        seed: 1,
        checkpoint_every: 0,
        checkpoint_path: None,
        resume: false,
        fault: None,
    }
}

/// Encode one request the way the supervisor frames it.
fn frame_bytes(req: &CellRequest) -> Vec<u8> {
    let json = serde_json::to_string(req).expect("encode request");
    let mut out = (json.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(json.as_bytes());
    out
}

fn run_worker(stream: Vec<u8>) -> Result<(), SweepError> {
    let mut output = Vec::new();
    worker_main(&mut Cursor::new(stream), &mut output)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating a frame at any byte yields exactly one of three
    /// typed outcomes: clean EOF at cut 0, a short length prefix
    /// inside the first four bytes, a truncated payload anywhere
    /// after — never a panic or an untyped error.
    #[test]
    fn truncation_at_every_cut_is_typed(cut_pick in any::<usize>()) {
        let frame = frame_bytes(&tiny_request());
        let cut = cut_pick % frame.len(); // strictly short of a full frame
        let result = run_worker(frame[..cut].to_vec());
        match (cut, result) {
            (0, Ok(())) => {}
            (c, Err(SweepError::Frame(FrameError::ShortLengthPrefix { got }))) if c < 4 => {
                prop_assert_eq!(got, c);
            }
            (c, Err(SweepError::Frame(FrameError::TruncatedPayload { expected, got }))) if c >= 4 => {
                prop_assert_eq!(expected as usize + 4, frame.len());
                prop_assert_eq!(got, c - 4);
            }
            (c, other) => prop_assert!(false, "cut {}: unexpected {:?}", c, other),
        }
    }

    /// Flipping any single bit never panics the decoder: the stream
    /// either still decodes (benign flips inside string or numeric
    /// payload bytes) or fails with a typed frame error. A flip that
    /// inflates the length prefix past the cap must be the typed
    /// oversize error, not an allocation attempt.
    #[test]
    fn single_bit_flips_never_panic_and_stay_typed(bit_pick in any::<u64>()) {
        let mut frame = frame_bytes(&tiny_request());
        let bit = (bit_pick % (frame.len() as u64 * 8)) as usize;
        frame[bit / 8] ^= 1 << (bit % 8);
        let oversized = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]])
            > MAX_FRAME_BYTES;
        match run_worker(frame) {
            Ok(()) => prop_assert!(!oversized, "oversized length must not decode"),
            Err(SweepError::Frame(e)) => {
                if oversized {
                    prop_assert!(
                        matches!(e, FrameError::Oversized { .. }),
                        "expected Oversized, got {:?}", e
                    );
                }
            }
            Err(other) => prop_assert!(false, "untyped decode failure: {:?}", other),
        }
    }

    /// Appending arbitrary garbage after a valid frame is caught as a
    /// typed error on the *next* read, while the first frame still
    /// serves — damage never travels backwards in the stream.
    #[test]
    fn trailing_garbage_is_contained(garbage in proptest::collection::vec(any::<u8>(), 1..64)) {
        let mut stream = frame_bytes(&tiny_request());
        stream.extend_from_slice(&garbage);
        match run_worker(stream) {
            Err(SweepError::Frame(_)) => {}
            Ok(()) => {
                // Only possible if the garbage happened to spell a
                // well-formed frame stream; with < 64 random bytes the
                // length prefix alone makes this astronomically rare,
                // but it is not *wrong* — the decoder owes typed
                // errors, not rejection of lucky inputs.
            }
            Err(other) => prop_assert!(false, "untyped decode failure: {:?}", other),
        }
    }
}
