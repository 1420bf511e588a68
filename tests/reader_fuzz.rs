//! Hostile-input fuzzing of the LEAM1 (dense matrix) and LEAS1 (sparse
//! similarity) readers and of the checkpoint's partition payload. All sit
//! behind checkpoint resume or spill reads, so their input is untrusted
//! bytes from disk.
//!
//! The invariant for every input is a typed [`io::ErrorKind::InvalidData`]
//! error or an exact round-trip, never a panic or an abort, and no
//! allocation beyond a small multiple of the bytes the input supplied
//! (measured with the facade's counting allocator on this thread).

use largeea::common::alloc::{span_close, span_open};
use largeea::common::check::for_each_case;
use largeea::common::rng::Rng;
use largeea::core::checkpoint::{decode_batches, encode_batches};
use largeea::kg::EntityId;
use largeea::partition::{MiniBatch, MiniBatches};
use largeea::sim::io::{read_sparse_sim, write_sparse_sim};
use largeea::sim::SparseSimMatrix;
use largeea::tensor::io::{read_matrix, write_matrix};
use largeea::tensor::Matrix;
use std::io;

/// Header lengths a hostile file might claim.
const HOSTILE_LENS: [u64; 8] = [0, 1, 3, 255, 1 << 38, 1 << 40, 1 << 62, u64::MAX];

/// Bytes a reader may allocate for `input`: a few times its length (row
/// vectors and doubling growth) plus a fixed allowance.
fn alloc_budget(input: &[u8]) -> u64 {
    8 * input.len() as u64 + 4096
}

/// Runs `read` on `input`, failing if it allocates past [`alloc_budget`].
fn read_bounded<T>(input: &[u8], read: impl FnOnce(&[u8]) -> io::Result<T>) -> io::Result<T> {
    let h = span_open();
    let out = read(input);
    let used = span_close(h).expect("same thread").bytes;
    assert!(
        used <= alloc_budget(input),
        "reader allocated {used} bytes for a {}-byte input",
        input.len()
    );
    out
}

fn leam1(m: &Matrix) -> Vec<u8> {
    let mut buf = Vec::new();
    write_matrix(m, &mut buf).unwrap();
    buf
}

fn leas1(m: &SparseSimMatrix) -> Vec<u8> {
    let mut buf = Vec::new();
    write_sparse_sim(m, &mut buf).unwrap();
    buf
}

fn random_matrix(rng: &mut Rng) -> Matrix {
    let (rows, cols) = (rng.gen_range(0..6usize), rng.gen_range(0..6usize));
    let data = (0..rows * cols)
        .map(|_| f32::from_bits(rng.next_u32()))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn random_sim(rng: &mut Rng) -> SparseSimMatrix {
    let (rows, cols) = (rng.gen_range(0..6usize), rng.gen_range(1..9usize));
    let mut m = SparseSimMatrix::new(rows, cols);
    for r in 0..rows {
        for c in 0..cols as u32 {
            if rng.gen_bool(0.4) {
                m.insert(r, c, f32::from_bits(rng.next_u32()));
            }
        }
    }
    m
}

/// One of: a random header length, a truncation, or a few byte flips.
/// `header` is the byte range of the format's two u64 dimensions.
fn mutate(rng: &mut Rng, bytes: &mut Vec<u8>, header: std::ops::Range<usize>) {
    match rng.gen_range(0..3u32) {
        0 => {
            let at = if rng.gen_bool(0.5) {
                header.start
            } else {
                header.start + 8
            };
            let len = HOSTILE_LENS[rng.gen_range(0..HOSTILE_LENS.len())];
            bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
        1 => {
            let cut = rng.gen_range(0..bytes.len());
            bytes.truncate(cut);
        }
        _ => {
            for _ in 0..rng.gen_range(1..4usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] ^= 1 << rng.gen_range(0..8u32);
            }
        }
    }
}

fn assert_invalid_data<T>(r: io::Result<T>, input: &[u8]) {
    match r {
        Ok(_) => panic!("accepted a malformed {}-byte input", input.len()),
        Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
    }
}

#[test]
fn leam1_reader_survives_hostile_bytes() {
    for_each_case(0x1EA4_0001, 600, |rng| {
        let m = random_matrix(rng);
        let clean = leam1(&m);
        let back = read_bounded(&clean, |b| read_matrix(b)).expect("clean input");
        assert_eq!(leam1(&back), clean, "clean input must round-trip exactly");

        let mut bytes = clean.clone();
        mutate(rng, &mut bytes, 6..22);
        match read_bounded(&bytes, |b| read_matrix(b)) {
            // LEAM1 is canonical: what parsed re-serialises to the bytes
            // it was read from (a prefix, if the header shrank the shape).
            Ok(got) => {
                let again = leam1(&got);
                assert!(
                    bytes.starts_with(&again),
                    "accepted input did not round-trip"
                );
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    });
}

#[test]
fn leas1_reader_survives_hostile_bytes() {
    for_each_case(0x1EA5_0001, 600, |rng| {
        let m = random_sim(rng);
        let clean = leas1(&m);
        let back = read_bounded(&clean, |b| read_sparse_sim(b)).expect("clean input");
        assert_eq!(leas1(&back), clean, "clean input must round-trip exactly");

        let mut bytes = clean.clone();
        mutate(rng, &mut bytes, 6..22);
        match read_bounded(&bytes, |b| read_sparse_sim(b)) {
            // A flipped column can duplicate or reorder entries, which the
            // reader merges, so the check is that the parsed matrix is a
            // fixed point of write-then-read.
            Ok(got) => {
                let once = leas1(&got);
                let twice = leas1(&read_sparse_sim(&once[..]).expect("re-read"));
                assert_eq!(once, twice, "accepted input did not round-trip");
            }
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    });
}

fn leam1_header(rows: u64, cols: u64) -> Vec<u8> {
    let mut b = b"LEAM1\0".to_vec();
    b.extend_from_slice(&rows.to_le_bytes());
    b.extend_from_slice(&cols.to_le_bytes());
    b
}

#[test]
fn leam1_byte_size_overflow_is_invalid_data() {
    // rows * cols fits in u64 but rows * cols * 4 does not
    let input = leam1_header(1 << 62, 1);
    assert_invalid_data(read_bounded(&input, |b| read_matrix(b)), &input);
}

#[test]
fn leam1_huge_shape_without_data_is_invalid_data() {
    // a 1 TiB promise backed by no data
    let input = leam1_header(1 << 38, 1);
    assert_invalid_data(read_bounded(&input, |b| read_matrix(b)), &input);
}

#[test]
fn leas1_huge_row_count_without_rows_is_invalid_data() {
    // 22 bytes: magic, n_rows = 2^40, n_cols = 1, and no rows
    let mut input = b"LEAS1\0".to_vec();
    input.extend_from_slice(&(1u64 << 40).to_le_bytes());
    input.extend_from_slice(&1u64.to_le_bytes());
    assert_eq!(input.len(), 22);
    assert_invalid_data(read_bounded(&input, |b| read_sparse_sim(b)), &input);
}

/// A random partition over `n_source` × `n_target` entities.
fn random_batches(rng: &mut Rng, n_source: usize, n_target: usize) -> MiniBatches {
    let id = |rng: &mut Rng, n: usize| EntityId(rng.gen_range(0..n as u32));
    let batches = (0..rng.gen_range(0..4usize))
        .map(|index| {
            let ids =
                |rng: &mut Rng, n| (0..rng.gen_range(0..5usize)).map(|_| id(rng, n)).collect();
            let pairs = |rng: &mut Rng| {
                (0..rng.gen_range(0..3usize))
                    .map(|_| (id(rng, n_source), id(rng, n_target)))
                    .collect()
            };
            MiniBatch {
                index,
                source_entities: ids(rng, n_source),
                target_entities: ids(rng, n_target),
                train_pairs: pairs(rng),
                test_pairs: pairs(rng),
            }
        })
        .collect();
    MiniBatches::from_batches(batches, n_source, n_target)
}

#[test]
fn partition_payload_survives_hostile_bytes() {
    for_each_case(0x1EA6_0001, 600, |rng| {
        let (ns, nt) = (rng.gen_range(1..8usize), rng.gen_range(1..8usize));
        let b = random_batches(rng, ns, nt);
        let clean = encode_batches(&b);
        let back = read_bounded(&clean, |p| decode_batches(p, ns, nt)).expect("clean input");
        assert_eq!(back, b, "clean input must round-trip exactly");

        let mut bytes = clean.clone();
        mutate(rng, &mut bytes, 0..16);
        match read_bounded(&bytes, |p| decode_batches(p, ns, nt)) {
            // the payload is canonical: what parsed re-encodes to its input
            Ok(got) => assert_eq!(
                encode_batches(&got),
                bytes,
                "accepted input did not round-trip"
            ),
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}"),
        }
    });
}

#[test]
fn partition_of_2_pow_40_entities_is_invalid_data() {
    // 24 bytes: n_source = 2^40, n_target = 3, k = 0 — a header that used
    // to size the membership table before anything was checked
    let mut input = (1u64 << 40).to_le_bytes().to_vec();
    input.extend_from_slice(&3u64.to_le_bytes());
    input.extend_from_slice(&0u64.to_le_bytes());
    assert_eq!(input.len(), 24);
    assert_invalid_data(read_bounded(&input, |p| decode_batches(p, 3, 3)), &input);
}
