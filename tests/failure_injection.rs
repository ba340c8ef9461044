//! Failure injection: malformed files, corrupted streams, and boundary
//! abuse must produce errors, never panics or silent corruption.
//! Hostile alignment files are also fed to the `gsnp` binary itself: the
//! error must name the file and the line, and no output may be written.

use std::io::Cursor;

use gsnp::compress::column::{compress_table, decompress_table, write_window, WindowStream};
use gsnp::compress::{input_codec, lz, CodecError};
use gsnp::seqio::fasta::Reference;
use gsnp::seqio::prior::PriorMap;
use gsnp::seqio::result::{SnpRow, SnpTable};
use gsnp::seqio::soap::{AlignedRead, AlignmentReader, ReadChunk, MAX_QUAL, MAX_READ_LEN};
use gsnp::seqio::synth::{Dataset, SynthConfig};
use gsnp::seqio::SeqIoError;

fn sample_table() -> SnpTable {
    SnpTable::new(
        "chrF",
        100,
        (0..500)
            .map(|i| SnpRow {
                ref_base: (i % 4) as u8,
                genotype: b"ACGT"[i % 4],
                quality: (i % 80) as u8,
                best_base: (i % 4) as u8,
                avg_qual_best: 35,
                count_uniq_best: 9,
                count_all_best: 9,
                depth: 9,
                rank_sum_milli: 1000,
                copy_milli: 900,
                ..SnpRow::default()
            })
            .collect(),
    )
}

#[test]
fn corrupted_compressed_windows_error_not_panic() {
    let t = sample_table();
    let bytes = compress_table(&t);
    // Flip every byte position one at a time; decode must never panic and
    // must either error or produce *some* table (bit flips in payload data
    // can decode to different-but-valid rows; structural fields error).
    for i in 0..bytes.len() {
        let mut dup = bytes.clone();
        dup[i] ^= 0xA5;
        let _ = decompress_table(&dup);
    }
    // Truncation at every length must error or be caught structurally.
    for cut in 0..bytes.len() {
        assert!(
            decompress_table(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded successfully"
        );
    }
}

#[test]
fn window_stream_with_garbage_length_prefix() {
    let mut file = Vec::new();
    file.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd length
    file.extend_from_slice(b"junk");
    let results: Vec<_> = WindowStream::new(&file).collect();
    assert!(!results.is_empty());
    assert!(results.iter().any(Result::is_err));
}

#[test]
fn a_window_stream_cut_inside_a_frame_ends_in_an_error() {
    let t1 = sample_table();
    let mut t2 = sample_table();
    t2.start_pos = 600;
    let mut file = Vec::new();
    write_window(&mut file, &t1);
    let boundary = file.len();
    write_window(&mut file, &t2);
    // Every strict prefix but the empty one and the one ending where the
    // second frame begins stops inside a length prefix or a payload.
    for cut in (1..file.len()).filter(|&cut| cut != boundary) {
        let items: Vec<_> = WindowStream::new(&file[..cut]).collect();
        assert_eq!(items.len(), 1 + usize::from(cut > boundary), "cut at {cut}");
        assert!(
            matches!(items.last(), Some(Err(CodecError::Truncated(_)))),
            "cut at {cut} reads as complete: {:?}",
            items.last()
        );
        if cut > boundary {
            assert_eq!(items[0].as_ref(), Ok(&t1), "cut at {cut}");
        }
    }
    for whole in [0, boundary, file.len()] {
        assert!(WindowStream::new(&file[..whole]).all(|w| w.is_ok()));
    }
}

#[test]
fn lz_rejects_malformed_streams() {
    let good = lz::compress(b"the quick brown fox jumps over the lazy dog".as_slice());
    // Magic corruption.
    let mut bad = good.clone();
    bad[2] ^= 0xFF;
    assert!(matches!(lz::decompress(&bad), Err(CodecError::Corrupt(_))));
    // Truncations.
    for cut in [0usize, 3, 11, good.len() - 1] {
        assert!(lz::decompress(&good[..cut]).is_err());
    }
    // Random garbage.
    assert!(lz::decompress(&[0xAB; 64]).is_err());
}

#[test]
fn input_codec_rejects_corruption() {
    let d = Dataset::generate(SynthConfig::tiny(91));
    let bytes = input_codec::compress_reads("x", &d.reads);
    for cut in [0usize, 4, bytes.len() / 3, bytes.len() - 1] {
        assert!(input_codec::decompress_reads(&bytes[..cut]).is_err());
    }
    let mut bad = bytes.clone();
    bad[0] = b'?';
    assert!(input_codec::decompress_reads(&bad).is_err());

    // Every strict prefix and every single-byte flip of a blob, decoded
    // into a table that already holds reads: an error that leaves the
    // table as it was, or whole reads that meet the record invariants —
    // never a panic, never part of a chunk.
    let blob = input_codec::compress_reads("x", &d.reads[..60]);
    let mut held = ReadChunk::default();
    input_codec::decompress_chunk(&blob, &mut held).unwrap();
    let check = |damaged: &[u8], what: String| {
        let mut table = held.clone();
        match input_codec::decompress_chunk(damaged, &mut table) {
            Err(_) => assert!(table == held, "{what}: partial append"),
            Ok(_) => {
                for i in held.len()..table.len() {
                    let (seq, qual) = (table.seq(i), table.qual(i));
                    let fits = seq.len() <= MAX_READ_LEN && seq.len() == qual.len();
                    let coded = seq.iter().all(|&b| b < 4) && qual.iter().all(|&q| q <= MAX_QUAL);
                    assert!(fits && coded && table.nhits(i) >= 1, "{what}: read {i}");
                }
                table.truncate(held.len());
                assert!(table == held, "{what}: the held reads moved");
            }
        }
    };
    for cut in 0..blob.len() {
        check(&blob[..cut], format!("cut at {cut}"));
    }
    for at in 0..blob.len() {
        for mask in [0x01, 0x80, 0xFF] {
            let mut flipped = blob.clone();
            flipped[at] ^= mask;
            check(&flipped, format!("byte {at} ^ {mask:#x}"));
        }
    }
}

#[test]
fn alignment_parser_rejects_malformed_lines() {
    let cases: &[&str] = &[
        "only\tthree\tfields",
        "id\tACGT\t5555\tx\t4\t+\tchr\t10", // nhits not a number
        "id\tACGT\t5555\t1\t4\t?\tchr\t10", // bad strand
        "id\tACGU\t5555\t1\t4\t+\tchr\t10", // bad base
        "id\tACGT\t555\t1\t4\t+\tchr\t10",  // qual length mismatch
        "id\tACGT\t5555\t1\t4\t+\tchr\t0",  // 1-based position violated
        "id\tACGT\t5555\t1\t4\t+\tchr\tnotnum", // bad position
    ];
    for line in cases {
        assert!(
            AlignedRead::parse_line(line, 1).is_err(),
            "accepted malformed line {line:?}"
        );
    }
}

#[test]
fn alignment_reader_rejects_unsorted_files() {
    let text = "a\tAC\t55\t1\t2\t+\tc\t50\nb\tAC\t55\t1\t2\t+\tc\t10\n";
    let mut reader = AlignmentReader::new(Cursor::new(text));
    assert!(reader.next_read().unwrap().is_some());
    let err = reader.next_read().unwrap_err();
    assert!(matches!(err, SeqIoError::Invariant(_)));
}

#[test]
fn fasta_and_prior_parsers_reject_malformed_input() {
    assert!(Reference::read_fasta(Cursor::new("ACGT")).is_err());
    assert!(Reference::read_fasta(Cursor::new(">x\nAC!T")).is_err());
    assert!(PriorMap::read(Cursor::new("chr\tnot-enough")).is_err());
    assert!(PriorMap::read(Cursor::new("c\t1\tA\t0.9\t0.9\t0.0\t0.0\n")).is_err()); // sum > 1
    assert!(PriorMap::read(Cursor::new("c\t0\tA\t1.0\t0\t0\t0\n")).is_err()); // 0-based pos
}

#[test]
fn result_text_parser_rejects_structural_damage() {
    let t = sample_table();
    let mut text = Vec::new();
    t.write_text(&mut text).unwrap();
    let s = String::from_utf8(text).unwrap();

    // Drop a column from one line.
    let mut lines: Vec<String> = s.lines().map(String::from).collect();
    let cut = lines[3].rsplit_once('\t').unwrap().0.to_string();
    lines[3] = cut;
    let broken = lines.join("\n");
    assert!(SnpTable::read_text(Cursor::new(broken)).is_err());

    // Skip a position.
    let skipped: String = s
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != 7)
        .map(|(_, l)| format!("{l}\n"))
        .collect();
    assert!(SnpTable::read_text(Cursor::new(skipped)).is_err());
}

#[test]
fn quality_above_six_bits_rejected_at_parse() {
    // Packing would silently wrap a 7-bit quality; the parser must refuse.
    let line = format!("r\tA\t{}\t1\t1\t+\tc\t5", char::from(33 + 64));
    assert!(AlignedRead::parse_line(&line, 1).is_err());
}

/// `gsnp call` (device pipeline and `--cpu`) and `gsnp call --cohort` on a
/// small valid data set whose alignment text `damage` has rewritten: each
/// must fail, saying `expect` about the damaged file, without panicking and
/// without leaving an output file.
fn cli_rejects(tag: &str, damage: impl Fn(&str) -> String, expect: &str) {
    use std::process::Command;
    let gsnp = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_gsnp"))
            .args(args)
            .output()
            .expect("the gsnp binary runs")
    };
    let dir = std::env::temp_dir().join(format!("gsnp_fi_{tag}_{}", std::process::id()));
    let d = |name: &str| dir.join(name).display().to_string();
    let synth = gsnp(&["synth", &d(""), "--sites", "3000", "--depth", "4"]);
    assert!(synth.status.success());
    let reads = std::fs::read_to_string(dir.join("reads.soap")).unwrap();
    std::fs::write(dir.join("reads.soap"), damage(&reads)).unwrap();
    std::fs::write(dir.join("cohort.tsv"), "only\treads.soap\n").unwrap();

    let (fa, priors) = (d("reference.fa"), d("priors.txt"));
    let runs: [(&[&str], String); 3] = [
        (&[&d("reads.soap")], d("out.gsnp")),
        (&["--cpu", &d("reads.soap")], d("out.gsnp")),
        (&["--cohort", &d("cohort.tsv")], d("outdir")),
    ];
    for (input, out) in &runs {
        let mut args = vec!["call"];
        args.extend(*input);
        args.extend([fa.as_str(), &priors, out, "-q"]);
        let run = gsnp(&args);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        let said = format!("{}: {expect}", d("reads.soap"));
        assert!(
            stderr.contains(&said),
            "{args:?} said {stderr:?}, not {said:?}"
        );
        assert!(!std::path::Path::new(out).exists(), "{args:?} left {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `text` with the record on 1-based `line` replaced by `edit(record)`.
fn edit_line(text: &str, line: usize, edit: impl Fn(Vec<&str>) -> String) -> String {
    text.lines()
        .enumerate()
        .map(|(i, l)| {
            if i + 1 == line {
                edit(l.split('\t').collect()) + "\n"
            } else {
                format!("{l}\n")
            }
        })
        .collect()
}

#[test]
fn cli_names_file_and_line_of_a_zero_hit_count() {
    cli_rejects(
        "nhits",
        |text| {
            edit_line(text, 57, |mut f| {
                f[3] = "0";
                f.join("\t")
            })
        },
        "parse error at line 57: nhits must be at least 1",
    );
}

#[test]
fn cli_names_file_and_line_of_an_overlong_read() {
    cli_rejects(
        "long",
        |text| {
            edit_line(text, 101, |f| {
                let (seq, qual) = ("ACGT".repeat(65), "5".repeat(260));
                [f[0], &seq, &qual, f[3], "260", f[5], f[6], f[7]].join("\t")
            })
        },
        "parse error at line 101: read longer than 256 bases",
    );
}

#[test]
fn cli_names_file_and_line_of_a_truncated_or_unsorted_file() {
    // Cut in the middle of the last record: its quality string is short.
    cli_rejects(
        "cut",
        |text| {
            let keep: Vec<&str> = text.lines().take(80).collect();
            let last = keep[79];
            format!("{}\n{}", keep[..79].join("\n"), &last[..last.len() / 2])
        },
        "parse error at line 80: missing field",
    );
    cli_rejects(
        "unsorted",
        |text| {
            edit_line(text, 90, |mut f| {
                f[7] = "1";
                f.join("\t")
            })
        },
        "invariant violation: alignment file not sorted at line 90: pos 1 after",
    );
}
