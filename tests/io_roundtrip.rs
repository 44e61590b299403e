//! Property tests pinning the update-stream format of `pdmm::hypergraph::io`:
//!
//! * `batches_from_string ∘ batches_to_string` is the identity on streams of
//!   non-empty batches (the format cannot represent an empty batch — the
//!   serializer skips them, documented on `batches_to_string`);
//! * parsing is robust to decoration: comment lines *inside and between*
//!   blocks, extra blank lines between blocks, leading/trailing noise, and a
//!   trailing batch without a terminating newline all parse to the same
//!   stream;
//! * serialization is a canonical form: `serialize ∘ parse` is idempotent on
//!   any text that parses;
//! * the bytes themselves are pinned: a literal block serializes to a literal
//!   string through the plain serializer, the sharded journal writer
//!   (`ShardedService::journal`) writes literal tagged text, and the tagged
//!   parser reads literal tagged text back, so a writer that changed the
//!   format while staying self-consistent (which both properties above would
//!   accept) fails here — old journals must replay.

use pdmm::hypergraph::io::{batches_from_string, batches_to_string, sharded_batches_from_string};
use pdmm::hypergraph::sharding::RangePartitioner;
use pdmm::prelude::*;
use proptest::prelude::*;

/// Deterministically expands raw generator words into a *valid* stream of
/// non-empty batches: insertions draw fresh ids, deletions hit a pre-batch
/// live edge (skipped while nothing is live).
fn build_stream(words: &[(bool, u32, u32)], batch_size: usize, n: u32) -> Vec<UpdateBatch> {
    let mut live: Vec<EdgeId> = Vec::new();
    let mut next_id = 0u64;
    let mut batches = Vec::new();
    for chunk in words.chunks(batch_size.max(1)) {
        let mut updates = Vec::new();
        // Deletions may only name edges live before this batch (§3.3).
        let mut deletable = live.clone();
        for &(is_insert, a, b) in chunk {
            if is_insert || deletable.is_empty() {
                let (a, b) = (a % n, b % n);
                let edge = if a == b {
                    // Rank-1 self-loop: the format must carry those too.
                    HyperEdge::new(EdgeId(next_id), vec![VertexId(a)])
                } else {
                    HyperEdge::pair(EdgeId(next_id), VertexId(a), VertexId(b))
                };
                live.push(edge.id);
                next_id += 1;
                updates.push(Update::Insert(edge));
            } else {
                let id = deletable.swap_remove(a as usize % deletable.len());
                live.retain(|x| *x != id);
                updates.push(Update::Delete(id));
            }
        }
        if !updates.is_empty() {
            batches.push(UpdateBatch::new(updates).expect("construction keeps batches valid"));
        }
    }
    batches
}

/// Decorates a serialized stream without changing its meaning: comments are
/// legal *anywhere* (including inside a block), extra blank lines only at
/// block boundaries (a blank inside a block would legitimately split it).
fn decorate(text: &str, positions: &[u32], strip_trailing_newline: bool) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let mut out: Vec<String> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if positions.contains(&(i as u32)) {
            out.push(format!("# decoration before line {i}"));
            if i == 0 || lines[i - 1].is_empty() || line.is_empty() {
                // At a block boundary: blank lines are also harmless.
                out.push(String::new());
            }
        }
        out.push((*line).to_string());
    }
    out.push("# trailing comment".to_string());
    if !strip_trailing_newline {
        out.push(String::new());
    }
    let mut joined = out.join("\n");
    if !strip_trailing_newline {
        joined.push('\n');
    }
    joined
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn serialize_then_parse_is_identity(
        words in proptest::collection::vec((proptest::bool::ANY, 0u32..64, 0u32..64), 0..120),
        batch_size in 1usize..12,
    ) {
        let batches = build_stream(&words, batch_size, 64);
        let text = batches_to_string(&batches);
        let parsed = batches_from_string(&text).expect("serialized streams parse");
        prop_assert_eq!(parsed, batches);
    }

    #[test]
    fn parsing_survives_comments_and_blank_line_decoration(
        words in proptest::collection::vec((proptest::bool::ANY, 0u32..32, 0u32..32), 1..80),
        batch_size in 1usize..8,
        positions in proptest::collection::vec(0u32..200, 0..12),
        strip_newline in proptest::bool::ANY,
    ) {
        let batches = build_stream(&words, batch_size, 32);
        let text = batches_to_string(&batches);
        let decorated = decorate(&text, &positions, strip_newline);
        let parsed = batches_from_string(&decorated)
            .expect("decoration must not break parsing");
        prop_assert_eq!(parsed, batches);
    }

    #[test]
    fn serialization_is_a_canonical_form(
        words in proptest::collection::vec((proptest::bool::ANY, 0u32..32, 0u32..32), 0..80),
        batch_size in 1usize..8,
        positions in proptest::collection::vec(0u32..200, 0..12),
    ) {
        // serialize ∘ parse must be idempotent: parsing decorated text and
        // re-serializing yields exactly the canonical text.
        let batches = build_stream(&words, batch_size, 32);
        let canonical = batches_to_string(&batches);
        let decorated = decorate(&canonical, &positions, false);
        let reparsed = batches_from_string(&decorated).expect("decorated text parses");
        prop_assert_eq!(batches_to_string(&reparsed), canonical);
    }
}

#[test]
fn journal_bytes_are_pinned_for_both_serializers() {
    let (v0, vmax) = (VertexId(0), VertexId(u32::MAX));
    let block = UpdateBatch::new(vec![
        Update::Delete(EdgeId(9)),
        Update::Insert(HyperEdge::new(EdgeId(0), vec![vmax])),
        Update::Insert(HyperEdge::pair(EdgeId(9), v0, vmax)),
        Update::Insert(HyperEdge::new(
            EdgeId(10),
            vec![v0, VertexId(9), VertexId(10)],
        )),
        Update::Insert(HyperEdge::new(
            EdgeId(u64::MAX),
            vec![v0, VertexId(1), VertexId(10), vmax],
        )),
    ])
    .unwrap();
    let lines = "- 9\n\
                 + 0 4294967295\n\
                 + 9 0 4294967295\n\
                 + 10 0 9 10\n\
                 + 18446744073709551615 0 1 10 4294967295\n";
    assert_eq!(batches_to_string(std::slice::from_ref(&block)), lines);
    assert_eq!(
        batches_to_string(&[block.clone(), UpdateBatch::empty(), block.clone()]),
        format!("{lines}\n{lines}")
    );
    assert_eq!(
        sharded_batches_from_string(&format!("@ 0\n{lines}\n@ 4294967295\n{lines}")).unwrap(),
        vec![(ShardId(0), block.clone()), (ShardId(u32::MAX), block)]
    );

    // The sharded journal tags each block of each shard's journal, shard by
    // shard: vertices 0..2 on shard 0, 2..4 on shard 1.
    let builder = EngineBuilder::new(4).seed(1);
    let service = ShardedService::with_partitioner(
        (0..2)
            .map(|_| pdmm::engine::build(EngineKind::Parallel, &builder))
            .collect(),
        Box::new(RangePartitioner::new(4)),
    );
    let pair = |id, a, b| Update::Insert(HyperEdge::pair(EdgeId(id), VertexId(a), VertexId(b)));
    service.submit(UpdateBatch::new(vec![pair(0, 0, 1), pair(1, 2, 3)]).unwrap());
    service.drain().unwrap();
    service.submit(UpdateBatch::new(vec![Update::Delete(EdgeId(0))]).unwrap());
    service.drain().unwrap();
    assert_eq!(
        service.journal(),
        "@ 0\n+ 0 0 1\n# commit\n\n@ 0\n- 0\n# commit\n\n@ 1\n+ 1 2 3\n# commit\n"
    );
}

#[test]
fn trailing_batch_without_final_newline_parses() {
    let batches = batches_from_string("+ 0 1 2\n\n- 0").unwrap();
    assert_eq!(batches.len(), 2);
    assert_eq!(batches[1].updates(), &[Update::Delete(EdgeId(0))]);
}

#[test]
fn comment_inside_a_block_does_not_split_the_batch() {
    let text = "+ 0 1 2\n# a comment inside the block\n+ 1 3 4\n";
    let batches = batches_from_string(text).unwrap();
    assert_eq!(batches.len(), 1, "a comment line must not split a batch");
    assert_eq!(batches[0].len(), 2);
}

#[test]
fn whitespace_only_lines_separate_batches_like_blank_ones() {
    // A line of spaces/tabs trims to empty and therefore acts as a separator —
    // pinned so editors that strip or add trailing whitespace cannot change
    // how a stream file splits into batches.
    let with_blank = batches_from_string("+ 0 1 2\n\n+ 1 3 4\n").unwrap();
    let with_spaces = batches_from_string("+ 0 1 2\n \t \n+ 1 3 4\n").unwrap();
    assert_eq!(with_blank, with_spaces);
    assert_eq!(with_blank.len(), 2);
}

#[test]
fn parse_errors_carry_one_based_line_numbers_across_batches() {
    // The line number is global over the whole multi-batch input — comments
    // and blank separators count — so a protocol `ERR` (or a corrupted
    // workload file) can point at the exact offending line.
    let text = "# header\n+ 0 1 2\n\n+ 1 3 4\n- 0\n\n+ 2 bad 5\n";
    let err = pdmm::hypergraph::io::batches_from_string(text).unwrap_err();
    assert_eq!(err.line, 7);
    assert_eq!(err.to_string(), format!("line 7: {}", err.message));

    // Batch-validation errors point at the offending line, too — here the
    // repeated id in the second block.
    let text = "+ 0 1 2\n\n+ 1 3 4\n+ 1 3 4\n";
    let err = pdmm::hypergraph::io::batches_from_string(text).unwrap_err();
    assert_eq!(err.line, 4);
    assert!(err.message.contains("repeated update"), "{}", err.message);
}
