"""The batched inference path against the per-sequence oracles.

Every prediction -- ``predict``/``parse``/``label_lines`` on one record
as much as ``predict_many``/``parse_many``/``label_lines_many`` over a
corpus -- runs the batched kernel (one record is a batch of one).  The
CRF-level tests here pin it to the reference recursions of
:mod:`repro.crf.inference` over :func:`repro.crf.objective.
sequence_potentials`; the parser-level tests pin a batch of many to
batches of one, across input kinds, process counts, and the edge cases
batching tends to break (length-1 sequences, empty batches, records with
no registrant block, padding and chunking).
"""

import pickle

import numpy as np
import pytest

from repro.crf.inference import node_marginals, viterbi
from repro.crf.objective import ParamView, sequence_potentials
from repro.datagen import CorpusGenerator
from repro.datagen.corpus import CorpusConfig
from repro.parser import WhoisParser
from repro.parser.bulk import LineEncoder
from repro.parser.statistical import _block_runs


@pytest.fixture(scope="module")
def world():
    gen = CorpusGenerator(CorpusConfig(seed=7))
    train = gen.labeled_corpus(80)
    parser = WhoisParser(l2=0.1).fit(train)
    # Mixed test set: drifted schemas exercise templates the model never
    # saw, where tie-breaking and unknown-attribute handling matter most.
    test = [
        r.to_record()
        for r in CorpusGenerator(
            CorpusConfig(seed=8, drift_probability=0.3)
        ).labeled_corpus(200)
    ]
    return parser, train, test


# ----------------------------------------------------------------------
# ChainCRF batched decode vs the per-sequence oracles
# ----------------------------------------------------------------------


def _oracle(crf, seq):
    """Per-sequence reference: Viterbi labels and node marginals."""
    view = ParamView.of(crf.params, crf.index)
    emit, trans = sequence_potentials(
        crf.index.encode(seq), view, crf.index.n_states
    )
    labels = crf.index.decode_labels(viterbi(emit, trans).tolist())
    return labels, node_marginals(emit, trans)


def test_predict_many_matches_oracle(world):
    parser, _train, test = world
    crf = parser.block_crf
    sequences = [
        parser.featurizer.featurize_lines(r.lines) for r in test[:60]
    ]
    expected = [_oracle(crf, s)[0] for s in sequences]
    assert crf.predict_many(sequences) == expected
    # Small chunks force multi-chunk batching with length-sorted rows.
    assert crf.predict_many(sequences, chunk_size=7) == expected
    assert [crf.predict(s) for s in sequences] == expected


def test_predict_many_accepts_encoded_sequences(world):
    parser, _train, test = world
    crf = parser.block_crf
    sequences = [
        parser.featurizer.featurize_lines(r.lines) for r in test[:30]
    ]
    encoded = [crf.index.encode(s) for s in sequences]
    assert crf.predict_many(encoded) == [
        _oracle(crf, s)[0] for s in sequences
    ]


def test_predict_with_marginals_matches_oracle(world):
    parser, _train, test = world
    crf = parser.block_crf
    sequences = [
        parser.featurizer.featurize_lines(r.lines) for r in test[:30]
    ]
    many = crf.predict_with_marginals_many(sequences, chunk_size=11)
    for seq, (labels, marginals) in zip(sequences, many):
        expected_labels, expected_marginals = _oracle(crf, seq)
        assert labels == expected_labels
        np.testing.assert_allclose(marginals, expected_marginals, atol=1e-10)
        single_labels, single_marginals = crf.predict_with_marginals(seq)
        assert single_labels == expected_labels
        np.testing.assert_allclose(
            single_marginals, expected_marginals, atol=1e-10
        )
        np.testing.assert_allclose(
            crf.predict_marginals(seq), expected_marginals, atol=1e-10
        )


def test_predict_many_empty_and_single(world):
    parser, _train, test = world
    crf = parser.block_crf
    assert crf.predict_many([]) == []
    assert crf.predict_with_marginals_many([]) == []
    seq = parser.featurizer.featurize_lines(test[0].lines)
    assert crf.predict_many([seq]) == [_oracle(crf, seq)[0]]
    empty = parser.featurizer.featurize_lines([])
    assert crf.predict(empty) == []
    labels, marginals = crf.predict_with_marginals(empty)
    assert labels == [] and marginals.shape == (0, crf.index.n_states)


def test_predict_many_length_one_sequences(world):
    parser, _train, _test = world
    crf = parser.block_crf
    sequences = [
        parser.featurizer.featurize_lines(["Domain Name: EXAMPLE.COM"]),
        parser.featurizer.featurize_lines(["Registrant:"]),
    ]
    assert crf.predict_many(sequences) == [
        _oracle(crf, s)[0] for s in sequences
    ]


def test_parser_inference_matches_featurize_oracle(world):
    """Every per-record parser method encodes through the line cache and
    decodes batched; the result equals featurize -> per-sequence CRF."""
    parser, _train, test = world
    block_crf, registrant_crf = parser.block_crf, parser.registrant_crf
    featurizer = parser.featurizer
    for record in test[:25]:
        blocks, marginals = _oracle(
            block_crf, featurizer.featurize_lines(record.lines)
        )
        assert parser.predict_blocks(record) == blocks
        confidences = parser.line_confidences(record)
        assert [block for _, block, _ in confidences] == blocks
        label_ids = block_crf.index.label_ids
        np.testing.assert_allclose(
            [p for _, _, p in confidences],
            [marginals[t, label_ids[b]] for t, b in enumerate(blocks)],
            atol=1e-10,
        )
        lines = [line for line, _, _ in confidences]
        labeled = parser.label_lines(record)
        assert [(line, block) for line, block, _ in labeled] == list(
            zip(lines, blocks)
        )
        for start, end in _block_runs(blocks, parser.spec.sub_block):
            segment = lines[start:end]
            subs = _oracle(
                registrant_crf, featurizer.featurize_registrant_lines(segment)
            )[0]
            assert parser.predict_registrant_fields(segment) == subs
            assert [sub for _, _, sub in labeled[start:end]] == subs


# ----------------------------------------------------------------------
# WhoisParser.parse_many / label_lines_many
# ----------------------------------------------------------------------


def test_parse_many_matches_parse_loop(world):
    parser, _train, test = world
    loop = [parser.parse(r) for r in test]
    assert parser.parse_many(test) == loop
    # A second call runs from a warm line cache; still identical.
    assert parser.parse_many(test) == loop


def test_parse_many_sharded_matches_loop(world):
    parser, _train, test = world
    loop = [parser.parse(r) for r in test]
    assert parser.parse_many(test, jobs=2) == loop


def test_label_lines_many_matches_label_lines(world):
    parser, _train, test = world
    subset = test[:60]
    assert parser.label_lines_many(subset) == [
        parser.label_lines(r) for r in subset
    ]


def test_parse_many_edge_cases(world):
    parser, _train, test = world
    assert parser.parse_many([]) == []
    assert parser.parse_many([test[0]]) == [parser.parse(test[0])]
    # No labelable lines at all.
    blank = "\n%%\n\n"
    assert parser.parse_many([blank]) == [parser.parse(blank)]
    # A one-line record and a no-registrant fragment mixed with real ones.
    one_line = "Domain Name: SOLO.COM"
    no_registrant = "Domain Name: BARE.COM\nName Server: NS1.BARE.COM"
    mixed = [one_line, blank, no_registrant, test[1].text]
    assert parser.parse_many(mixed) == [parser.parse(t) for t in mixed]


def test_parse_many_without_second_level():
    gen = CorpusGenerator(CorpusConfig(seed=9))
    parser = WhoisParser(l2=0.1, second_level=False).fit(
        gen.labeled_corpus(40)
    )
    test = [r.to_record() for r in gen.labeled_corpus(30)]
    assert parser.parse_many(test) == [parser.parse(r) for r in test]


# ----------------------------------------------------------------------
# LineEncoder cache semantics
# ----------------------------------------------------------------------


def test_line_encoder_matches_featurize_then_encode(world):
    parser, _train, test = world
    index = parser.block_crf.index
    encoder = LineEncoder(parser.featurizer, index)
    for record in test[:20]:
        reference = index.encode(
            parser.featurizer.featurize_lines(record.lines)
        )
        encoded = encoder.encode_record(record.lines)
        # Same id *sets* per token; the decoder sums over them, so order
        # is immaterial.
        assert [sorted(ids) for ids in encoded.obs_ids] == [
            sorted(ids) for ids in reference.obs_ids
        ]
        assert [sorted(ids) for ids in encoded.edge_ids] == [
            sorted(ids) for ids in reference.edge_ids
        ]


def test_bulk_encoders_invalidated_by_partial_fit(world):
    _parser, train, test = world
    gen = CorpusGenerator(CorpusConfig(seed=11, drift_probability=0.5))
    parser = WhoisParser(l2=0.1).fit(train)
    parser.parse_many(test[:20])
    assert parser._bulk_encoders is not None
    parser.partial_fit(gen.labeled_corpus(10))
    assert parser._bulk_encoders is None
    # Post-refit, bulk still mirrors the (new) per-record behavior.
    assert parser.parse_many(test[:20]) == [
        parser.parse(r) for r in test[:20]
    ]


def test_parser_pickles_without_encoder_cache(world):
    parser, _train, test = world
    parser.parse_many(test[:10])  # populate the caches
    clone = pickle.loads(pickle.dumps(parser))
    assert clone._bulk_encoders is None
    assert clone.parse_many(test[:10]) == parser.parse_many(test[:10])


def test_parse_and_parse_many_share_line_caches_across_threads(world):
    # The serving tier calls parse() (RDAP route) and parse_many (the
    # micro-batcher) on one parser from different executor threads; both
    # encode through the same LineEncoder caches.  More threads than
    # cores and a short switch interval interleave them finely.
    import sys
    import threading

    parser, _train, test = world
    expected = parser.parse_many(test)
    shared = pickle.loads(pickle.dumps(parser))  # cold line caches
    results = {}

    def singles(key, records):
        results[key] = [shared.parse(r) for r in records]

    def batches(key, records):
        results[key] = [
            parsed
            for i in range(0, len(records), 16)
            for parsed in shared.parse_many(records[i:i + 16])
        ]

    threads = [
        threading.Thread(target=singles, args=("parse", test)),
        threading.Thread(target=singles, args=("parse_rev", test[::-1])),
        threading.Thread(target=batches, args=("many", test)),
        threading.Thread(target=batches, args=("many_rev", test[::-1])),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results["parse"] == expected
    assert results["many"] == expected
    assert results["parse_rev"] == expected[::-1]
    assert results["many_rev"] == expected[::-1]
