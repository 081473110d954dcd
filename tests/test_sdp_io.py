"""Reading and writing the tab-separated dependency-graph format, and the
frequency-cutoff vocabulary built from it."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdparse.errors import DataError
from sdparse.graph import SemGraph, Sentence, Token
from sdparse.sdp_io import (
    Vocabulary,
    build_vocab,
    format_sdp,
    load_pretrained,
    parse_sdp,
    parse_sdp_lines,
    write_sdp,
)
from sdparse.synthetic import toy_corpus

from corpora import roundtrip_corpus

SIMPLE = """\
#demo
1\tDogs\tdog\tNNS\t-\t-\tARG1
2\tchase\tchase\tVBP\t+\t+\t_
3\tcats\tcat\tNNS\t-\t-\tARG2
"""


def test_parse_simple_sentence():
    data = parse_sdp_lines(SIMPLE.splitlines())
    assert len(data) == 1
    sent, graph = data[0]
    assert [t.form for t in sent.tokens] == ["Dogs", "chase", "cats"]
    assert [t.lemma for t in sent.tokens] == ["dog", "chase", "cat"]
    assert [t.pos for t in sent.tokens] == ["NNS", "VBP", "NNS"]
    assert graph == SemGraph(3, [(0, 2, "TOP"), (2, 1, "ARG1"), (2, 3, "ARG2")])


def test_parse_multiple_sentences_and_comments():
    text = SIMPLE + "\n# a comment between sentences\n\n" + SIMPLE
    data = parse_sdp_lines(text.splitlines())
    assert len(data) == 2
    assert data[0][1] == data[1][1]


def test_parse_multi_predicate_columns():
    lines = [
        "1\ta\ta\tX\t+\t+\t_\tr1",
        "2\tb\tb\tY\t-\t+\tr2\t_",
    ]
    _, graph = parse_sdp_lines(lines)[0]
    assert graph == SemGraph(2, [(0, 1, "TOP"), (2, 1, "r1"), (1, 2, "r2")])


def test_parse_sentence_without_top_or_predicates():
    lines = ["1\ta\ta\tX\t-\t-", "2\tb\tb\tY\t-\t-"]
    _, graph = parse_sdp_lines(lines)[0]
    assert len(graph.edges) == 0


@pytest.mark.parametrize(
    "lines, fragment",
    [
        (["1\ta\ta"], "line 1"),                                   # too few columns
        (["2\ta\ta\tX\t-\t-"], "line 1"),                          # ids must start at 1
        (["1\ta\ta\tX\t-\t-", "3\tb\tb\tY\t-\t-"], "line 2"),      # ids must be contiguous
        (["1\ta\ta\tX\tyes\t-"], "line 1"),                        # bad top flag
        (["1\ta\ta\tX\t-\t?"], "line 1"),                          # bad predicate flag
        (["1\ta\ta\tX\t-\t+\tself"], "line 1"),                    # edge onto itself
        (["1\ta\ta\tX\t-\t-\tr1"], "line 1"),                      # arg cell without predicate
        (["1\ta\ta\tX\t-\t+\t_\textra", "2\tb\tb\tY\t-\t-\t_"], "line"),  # ragged widths
    ],
)
def test_parse_errors_carry_line_numbers(lines, fragment):
    with pytest.raises(DataError) as err:
        parse_sdp_lines(lines, source="input.sdp")
    assert "input.sdp" in str(err.value)
    assert fragment in str(err.value)


def test_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError) as err:
        parse_sdp(tmp_path / "nope.sdp")
    assert "nope.sdp" in str(err.value)


def test_format_writes_predicate_columns_in_head_order():
    graph = SemGraph(3, [(0, 2, "TOP"), (2, 1, "ARG1"), (2, 3, "ARG2")])
    sent = Sentence(tokens=(Token("Dogs", "dog", "NNS"),
                            Token("chase", "chase", "VBP"),
                            Token("cats", "cat", "NNS")))
    text = format_sdp([(sent, graph)])
    assert text.splitlines() == [
        "1\tDogs\tdog\tNNS\t-\t-\tARG1",
        "2\tchase\tchase\tVBP\t+\t+\t_",
        "3\tcats\tcat\tNNS\t-\t-\tARG2",
    ]


# four predicates (one a top, one in a two-cycle with another), then a
# sentence with no edge: no label column
PINNED_BLOCKS = """\
1\tKim\tkim\tNNP\t-\t+\t_\tARG1\t_\t_
2\tsaw\tsaw\tVBD\t+\t+\t_\t_\t_\t_
3\tLee\tlee\tNNP\t-\t-\t_\tARG2\tARG1\t_
4\tleave\tleave\tVB\t+\t+\t_\t_\t_\tcyc
5\tearly\tearly\tRB\t-\t+\tx\t_\tmod\t_

1\tHi\thi\tUH\t-\t-
2\tthere\tthere\tRB\t-\t-
"""


def test_format_pins_a_multi_predicate_block():
    edges = [(0, 2, "TOP"), (0, 4, "TOP"), (2, 1, "ARG1"), (2, 3, "ARG2"),
             (4, 3, "ARG1"), (4, 5, "mod"), (5, 4, "cyc"), (1, 5, "x")]
    sent = Sentence(tuple(Token(form, form.lower(), pos) for form, pos in [
        ("Kim", "NNP"), ("saw", "VBD"), ("Lee", "NNP"), ("leave", "VB"), ("early", "RB")]))
    empty = (Sentence((Token("Hi", "hi", "UH"), Token("there", "there", "RB"))), SemGraph(2, []))
    heads, deps, labels = zip(*edges)
    # the constructor and the decoder's array path build the same graph
    for graph in (SemGraph(5, edges), SemGraph.from_arrays(5, heads, deps, labels)):
        assert format_sdp([(sent, graph), empty]) == PINNED_BLOCKS
    assert parse_sdp_lines(PINNED_BLOCKS.splitlines()) == [(sent, SemGraph(5, edges)), empty]


def test_round_trip_through_files(tmp_path, rng):
    data = roundtrip_corpus(rng, size=50)
    path = tmp_path / "out.sdp"
    write_sdp(data, path)
    back = parse_sdp(path)
    assert len(back) == 50
    for (s1, g1), (s2, g2) in zip(data, back):
        assert [t.form for t in s1.tokens] == [t.form for t in s2.tokens]
        assert g1 == g2


def test_round_trip_keeps_cycles_and_toplessness(rng):
    data = roundtrip_corpus(rng, size=30)
    from sdparse.graph import has_cycle

    assert any(has_cycle(g) for _, g in data)
    assert any(all(h != 0 for h, _ in g.edge_pairs()) for _, g in data)
    back = parse_sdp_lines(format_sdp(data).splitlines())
    assert all(g1 == g2 for (_, g1), (_, g2) in zip(data, back))


def _counted_corpus(counts):
    """One-token sentences realizing the given form -> count map."""
    data = []
    for form, count in counts.items():
        for _ in range(count):
            sent = Sentence(tokens=(Token(form, form, "N"),))
            data.append((sent, SemGraph(1, [])))
    return data


def test_vocab_frequency_cutoff_boundary():
    vocab = build_vocab(_counted_corpus({"often": 7, "rarely": 6}))  # default cutoff 7
    assert "often" in vocab.form2id
    assert "rarely" not in vocab.form2id
    assert vocab.word_id("rarely") == vocab.UNK_ID
    assert vocab.word_id("often") >= 2


def test_vocab_orders_by_frequency_then_spelling():
    vocab = build_vocab(_counted_corpus({"zz": 3, "aa": 3, "mid": 5}), min_count=1)
    assert vocab.form2id["<unk>"] == 0 and vocab.form2id["<top>"] == 1
    assert vocab.form2id["mid"] == 2
    assert vocab.form2id["aa"] == 3
    assert vocab.form2id["zz"] == 4


def test_vocab_keeps_all_tags_and_labels(rng):
    data = toy_corpus(rng, size=8)
    vocab = build_vocab(data, min_count=50)  # cutoff hides every form
    assert set(vocab.form2id) == {"<unk>", "<top>"}
    tags = {t.pos for s, _ in data for t in s.tokens}
    assert tags <= set(vocab.pos2id)
    labels = {lab for _, g in data for _, _, lab in g.edges}
    assert labels <= set(vocab.label2id)
    assert vocab.label2id["TOP"] == 0


def test_vocab_label_lookup_is_strict(rng):
    vocab = build_vocab(toy_corpus(rng, size=4), min_count=1)
    with pytest.raises(DataError):
        vocab.label_id("no-such-label")
    assert vocab.id2label[vocab.label_id("TOP")] == "TOP"


def test_vocab_dict_round_trip(rng):
    vocab = build_vocab(toy_corpus(rng, size=4), min_count=2)
    clone = Vocabulary.from_dict(vocab.to_dict())
    assert clone.form2id == vocab.form2id
    assert clone.pos2id == vocab.pos2id
    assert clone.label2id == vocab.label2id
    assert clone.min_count == vocab.min_count


def test_load_pretrained_reads_vectors(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dog 0.5 -1.0\ncat 1.5 2.5\n")
    table, dim = load_pretrained(path)
    assert dim == 2
    np.testing.assert_allclose(table["dog"], [0.5, -1.0])
    np.testing.assert_allclose(table["cat"], [1.5, 2.5])


def test_load_pretrained_rejects_ragged_rows(tmp_path):
    path = tmp_path / "vecs.txt"
    path.write_text("dog 0.5 -1.0\ncat 1.5\n")
    with pytest.raises(DataError) as err:
        load_pretrained(path)
    assert "line 2" in str(err.value)


form_strategy = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="#"),
    min_size=1,
    max_size=6,
)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_random_graph_round_trip(data):
    n = data.draw(st.integers(1, 4))
    tokens = tuple(
        Token(data.draw(form_strategy), data.draw(form_strategy), data.draw(form_strategy))
        for _ in range(n)
    )
    candidates = [(h, d) for h in range(n + 1) for d in range(1, n + 1) if h != d]
    chosen = data.draw(st.lists(st.sampled_from(candidates), unique=True, max_size=len(candidates))) if candidates else []
    labels = ["TOP" if h == 0 else data.draw(st.sampled_from(["r1", "r2"])) for h, _ in chosen]
    graph = SemGraph(n, [(h, d, lab) for (h, d), lab in zip(chosen, labels)])
    back = parse_sdp_lines(format_sdp([(Sentence(tokens=tokens), graph)]).splitlines())
    assert len(back) == 1
    sent2, graph2 = back[0]
    assert [t.form for t in sent2.tokens] == [t.form for t in tokens]
    assert graph2 == graph


# hostile input: cells that are nearly right (ids off by one, flags with a
# stray CR, empty labels) mixed with arbitrary unicode, and lines ending
# in LF, CRLF, a bare CR or nothing
_cell = st.one_of(
    st.sampled_from(["1", "2", "3", "0", "-1", "01", " 1", "+", "-", "+\r", "_", "_\r",
                     "ARG1", "TOP", "", " ", "\u00e9", "\u200b", "\ufeff1", "#"]),
    st.text(max_size=4),
)
_ending = st.sampled_from(["", "\n", "\r\n", "\r"])
_free_line = st.builds(lambda cells, end: "\t".join(cells) + end,
                       st.lists(_cell, max_size=9), _ending)


@st.composite
def _token_rows(draw):
    """A block whose ids are mostly in order and whose flag and argument
    columns are drawn from valid and near-valid values, so the parser's
    later checks (predicate count, self edges, labels) are reached."""
    lines = []
    for i in range(draw(st.integers(1, 5))):
        token_id = draw(st.sampled_from([str(i + 1)] * 4 + ["0", str(i + 2), "x"]))
        flags = [draw(st.sampled_from(["+", "-", "+", "-", "*", "+\r"])) for _ in range(2)]
        args = draw(st.lists(st.sampled_from(["_", "_", "A", "B", "TOP", "_\r", ""]), max_size=4))
        words = [draw(_cell) for _ in range(3)]
        lines.append("\t".join([token_id, *words, *flags, *args]) + draw(_ending))
    return lines


_sdp_input = st.one_of(
    st.lists(st.one_of(_free_line, st.sampled_from(["\n", "\r\n", "# note\n", "\t\n"])),
             max_size=12),
    st.lists(_token_rows(), min_size=1, max_size=3).map(
        lambda blocks: [line for block in blocks for line in block + ["\n"]]),
    st.text(max_size=80).map(lambda text: text.splitlines(keepends=True)),
)


@settings(max_examples=300, deadline=None)
@given(_sdp_input)
def test_hostile_lines_raise_only_data_error(lines):
    try:
        data = parse_sdp_lines(lines)
    except DataError:
        return
    for sent, graph in data:
        assert graph.n == sent.n >= 1
        assert all(0 <= h <= sent.n and 1 <= d <= sent.n and h != d for h, d, _ in graph.edges)


def test_empty_input_parses_to_nothing():
    assert parse_sdp_lines([]) == []
    assert parse_sdp_lines(["\n", "# only a comment\n", "\r\n"]) == []
