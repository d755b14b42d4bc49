"""Edge-list and JSON graph formats."""

from __future__ import annotations

import pytest

try:
    from hypothesis import given
except ModuleNotFoundError:
    pytest.skip("hypothesis not installed", allow_module_level=True)

from strategies import bigraphs

from dhp import (
    SIDE_LIMIT,
    Bigraph,
    ParseError,
    ResourceLimitError,
    load_bigraph,
    parse_bigraph,
    parse_bigraph_json,
    serialize_bigraph,
    serialize_bigraph_json,
)


@given(bigraphs())
def test_edge_list_round_trip(g: Bigraph) -> None:
    assert parse_bigraph(serialize_bigraph(g)) == g


@given(bigraphs())
def test_json_round_trip(g: Bigraph) -> None:
    assert parse_bigraph_json(serialize_bigraph_json(g)) == g


@given(bigraphs())
def test_auto_detection_round_trips_both(g: Bigraph) -> None:
    assert load_bigraph(serialize_bigraph(g)) == g
    assert load_bigraph(serialize_bigraph_json(g)) == g


def test_comments_and_blank_lines_ignored() -> None:
    text = """
    # a comment
    bigraph 2 2   # trailing comment

    0 0
    # another
    1 1
    """
    g = parse_bigraph(text)
    assert sorted(g.edges()) == [(0, 0), (1, 1)]


def test_duplicate_edge_lenient_vs_strict() -> None:
    text = "bigraph 2 2\n0 0\n0 0\n"
    assert parse_bigraph(text).num_edges == 1
    with pytest.raises(ParseError) as exc:
        parse_bigraph(text, strict=True)
    assert exc.value.line == 3
    assert "duplicate" in exc.value.message


def test_parse_errors_carry_line_numbers() -> None:
    cases = [
        ("graph 2 2\n", 1, "bigraph"),
        ("bigraph 2\n", 1, "two integers"),
        ("bigraph a b\n", 1, "integers"),
        ("bigraph -1 2\n", 1, "non-negative"),
        ("bigraph 2 2\n0\n", 2, "<i> <j>"),
        ("bigraph 2 2\n0 x\n", 2, "integers"),
        ("bigraph 2 2\n5 0\n", 2, "out of range"),
        ("bigraph 2 2\n0 5\n", 2, "out of range"),
        ("# nothing here\n", 1, "header"),
    ]
    for text, line, phrase in cases:
        with pytest.raises(ParseError) as exc:
            parse_bigraph(text)
        assert exc.value.line == line, text
        assert phrase in exc.value.message, text


def test_json_errors() -> None:
    bad = [
        ("[1, 2]", "object"),
        ('{"nx": 2, "ny": 2}', "missing key"),
        ('{"nx": "2", "ny": 2, "edges": []}', "integers"),
        ('{"nx": 2, "ny": 2, "edges": 3}', "list"),
        ('{"nx": 2, "ny": 2, "edges": [[0]]}', "pair"),
        ('{"nx": 2, "ny": 2, "edges": [[0, 9]]}', "out of range"),
        ("{not json", "invalid JSON"),
    ]
    for text, phrase in bad:
        with pytest.raises(ParseError) as exc:
            parse_bigraph_json(text)
        assert phrase in exc.value.message, text


def test_over_long_non_integer_keeps_the_type_message() -> None:
    # only a token int() would take under a larger limit names the limit
    for text in (f"bigraph 2 {'9' * 5000}x\n", f"bigraph 2 2\n0 x{'9' * 5000}\n"):
        with pytest.raises(ParseError) as exc:
            parse_bigraph(text)
        assert "must be integers" in exc.value.message and "limit" not in exc.value.message


# JSON that the decoder itself cannot take: nesting past the recursion
# limit, and an integer past the int-string digit limit
UNDECODABLE_JSON = [
    ('{"a":' * 200000, "nested too deeply"),
    ('{"nx": ' + "9" * 5000 + ', "ny": 1, "edges": []}', "digits"),
]


@pytest.mark.parametrize("text, phrase", UNDECODABLE_JSON, ids=["deep-nesting", "long-integer"])
def test_undecodable_json_is_a_parse_error(text: str, phrase: str) -> None:
    for parse in (parse_bigraph_json, load_bigraph):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == 1
        assert "invalid JSON" in exc.value.message and phrase in exc.value.message


@pytest.mark.parametrize(
    "text",
    [
        f"bigraph {SIDE_LIMIT + 1} 1\n",
        f"bigraph 1 {SIDE_LIMIT + 1}\n0 0\n",
        f'{{"nx": {SIDE_LIMIT + 1}, "ny": 1, "edges": []}}',
        f'{{"nx": 1, "ny": {10**9}, "edges": [[0, 0]]}}',
    ],
)
def test_oversized_side_rejected_before_allocating(text: str) -> None:
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            load_bigraph(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_side_limit_admits_its_own_size() -> None:
    g = parse_bigraph(f"bigraph 1 {SIDE_LIMIT}\n0 {SIDE_LIMIT - 1}\n")
    assert g.ny == SIDE_LIMIT and g.has_edge(0, SIDE_LIMIT - 1)


def test_json_tolerates_extra_keys() -> None:
    g = parse_bigraph_json('{"nx": 1, "ny": 1, "edges": [[0, 0]], "config": {}}')
    assert g.has_edge(0, 0)


def test_serialization_is_canonical() -> None:
    g = Bigraph.from_edges(2, 2, [(1, 1), (0, 1), (0, 0)])
    assert serialize_bigraph(g) == "bigraph 2 2\n0 0\n0 1\n1 1\n"
    assert (
        serialize_bigraph_json(g)
        == '{"edges":[[0,0],[0,1],[1,1]],"nx":2,"ny":2}\n'
    )
