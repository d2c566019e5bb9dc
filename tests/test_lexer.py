import pytest
from hypothesis import given
from hypothesis import strategies as st

from campl.lexer import CHARLIT, EOF, INT, STRING, LexError, tokenize


def kinds_and_texts(source):
    return [(t.kind, t.text) for t in tokenize(source) if t.kind != "eof"]


def test_hello_put_line():
    got = kinds_and_texts('put "Hello World!" on console')
    assert got == [("kw", "put"), ("string", "Hello World!"),
                   ("kw", "on"), ("ident", "console")]


def test_empty_input():
    assert kinds_and_texts("") == []


def test_comment_only():
    assert kinds_and_texts("-- comment only") == []


def test_comment_runs_to_end_of_line():
    got = kinds_and_texts("halt ch -- trailing words = => ::\nclose")
    assert got == [("kw", "halt"), ("ident", "ch"), ("kw", "close")]


def test_comment_without_space_after_paren():
    got = kinds_and_texts("f( | a => )-- recurse")
    assert [t for _, t in got] == ["f", "(", "|", "a", "=>", ")"]


def test_multi_char_operators():
    got = [t for _, t in kinds_and_texts("(*) (+) |=| :: => -> = | , ( ) [ ]")]
    assert got == ["(*)", "(+)", "|=|", "::", "=>", "->", "=", "|", ",",
                   "(", ")", "[", "]"]


def test_negative_and_positive_ints():
    got = kinds_and_texts("put -5 put 42")
    assert ("int", "-5") in got and ("int", "42") in got


def test_string_escapes():
    toks = tokenize(r'"a\"b\nc\\d"')
    assert toks[0].value if hasattr(toks[0], "value") else toks[0].text \
        == 'a"b\nc\\d'


def test_char_literals():
    toks = tokenize(r"'x' '\n' '\''")
    assert [t.text for t in toks[:3]] == ["x", "\n", "'"]


def test_positions_are_one_based():
    toks = tokenize("proc run =\n    | =>")
    assert (toks[0].line, toks[0].col) == (1, 1)
    assert (toks[1].line, toks[1].col) == (1, 6)
    pipe = [t for t in toks if t.text == "|"][0]
    assert (pipe.line, pipe.col) == (2, 5)


def test_tab_rejected():
    with pytest.raises(LexError) as e:
        tokenize("proc run =\n\thalt ch")
    assert e.value.line == 2


def test_unterminated_string():
    with pytest.raises(LexError):
        tokenize('put "oops\nhalt')


def test_stray_character():
    with pytest.raises(LexError):
        tokenize("put $x")


def test_single_colon_rejected():
    with pytest.raises(LexError):
        tokenize("proc f : stuff")


def test_keywords_are_exactly_the_reserved_set():
    from campl.lexer import KEYWORDS
    assert KEYWORDS == {
        "proc", "protocol", "coprotocol", "do", "on", "of", "as", "into",
        "put", "get", "hput", "hcase", "close", "halt", "fork", "split",
        "plug", "race", "use", "store", "neg",
    }
    # `True`, `Int`, `Console` are plain identifiers
    got = dict(kinds_and_texts("True Int Console"))
    assert set(got) == {"ident"}


def test_crlf_normalized():
    toks = tokenize("close a\r\nclose b")
    assert [t.line for t in toks if t.kind == "kw"] == [1, 2]


@pytest.mark.parametrize("source, message, line, col", [
    ("proc run =\n\thalt ch", "tab character; indent with spaces", 2, 1),
    ('put "a\tb" on x', "tab character; indent with spaces", 1, 7),
    ("proc f : stuff", "expected '::'", 1, 8),
    ("put $x", "unexpected character '$'", 1, 5),
    ("put é", "unexpected character 'é'", 1, 5),
    ("close a\nput - 5", "unexpected character '-'", 2, 5),
    ("put -", "unexpected character '-'", 1, 5),
    ('put "oops\nhalt', "unterminated string literal", 1, 5),
    ('put "oops', "unterminated string literal", 1, 5),
    ("put 'a\nhalt", "unterminated character literal", 1, 5),
    ("put '\n", "unterminated character literal", 1, 5),
    ("put 'a", "unterminated character literal", 1, 5),
    ("put '", "unterminated character literal", 1, 5),
    ('put "a\\qb"', "bad escape in string literal", 1, 7),
    ("put '\\q'", "bad escape in character literal", 1, 6),
    ('put "ab\\', "bad escape in string literal", 1, 8),
])
def test_lex_error_positions(source, message, line, col):
    with pytest.raises(LexError) as e:
        tokenize(source)
    assert (e.value.message, e.value.line, e.value.col) == \
        (message, line, col)


@pytest.mark.parametrize("source, want", [
    ("f( | a => )-- c", [("ident", "f", 1, 1), ("op", "(", 1, 2),
                         ("op", "|", 1, 4), ("ident", "a", 1, 6),
                         ("op", "=>", 1, 8), ("op", ")", 1, 11)]),
    ("-5", [("int", "-5", 1, 1)]),
    ("->", [("op", "->", 1, 1)]),
    ("|=|", [("op", "|=|", 1, 1)]),
])
def test_token_positions(source, want):
    toks = tokenize(source)
    assert [(t.kind, t.text, t.line, t.col) for t in toks[:-1]] == want
    assert (toks[-1].kind, toks[-1].line, toks[-1].col) == ("eof", 1, 0)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digits_are_unexpected_characters(digit):
    with pytest.raises(LexError) as e:
        tokenize(f"put {digit} on x")
    assert (e.value.message, e.value.line, e.value.col) == \
        (f"unexpected character {digit!r}", 1, 5)


# Token pieces plus the characters that make each error path fire.
_PIECES = st.sampled_from([
    " ", "  ", "\n", "\r", "\r\n", "\t", "-", "--", "->", "=>", "=", "::",
    ":", "(", ")", "(*)", "(+)", "|", "|=|", "[", "]", ",", "*", "+", ">",
    '"', "'", "\\", "\\n", "a", "Z", "_", "put", "on", "x1", "0", "42",
    "\u00e9", "\u00b2", "\u0663", "$",
])


@given(st.lists(_PIECES, max_size=40).map("".join))
def test_tokens_sit_at_their_positions(source):
    try:
        toks = tokenize(source)
    except LexError:
        return
    lines = source.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for t in toks:
        if t.kind == EOF:
            continue
        line = lines[t.line - 1]
        if t.kind in (STRING, CHARLIT):
            assert line[t.col - 1] == ('"' if t.kind == STRING else "'")
            continue
        assert line[t.col - 1:t.col - 1 + len(t.text)] == t.text
        if t.kind == INT:
            assert t.text.isascii()
            int(t.text)
