import hashlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from campl.lexer import CHARLIT, EOF, INT, STRING, LexError, tokenize
from conftest import CORPUS, load_perfbench


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
    assert toks[0].text == 'a"b\nc\\d'


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
    # After leading blanks.
    ("close a\n    $x", "unexpected character '$'", 2, 5),
    ("close a\n  \thalt", "tab character; indent with spaces", 2, 3),
    ("proc f   : x", "expected '::'", 1, 10),
    ("close a\r\n   : x", "expected '::'", 2, 4),
    ("put   -", "unexpected character '-'", 1, 7),
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


@pytest.mark.parametrize("source, want", [
    # Trailing blanks at the end, with no final newline.
    ("close a   ", [("kw", "close", 1, 1), ("ident", "a", 1, 7),
                    ("eof", "", 1, 0)]),
    # Blank-only lines.
    ("close a\n   \n\n  \nclose b", [
        ("kw", "close", 1, 1), ("ident", "a", 1, 7),
        ("kw", "close", 5, 1), ("ident", "b", 5, 7), ("eof", "", 5, 0)]),
    # A comment after leading blanks, and one after a token.
    ("close a\n    -- note ( \" '\n  close b -- c\n", [
        ("kw", "close", 1, 1), ("ident", "a", 1, 7),
        ("kw", "close", 3, 3), ("ident", "b", 3, 9), ("eof", "", 4, 0)]),
    # CRLF and lone CR line ends.
    ("close a\r\n  close b\r\n", [
        ("kw", "close", 1, 1), ("ident", "a", 1, 7),
        ("kw", "close", 2, 3), ("ident", "b", 2, 9), ("eof", "", 3, 0)]),
    ("close a\r  put 'x'\r\n\r  \"s\"", [
        ("kw", "close", 1, 1), ("ident", "a", 1, 7),
        ("kw", "put", 2, 3), ("char", "x", 2, 7),
        ("string", "s", 4, 3), ("eof", "", 4, 0)]),
])
def test_edge_token_positions(source, want):
    assert [(t.kind, t.text, t.line, t.col) for t in tokenize(source)] \
        == want


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


def token_digest(source):
    rows = (repr((t.kind, t.text, t.line, t.col)) for t in tokenize(source))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def token_sources():
    """Source id -> text: the corpus, and the benchmark's `frontend` and
    `churn` programs at seed 1."""
    out = {f"corpus/{p.name}": p.read_text(encoding="utf-8")
           for p in sorted(CORPUS.glob("*.campl"))}
    programs = load_perfbench("programs")
    for workload in ("frontend", "churn"):
        for key, text in programs.WORKLOADS[workload](1).sources.items():
            out[f"{workload}/{key}"] = text
    return out


# sha256 of every token's (kind, text, line, col), EOF included.  A change
# to the lexer must leave each one unchanged.
TOKEN_DIGESTS = {
    "churn/churn0":
        "e8406e2eff4219b55d356f1d166c9b50b87692e79e5bbbe1d3bc831115b6b29a",
    "churn/churn1":
        "0a10be40b97458a989e4d009f7c855a9aca7f52a2f4b0b55cfcb785620ca5ed3",
    "churn/churn2":
        "ddd2c850908a93307fbdacdc62bcd2b19b87f495c108fd0ec758eaecc24001e9",
    "corpus/appendix_b.campl":
        "3c2da84c02425cc2ab964406c21a42db312fa29b755bf5ae749f4061cca66240",
    "corpus/appendix_c.campl":
        "76f018ad20d24944b686c121829d441783ce757001d01e09afbcaad86bfcc3d2",
    "corpus/appendix_e.campl":
        "d4a23b7a6cb23865cc261bb06caa5aaddb98aeb802c70e64f1c73521d4884dbe",
    "corpus/listing1.campl":
        "34b1b27e1f4f0368482291a003b21bbf55a9b8fe918716ab69d43300a804f4dc",
    "corpus/listing2.campl":
        "5186966bd8e676d972a5fb42335e8a893ee209c9bfac30572d2aa92075efa8f5",
    "corpus/listing3.campl":
        "a1f77f1af7ec516d958e03062d50f1aafb7f39a2fed88d185bbd8b48b4ac6db0",
    "corpus/listing5.campl":
        "3c0e9751cb1be8d3bbd88de16e6ca10db43c7c8d178743b85c672508c91383a9",
    "corpus/listing6.campl":
        "a1f20d4bb3cf085df51376e447446736f987b0515b79f09a85c3ebc5e136ceb6",
    "corpus/listing7.campl":
        "a80044a2fdf669c937d2a96674d0a30d9364e9d9e9974513edcee564b901da44",
    "corpus/listing8.campl":
        "ca058ad5828988d92cc92f04f250cdecc5b73c856b0b36f06f55f4e2de8bdbcd",
    "corpus/listing9.campl":
        "6216a46873293dc7bd0e0a2256ad10045ee3d4bf84004c4726d7c6bb01b2c3a2",
    "frontend/frontend-n1000-d20":
        "10cc10e081da60d1a68cd85e58ddd9b111a5ed1221b365df0568cac3bf4de110",
    "frontend/frontend-n15-d105":
        "daaed89e23c1ee427f28b14c271bf5e0010df18b76224e1674dd25d3a108f3f0",
    "frontend/frontend-n150-d75":
        "380eba026131765d9c6d537a1a24f5cb79a64866187fc964f37b5b94484dad43",
    "frontend/frontend-n195-d65":
        "131cd55610cadd2e8f9d05e6307763404fa40eb0a6a24397976584a431e62cb3",
    "frontend/frontend-n20-d300":
        "a34d62c1ed551bdb2431cfc69d9aa38191851e95531f88cb33fe3e4fa2f316cd",
    "frontend/frontend-n240-d55":
        "03fb0c8d31ce089eca897a75327256f9c4dad931f5ea28506c921eeecb17598d",
    "frontend/frontend-n330-d20":
        "3c6958f50d1adda1ebaf8392459b995a3a2641c251713a718bfbdec0e516cbf9",
}


@pytest.fixture(scope="module")
def sources():
    return token_sources()


def test_token_digests_cover_every_source(sources):
    assert sorted(TOKEN_DIGESTS) == sorted(sources)


@pytest.mark.parametrize("name", sorted(TOKEN_DIGESTS))
def test_token_stream_digest(name, sources):
    assert token_digest(sources[name]) == TOKEN_DIGESTS[name]
