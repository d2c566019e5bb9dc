import json

import pytest

from campl import diagnostics as dk
from campl.checker import UnifyClash, Unifier, check_program
from campl.diagnostics import CheckFailure
from campl.model import (
    INPUT, INT, OUTPUT, STRING, TOPBOT, Get, NegT, ProcSignature, Put,
    StoreType, allowed_commands,
)
from campl.parser import parse_source
from conftest import corpus_text


def check_text(src: str):
    return check_program(parse_source(src))


def errors_of(src: str):
    with pytest.raises(CheckFailure) as e:
        check_text(src)
    return e.value.errors


def kinds_of(src: str):
    return {d.kind for d in errors_of(src)}


# ---------------------------------------------------------------------------
# corpus positives

POSITIVE = [
    "listing1.campl", "listing2.campl", "listing3.campl", "listing5.campl",
    "listing6.campl", "listing7.campl", "listing8.campl", "listing9.campl",
    "appendix_c.campl", "appendix_e.campl",
]


@pytest.mark.parametrize("name", POSITIVE)
def test_corpus_checks_cleanly(name):
    check_text(corpus_text(name))


def test_appendix_b_is_rejected_on_channel_ch():
    errs = errors_of(corpus_text("appendix_b.campl"))
    assert any(d.channel == "ch" for d in errs)
    assert dk.PLUG_POLARITY_MISMATCH in {d.kind for d in errs}


# ---------------------------------------------------------------------------
# explicit signatures: the fully annotated client/server program

def test_explicit_types_accepted_verbatim():
    typed = check_text(corpus_text("appendix_c.campl"))
    want = Put(STRING, Get(INT, TOPBOT))
    site = typed.plug_sites[0]
    assert site.chan_types["ch"] == want
    assert str(want) == "Put([Char]|Get(Int|TopBot))"
    sig = typed.signatures["server"]
    assert sig == ProcSignature((INT,), (want,), ())


# ---------------------------------------------------------------------------
# inference: naive independent solver as the oracle for the echo program

def naive_solve(constraints):
    """First-order structural unification by fixpoint substitution, kept
    deliberately independent of the checker's implementation."""
    subst = {}

    def walk(t):
        while isinstance(t, str) and t in subst:
            t = subst[t]
        return t

    def apply(t):
        t = walk(t)
        if isinstance(t, tuple):
            return tuple(apply(x) for x in t)
        return t

    def unify(a, b):
        a, b = walk(a), walk(b)
        if a == b:
            return
        if isinstance(a, str):
            subst[a] = b
            return
        if isinstance(b, str):
            subst[b] = a
            return
        assert isinstance(a, tuple) and isinstance(b, tuple), (a, b)
        assert a[0] == b[0] and len(a) == len(b), (a, b)
        for x, y in zip(a[1:], b[1:]):
            unify(x, y)

    for a, b in constraints:
        unify(a, b)
    return apply


def test_listing2_inference_matches_naive_oracle():
    # Echo program, no signatures anywhere.  The client holds the output
    # end and runs put;get;halt, the server holds the input end and runs
    # get;put;halt.  Encode both ends' command sequences as constraints
    # over the shared channel type T.
    constraints = [
        # client (output polarity): put pins a Put head, the message is a
        # string literal; then get pins a Get head; halt pins TopBot.
        ("T", ("Put", ("str",), "R1")),
        ("R1", ("Get", "M_echo", "R2")),
        ("R2", ("TopBot",)),
        # server (input polarity): get needs a Put head with some message
        # M; put sends that same M back, needing a Get head.
        ("T", ("Put", "M", "Q1")),
        ("Q1", ("Get", "M", "Q2")),
        ("Q2", ("TopBot",)),
    ]
    apply = naive_solve(constraints)
    expected = apply("T")
    assert expected == ("Put", ("str",), ("Get", ("str",), ("TopBot",)))

    typed = check_text(corpus_text("listing2.campl"))
    got = typed.plug_sites[0].chan_types["ch"]
    assert got == Put(STRING, Get(STRING, TOPBOT))
    # The two routes agree shape-for-shape.
    def shape(t):
        if isinstance(t, Put):
            return ("Put", ("str",) if t.msg == STRING else (str(t.msg),),
                    shape(t.rest))
        if isinstance(t, Get):
            return ("Get", ("str",) if t.msg == STRING else (str(t.msg),),
                    shape(t.rest))
        return ("TopBot",)
    assert shape(got) == expected


def test_signatures_deleted_from_explicit_program_infer_the_same():
    src = corpus_text("appendix_c.campl")
    stripped = "\n".join(
        line for line in src.splitlines()
        if not line.lstrip().startswith("proc server ::")
        and not line.lstrip().startswith("proc client ::"))
    stripped = stripped.replace(
        "    server_id | ch => ->", "proc server =\n    server_id | ch => ->")
    stripped = stripped.replace(
        "    | => ch ->", "proc client =\n    | => ch ->")
    typed = check_text(stripped)
    assert typed.plug_sites[0].chan_types["ch"] == \
        Put(STRING, Get(INT, TOPBOT))


# ---------------------------------------------------------------------------
# unifier unit behaviour

def test_unifier_direct_substitution():
    u = Unifier()
    x, y = u.fresh_chan(), u.fresh_chan()
    u.unify(x, Put(STRING, y))
    u.unify(y, TOPBOT)
    assert u.zonk(x) == Put(STRING, TOPBOT)


def test_unifier_occurs_check():
    u = Unifier()
    x = u.fresh_chan()
    with pytest.raises(UnifyClash):
        u.unify(x, Put(STRING, x))


def test_unifier_occurs_check_sees_store_channel_types():
    u = Unifier()
    s = u.fresh_seq()
    with pytest.raises(UnifyClash):
        u.unify(s, StoreType(ProcSignature((), (Put(s, TOPBOT),), ())))


def test_unifier_occurs_check_sees_nested_store_seq_params():
    u = Unifier()
    x = u.fresh_chan()
    inner = StoreType(ProcSignature((), (x,), ()))
    outer = StoreType(ProcSignature((inner,), (), ()))
    with pytest.raises(UnifyClash):
        u.unify(x, Put(outer, TOPBOT))


def test_unifier_store_signatures():
    u = Unifier()
    s = u.fresh_seq()
    sig = ProcSignature((), (TOPBOT,), ())
    u.unify(s, StoreType(sig))
    assert u.zonk(s) == StoreType(sig)


def test_bare_recursion_needs_a_protocol():
    src = ("proc loop =\n"
           "    | ch => -> do\n"
           "        get x on ch\n"
           "        loop( | ch => )\n")
    assert dk.UNIFICATION_FAILURE in kinds_of(src)


def test_recursion_through_protocol_accepted():
    check_text(corpus_text("listing7.campl"))


# ---------------------------------------------------------------------------
# linearity negatives

def test_dropped_channel():
    src = ("proc p :: | TopBot, TopBot => =\n"
           "    | a, b => -> close a\n")
    assert dk.LINEARITY_DROP in kinds_of(src)


def test_double_close():
    src = ("proc p :: | TopBot => =\n"
           "    | a => -> do\n"
           "        close a\n"
           "        close a\n")
    assert dk.LINEARITY_REUSE in kinds_of(src)


def test_put_after_close():
    src = ("proc p :: | TopBot => =\n"
           "    | a => -> do\n"
           "        close a\n"
           '        put "x" on a\n')
    assert dk.LINEARITY_REUSE in kinds_of(src)


def test_fork_overlapping_partitions():
    src = ("proc p :: | TopBot => TopBot (*) TopBot =\n"
           "    | d => t ->\n"
           "        fork t as\n"
           "            a -> do\n"
           "                close d\n"
           "                halt a\n"
           "            b -> do\n"
           "                close d\n"
           "                halt b\n")
    assert dk.LINEARITY_REUSE in kinds_of(src)


def test_plug_triangle():
    src = ("proc node :: | TopBot => TopBot =\n"
           "    | i => o -> do\n"
           "        close i\n"
           "        halt o\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        node( | a => b )\n"
           "        node( | b => c )\n"
           "        node( | c => a )\n")
    assert dk.PLUG_CYCLE in kinds_of(src)


def test_duplicate_handle_names():
    src = ("protocol P(A| ) => S =\n"
           "    H :: Put(A|S) => S\n"
           "    Done :: TopBot => S\n"
           "\nprotocol Q(B| ) => T =\n"
           "    H :: Get(B|T) => T\n"
           "    Over :: TopBot => T\n")
    assert dk.HANDLE_DUPLICATE in kinds_of(src)


def test_a_handle_named_twice_in_one_protocol_unfolds_as_the_first():
    # Checking goes on after the duplicate; `hput A` must take the first
    # `A`, so `close` is legal and no second diagnostic follows.
    src = ("protocol P( | ) => S =\n"
           "    A :: TopBot => S\n"
           "    A :: Put(Int|TopBot) => S\n"
           "\nproc p =\n"
           "    | => ch -> do\n"
           "        hput A on ch\n"
           "        close ch\n")
    assert [(d.kind, d.pos.line) for d in errors_of(src)] == [
        (dk.HANDLE_DUPLICATE, 3)]


def test_halt_with_other_channels_live():
    src = ("proc p :: | TopBot, TopBot => =\n"
           "    | a, b => -> halt a\n")
    assert dk.LINEARITY_DROP in kinds_of(src)


def test_command_after_terminator_rejected():
    src = ("proc p :: | TopBot, TopBot => =\n"
           "    | a, b => -> do\n"
           "        halt a\n"
           "        close b\n")
    kinds = kinds_of(src)
    assert dk.LINEARITY_DROP in kinds or dk.HALT_NOT_LAST in kinds


def test_unreachable_after_call():
    src = ("proc q :: | TopBot => =\n"
           "    | a => -> close a\n"
           "\nproc p :: | TopBot => =\n"
           "    | a => -> do\n"
           "        q( | a => )\n"
           "        close a\n")
    assert dk.HALT_NOT_LAST in kinds_of(src)


def test_wrong_command_for_type():
    src = ("proc p :: | Put([Char]|TopBot) => =\n"
           "    | a => -> do\n"
           '        put "x" on a\n'
           "        close a\n")
    # input end of a Put must get, not put
    assert dk.POLARITY_VIOLATION in kinds_of(src)


def test_close_on_unfinished_session_is_illegal():
    src = ("proc p :: | Put([Char]|TopBot) => =\n"
           "    | a => -> close a\n")
    assert dk.ILLEGAL_COMMAND in kinds_of(src)


def test_seq_type_mismatch():
    src = ("proc p :: Int | Put([Char]|TopBot) => =\n"
           "    n | a => ->\n"
           "        on a do\n"
           "            put n\n"
           "            halt\n")
    # the signature says the input end gets; putting n is a polarity issue
    kinds = kinds_of(src)
    assert dk.POLARITY_VIOLATION in kinds or dk.SEQ_MISMATCH in kinds


def test_call_arity_mismatch():
    src = ("proc q :: | TopBot => =\n"
           "    | a => -> close a\n"
           "\nproc p :: | TopBot, TopBot => =\n"
           "    | a, b => -> q( | a, b => )\n")
    assert dk.ARITY_MISMATCH in kinds_of(src)


def test_race_arm_must_be_receiving():
    src = ("proc p :: | TopBot, Put([Char]|TopBot) => =\n"
           "    | t, m => ->\n"
           "        race\n"
           "            t -> do\n"
           "                close t\n"
           "                get x on m\n"
           "                halt m\n"
           "            m -> do\n"
           "                get x on m\n"
           "                close m\n"
           "                halt t\n")
    assert dk.RACE_ARM_NOT_RECEIVING in kinds_of(src)


def test_hcase_requires_every_handle():
    src = ("protocol Menu(A| ) => S =\n"
           "    First :: Put(A|S) => S\n"
           "    Second :: TopBot => S\n"
           "\nproc p :: | Menu([Char]| ) => =\n"
           "    | ch => ->\n"
           "        hcase ch of\n"
           "            Second -> close ch\n")
    assert dk.HANDLE_UNKNOWN in kinds_of(src)


def test_unknown_handle():
    src = ("proc p :: | TopBot => =\n"
           "    | ch => -> do\n"
           "        hput Bogus on ch\n"
           "        close ch\n")
    assert dk.HANDLE_UNKNOWN in kinds_of(src)


def test_console_cannot_be_created_by_plug():
    src = ("proc speaker :: | Console => =\n"
           "    | c => -> do\n"
           "        hput ConsoleClose on c\n"
           "        halt c\n"
           "\nproc feeder :: | => Console =\n"
           "    | => c -> do\n"
           "        hcase c of\n"
           "            ConsolePut -> do\n"
           "                put \"x\" on c\n"
           "                hput ConsoleClose on c\n"
           "                halt c\n"
           "            ConsoleGet -> do\n"
           "                get v on c\n"
           "                hput ConsoleClose on c\n"
           "                halt c\n"
           "            ConsoleClose -> halt c\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        feeder( | => c )\n"
           "        speaker( | c => )\n")
    assert dk.ILLEGAL_COMMAND in kinds_of(src)


def test_run_may_hold_one_console_only():
    src = ("proc run =\n"
           "    | a, b => -> do\n"
           "        hput ConsoleClose on a\n"
           "        close a\n"
           "        hput ConsoleClose on b\n"
           "        halt b\n")
    assert dk.ILLEGAL_COMMAND in kinds_of(src)


def test_lenient_call_sections_match_params_in_order():
    # The recursive call lists both channels in the input section even
    # though the callee's second channel is an output: sections at a call
    # site are documentation, binding order is what matters.
    src = ("protocol Feed(A| ) => S =\n"
           "    More :: Put(A|S) => S\n"
           "    Stop :: TopBot => S\n"
           "\nproc fwd :: | Feed([Char]| ) => Feed([Char]| ) =\n"
           "    | src => dst ->\n"
           "        hcase src of\n"
           "            More -> do\n"
           "                get m on src\n"
           "                hput More on dst\n"
           "                put m on dst\n"
           "                fwd( | src, dst => )\n"
           "            Stop -> do\n"
           "                close src\n"
           "                hput Stop on dst\n"
           "                halt dst\n")
    check_text(src)


# ---------------------------------------------------------------------------
# the `|=|` row of the command matrix

def test_the_link_row_only_names_link_among_a_neg_channels_commands():
    # `COMMAND_HEADS` lists `|=|` only on `Neg`, where diagnostics print
    # it among the commands the channel allows; `check_link` reads no
    # table and takes any two ends of one type at opposite polarities,
    # such as a forwarder of `Put` ends.
    for pol in (OUTPUT, INPUT):
        assert "|=|" in allowed_commands(NegT(TOPBOT), pol)
        assert "|=|" not in allowed_commands(Put(INT, TOPBOT), pol)
    check_text("proc fwd :: | Put(Int|TopBot) => Put(Int|TopBot) =\n"
               "    | a => b -> a |=| b\n")


# ---------------------------------------------------------------------------
# determinism and annotations

def test_checking_is_deterministic():
    src = corpus_text("listing7.campl")
    t1 = check_text(src)
    t2 = check_text(src)
    assert [str(StoreType(t1.signatures[n])) for n in t1.signatures] == \
        [str(StoreType(t2.signatures[n])) for n in t2.signatures]
    e1 = errors_of(corpus_text("appendix_b.campl"))
    e2 = errors_of(corpus_text("appendix_b.campl"))
    assert [(d.kind, d.pos, d.message) for d in e1] == \
        [(d.kind, d.pos, d.message) for d in e2]


_TWO = ("protocol Two(| ) => S =\n"
        "    L :: TopBot => S\n"
        "    R :: TopBot => S\n"
        "\n")


@pytest.mark.parametrize("src,line,col,message", [
    (_TWO + "proc p :: | Two(| ), TopBot => =\n"
            "    | c, d => -> hcase c of\n"
            "        L -> do\n"
            "            close c\n"
            "            halt d\n"
            "        R -> close c\n",
     6, 18, "hcase arms disagree: some terminate and some leave channels "
            "live"),
    (_TWO + "proc p :: | Two(| ), TopBot, TopBot => =\n"
            "    | c, d, e => -> do\n"
            "        hcase c of\n"
            "            L -> close d\n"
            "            R -> close e\n"
            "        close c\n"
            "        halt d\n",
     7, 9, "hcase arms consume different channel sets"),
    ("proc p :: | Put(Int|TopBot), Put(Int|TopBot), TopBot => =\n"
     "    | a, b, d => -> race\n"
     "        a -> do\n"
     "            get x on a\n"
     "            get y on b\n"
     "            close a\n"
     "            close d\n"
     "            halt b\n"
     "        b -> do\n"
     "            get y on b\n"
     "            get x on a\n"
     "            close a\n"
     "            close b\n",
     2, 21, "race arms disagree: some terminate and some leave channels "
            "live"),
], ids=["hcase-some-terminate", "hcase-different-sets",
        "race-some-terminate"])
def test_sibling_arms_must_consume_alike(src, line, col, message):
    [d] = errors_of(src)
    assert (d.kind, d.pos.line, d.pos.col, d.message) == \
        (dk.LINEARITY_DROP, line, col, message)


def test_fork_components_annotated():
    typed = check_text(corpus_text("listing5.campl"))
    assert typed.fork_sites
    comp = typed.fork_sites[0].components
    assert comp == (Put(STRING, TOPBOT), Put(STRING, TOPBOT))


def test_plug_connectivity_required():
    src = ("proc a1 :: | TopBot => =\n"
           "    | x => -> close x\n"
           "\nproc a2 :: | => TopBot =\n"
           "    | => x -> halt x\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        a2( | => x )\n"
           "        a1( | x => )\n"
           "        a2( | => y )\n"
           "        a1( | y => )\n")
    assert dk.PLUG_CYCLE in kinds_of(src)


def test_split_binder_shadowing_rejected():
    src = ("proc p :: | TopBot (*) TopBot, TopBot => =\n"
           "    | t, l => -> do\n"
           "        split t into l, r\n"
           "        close l\n"
           "        close r\n")
    assert dk.LINEARITY_REUSE in kinds_of(src)


def test_protocol_with_two_parameters():
    src = ("protocol Pair(A, B| ) => S =\n"
           "    Both :: Put(A|Put(B|S)) => S\n"
           "    Stop :: TopBot => S\n"
           "\nproc taker :: | Pair(Int, [Char]| ) => =\n"
           "    | ch => ->\n"
           "        hcase ch of\n"
           "            Both -> do\n"
           "                get n on ch\n"
           "                get s on ch\n"
           "                taker( | ch => )\n"
           "            Stop -> close ch\n"
           "\nproc giver :: | => Pair(Int, [Char]| ) =\n"
           "    | => ch -> do\n"
           "        hput Both on ch\n"
           "        put 1 on ch\n"
           '        put "one" on ch\n'
           "        hput Stop on ch\n"
           "        halt ch\n"
           "\nproc run =\n"
           "    | => -> plug\n"
           "        giver( | => ch )\n"
           "        taker( | ch => )\n")
    check_text(src)


def test_race_arms_with_divergent_contexts_rejected():
    src = ("proc p :: | Put(Int|TopBot), Put(Int|TopBot) => =\n"
           "    | a, b => -> do\n"
           "        race\n"
           "            a -> get x on a\n"
           "            b -> get y on b\n"
           "        close a\n"
           "        halt b\n")
    kinds = kinds_of(src)
    assert dk.LINEARITY_DROP in kinds or dk.UNIFICATION_FAILURE in kinds


def test_hcase_at_wrong_polarity():
    src = ("protocol Feed2(A| ) => S =\n"
           "    Next :: Put(A|S) => S\n"
           "    Fin :: TopBot => S\n"
           "\nproc p :: | => Feed2(Int| ) =\n"
           "    | => ch ->\n"
           "        hcase ch of\n"
           "            Next -> do\n"
           "                get x on ch\n"
           "                close ch\n"
           "            Fin -> close ch\n")
    assert dk.POLARITY_VIOLATION in kinds_of(src)


# ---------------------------------------------------------------------------
# service types stay with run: the plug and fork site audits

CONSOLE_PLUG = ("proc serve :: | => Console =\n"
                "    | => c -> hcase c of\n"
                "        ConsolePut -> do\n"
                "            get s on c\n"
                "            serve( | => c )\n"
                "        ConsoleGet -> do\n"
                '            put "line" on c\n'
                "            serve( | => c )\n"
                "        ConsoleClose -> halt c\n"
                "\nproc giver :: | => Put(Int|Console) =\n"
                "    | => c -> do\n"
                "        put 1 on c\n"
                "        serve( | => c )\n"
                "\nproc taker :: | Put(Int|Console) => =\n"
                "    | c => -> do\n"
                "        get v on c\n"
                "        hput ConsoleClose on c\n"
                "        halt c\n"
                "\nproc run =\n"
                "    | => -> plug\n"
                "        giver( | => c )\n"
                "        taker( | c => )\n")


def test_plug_of_a_channel_carrying_console_is_rejected():
    [d] = errors_of(CONSOLE_PLUG)
    assert d.text("p.campl") == (
        "p.campl:23:13: IllegalCommand: plug creates channel 'c' carrying "
        "the service type Console; only run receives service channels")
    assert json.loads(d.json_line("p.campl"))["channel"] == "c"


CONSOLE_FORK = ("proc splitter :: | Console (+) TopBot => =\n"
                "    | c => -> fork c as\n"
                "        a -> do\n"
                "            hput ConsoleClose on a\n"
                "            halt a\n"
                "        b -> halt b\n"
                "\nproc run =\n"
                "    | console => -> do\n"
                "        hput ConsoleClose on console\n"
                "        halt console\n")


def test_fork_of_a_channel_carrying_console_is_rejected():
    [d] = errors_of(CONSOLE_FORK)
    assert d.text("p.campl") == (
        "p.campl:2:15: IllegalCommand: fork creates a channel carrying the "
        "service type Console")
    assert json.loads(d.json_line("p.campl"))["channel"] is None


# ---------------------------------------------------------------------------
# one program for each checker diagnostic no other test raises

LONE_DIAGNOSTICS = {
    "declaration-name-taken": (
        "coprotocol S => Console( | ) =\n"
        "    Shout :: S => TopBot\n"
        "\nproc p :: | TopBot => =\n"
        "    | c => -> close c\n",
        dk.HANDLE_DUPLICATE, 1, 1,
        "declaration name 'Console' is already taken"),
    "handle-mentions-the-service": (
        "protocol Leaky( | ) => S =\n"
        "    Leak :: Put(Int|Console) => S\n"
        "    Stop :: TopBot => S\n"
        "\nproc p :: | TopBot => =\n"
        "    | c => -> close c\n",
        dk.ILLEGAL_COMMAND, 2, 5,
        "handle 'Leak' mentions the service type Console; service channels "
        "cannot be declared"),
    "signature-arity": (
        "proc p :: | TopBot, TopBot => =\n"
        "    | c => -> close c\n",
        dk.ARITY_MISMATCH, 1, 1,
        "signature of 'p' lists 0|2=>0 but the context line binds 0|1=>0"),
    "run-with-values": (
        "proc run :: Int | Console => =\n"
        "    n | console => -> do\n"
        "        hput ConsoleClose on console\n"
        "        halt console\n",
        dk.ILLEGAL_COMMAND, 1, 1, "run cannot take sequential parameters"),
    "run-with-outputs": (
        "proc run :: | => TopBot =\n"
        "    | => c -> halt c\n",
        dk.ILLEGAL_COMMAND, 1, 1,
        "run cannot take output channels; service channels sit at run's "
        "input side"),
    "run-with-a-plain-channel": (
        "proc run :: | TopBot => =\n"
        "    | c => -> close c\n",
        dk.ILLEGAL_COMMAND, 1, 1,
        "run may hold only service channels, found TopBot"),
    "store-of-an-unknown-process": (
        "proc p :: | => Put(Store(| =>)|TopBot) =\n"
        "    | => c -> do\n"
        "        put store(nope) on c\n"
        "        halt c\n",
        dk.ILLEGAL_COMMAND, 3, 13, "store of unknown process 'nope'"),
    "handle-of-another-protocol": (
        "protocol A( | ) => S =\n"
        "    Ax :: TopBot => S\n"
        "\nprotocol B( | ) => S =\n"
        "    Bx :: TopBot => S\n"
        "\nproc p :: | => A =\n"
        "    | => c -> do\n"
        "        hput Bx on c\n"
        "        halt c\n",
        dk.HANDLE_UNKNOWN, 9, 9, "handle belongs to B, but 'c' has type A"),
    "duplicate-hcase-arm": (
        "protocol A( | ) => S =\n"
        "    Ax :: TopBot => S\n"
        "\nproc p :: | A => =\n"
        "    | c => -> hcase c of\n"
        "        Ax -> close c\n"
        "        Ax -> close c\n",
        dk.HANDLE_DUPLICATE, 7, 9, "duplicate hcase arm for 'Ax'"),
    # Each arm binds `d` and `f` to the other's channels: one from a split,
    # which keeps the polarity, and one from a neg, which flips it.
    "arms-leave-different-polarities": (
        _TWO + "proc p :: | Two, TopBot (*) TopBot, Neg(TopBot) => =\n"
        "    | h, c, x => -> do\n"
        "        hcase h of\n"
        "            L -> do\n"
        "                close h\n"
        "                split c into d, e\n"
        "                neg x as f\n"
        "            R -> do\n"
        "                close h\n"
        "                split c into f, e\n"
        "                neg x as d\n"
        "        close d\n"
        "        close e\n"
        "        halt f\n",
        dk.POLARITY_VIOLATION, 7, 9,
        "hcase arms leave 'd' at different polarities"),
    "fork-binder-shadows": (
        "proc p :: | TopBot => TopBot (*) TopBot =\n"
        "    | l => t -> fork t as\n"
        "        l -> halt l\n"
        "        r -> halt r\n",
        dk.LINEARITY_REUSE, 3, 9, "fork binder 'l' shadows a live channel"),
    "fork-branch-leaves-live": (
        "proc p :: | => Put(Int|TopBot), TopBot (*) TopBot =\n"
        "    | => d, t -> fork t as\n"
        "        l -> do\n"
        "            close l\n"
        "            put 1 on d\n"
        "        r -> halt r\n",
        dk.LINEARITY_DROP, 3, 9,
        "fork branch 'l' ends with live channel(s): d"),
    "plug-branches-share-a-channel": (
        "proc p :: | TopBot => =\n"
        "    | c => -> plug\n"
        "        do\n"
        "            close c\n"
        "            halt x\n"
        "        do\n"
        "            close c\n"
        "            close x\n",
        dk.LINEARITY_REUSE, 2, 15,
        "plug branches 0 and 1 both use channel 'c'"),
    "plug-branch-leaves-live": (
        "proc run =\n"
        "    | => -> plug\n"
        "        do\n"
        "            put 1 on x\n"
        "        do\n"
        "            get v on x\n"
        "            close x\n",
        dk.LINEARITY_DROP, 4, 13,
        "plug branch ends with live channel(s): x"),
}


@pytest.mark.parametrize("name", LONE_DIAGNOSTICS)
def test_each_checker_diagnostic_is_reported_where_it_stands(name):
    src, kind, line, col, message = LONE_DIAGNOSTICS[name]
    [d] = errors_of(src)
    assert (d.kind, d.pos.line, d.pos.col, d.message) == (
        kind, line, col, message)
