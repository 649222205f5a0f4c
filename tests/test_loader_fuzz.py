"""Fuzzed loader input ends in a ValueError, never in another exception.

Each loader is fed mutations of a valid document: spliced characters from
the format's own alphabet, deleted or duplicated lines.  Whatever the
mutation, the loader either accepts the text or raises a ``ValueError``
subclass (``NetlistError``, ``PlacementError``, ``GeneticCodeError``, or a
plain ``ValueError`` naming the CSV line); a ``TypeError``, ``KeyError`` or
``IndexError`` escaping would reach the command line as a traceback.
"""

import pytest

from hypothesis import given, settings, strategies as st

from cellfab.apps import ccs, edg
from cellfab.apps.edg import START_PERMITTED
from cellfab.engine import Scenario
from cellfab.genetic import decode_genetic, encode_genetic, from_hex, to_hex
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist
from cellfab.report import from_csv, to_csv
from cellfab.sim import run_raw

from test_genetic import random_config

FUZZ = settings(derandomize=True, deadline=None, max_examples=200)


@st.composite
def mutated(draw, text: str, alphabet: str):
    """``text`` with a few spliced spans and line edits."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[i]
        else:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
    out = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(out)))
        j = draw(st.integers(i, min(len(out), i + 10)))
        out = out[:i] + draw(st.text(alphabet, max_size=6)) + out[j:]
    return out


NETLIST_ALPHABET = "abinoptuwyz_019 :=(),#\n\t-ANDORTMUXCPSBLYE"


@FUZZ
@given(st.sampled_from([edg.netlist_text(), ccs.netlist_text()]).flatmap(
    lambda text: mutated(text, NETLIST_ALPHABET)))
def test_netlist_loader_raises_only_value_errors(text):
    try:
        compile_netlist(parse_netlist(text))
    except ValueError:
        pass


@FUZZ
@given(st.randoms(use_true_random=False), st.integers(0, (1 << 66) - 1),
       st.integers(-(1 << 70), 1 << 70), st.booleans())
def test_code_word_decoder_raises_only_value_errors(rng, mask, raw, use_raw):
    word = raw if use_raw else encode_genetic(random_config(rng)) ^ mask
    try:
        decode_genetic(word)
    except ValueError:
        pass


@FUZZ
@given(st.one_of(
    st.text("0123456789abcdefABCDEFxX_+- \t", max_size=20),
    st.integers(0, (1 << 68) - 1).map(to_hex),
))
def test_hex_loader_raises_only_value_errors(text):
    try:
        decode_genetic(from_hex(text))
    except ValueError:
        pass


def short_trace_csv() -> str:
    sc = Scenario(
        name="fuzz", application="edg",
        stimulus=[(0, n, v) for n, v in START_PERMITTED.items()], run_until=300,
    )
    return to_csv(run_raw(sc).trace)


CSV_TEXT = short_trace_csv()
CSV_ALPHABET = "0123456789,.-#: =\nabcdefilmnostu_" + "EOS"


@FUZZ
@given(mutated(CSV_TEXT, CSV_ALPHABET))
def test_csv_loader_raises_only_value_errors(text):
    try:
        from_csv(text)
    except ValueError as exc:
        assert str(exc).startswith("line ")


def test_unmutated_documents_load():
    assert from_csv(CSV_TEXT).records
    compile_netlist(parse_netlist(ccs.netlist_text()))
    with pytest.raises(ValueError, match="^line "):
        from_csv(CSV_TEXT.replace("data", "dat", 1))
