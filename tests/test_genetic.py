"""Genetic code packing: roundtrips, parity protection, diagnostics."""

import random
from dataclasses import replace

import pytest

from cellfab.cell import Opcode, WidthMode
from cellfab.genetic import (
    CellConfig,
    CorruptedCodeError,
    InputSelector,
    InvalidCodeError,
    SelectorKind,
    UNUSED,
    WORD_BITS,
    decode_genetic,
    encode_genetic,
    format_config,
    NOP_CONFIG,
    from_hex,
    to_hex,
)


def random_config(rng: random.Random) -> CellConfig:
    opcode = rng.choice(list(Opcode))
    selectors = []
    for _ in range(4):
        kind = rng.choice(list(SelectorKind))
        index = rng.randrange(64) if kind in (
            SelectorKind.PRIMARY_INPUT,
            SelectorKind.CELL_OUTPUT,
        ) else 0
        selectors.append(InputSelector(kind, index))
    return CellConfig(
        opcode=opcode,
        selectors=tuple(selectors),
        immediate=rng.randint(-32768, 32767),
        delay_cycles=rng.randint(1, 255) if opcode is Opcode.DELAY else 0,
        output_enable=rng.random() < 0.5,
        width_mode=rng.choice((WidthMode.BIT, WidthMode.INT16)),
    )


def parity_oracle(word: int) -> tuple[int, int]:
    # independent oracle: count set bits per group directly
    hi = sum((word >> b) & 1 for b in range(34, 66))
    lo = sum((word >> b) & 1 for b in range(2, 34))
    return hi % 2, lo % 2


class TestEncode:
    def test_all_zero_nop_word_is_parity_only(self):
        cfg = CellConfig(
            opcode=Opcode.NOP,
            selectors=(InputSelector(SelectorKind.PRIMARY_INPUT, 0),) * 4,
            immediate=0,
            delay_cycles=0,
            output_enable=False,
            width_mode=WidthMode.BIT,
        )
        word = encode_genetic(cfg)
        assert word >> 2 == 0
        assert (word >> 1) & 1 == parity_oracle(word)[0]
        assert word & 1 == parity_oracle(word)[1]

    def test_parity_bits_match_oracle(self):
        rng = random.Random(1)
        for _ in range(500):
            word = encode_genetic(random_config(rng))
            p1, p0 = parity_oracle(word)
            assert (word >> 1) & 1 == p1
            assert word & 1 == p0

    def test_width_is_66_bits(self):
        rng = random.Random(2)
        for _ in range(500):
            assert encode_genetic(random_config(rng)) < (1 << WORD_BITS)

    def test_invalid_config_rejected_with_field_name(self):
        cfg = CellConfig(Opcode.DELAY, (UNUSED,) * 4, delay_cycles=0)
        with pytest.raises(InvalidCodeError, match="delay_cycles"):
            encode_genetic(cfg)
        cfg = CellConfig(Opcode.AND, (UNUSED,) * 4, delay_cycles=3)
        with pytest.raises(InvalidCodeError, match="delay"):
            encode_genetic(cfg)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("immediate", 32768, "immediate out of range: 32768"),
            ("immediate", -32769, "immediate out of range: -32769"),
            ("delay_cycles", 256, "delay_cycles out of range: 256"),
            ("delay_cycles", -1, "delay_cycles out of range: -1"),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, message):
        cfg = replace(CellConfig(Opcode.DELAY, (UNUSED,) * 4, delay_cycles=1), **{field: value})
        with pytest.raises(InvalidCodeError, match=f"^{message}$"):
            encode_genetic(cfg)

    def test_selector_canonical_form(self):
        with pytest.raises(InvalidCodeError, match="index"):
            InputSelector(SelectorKind.UNUSED, 5)
        with pytest.raises(InvalidCodeError, match="index"):
            InputSelector(SelectorKind.PRIMARY_INPUT, 64)


class TestDecode:
    def test_roundtrip_randomized(self):
        rng = random.Random(3)
        for _ in range(2000):
            cfg = random_config(rng)
            assert decode_genetic(encode_genetic(cfg)) == cfg

    def test_flip_of_bit_65_detected(self):
        word = encode_genetic(NOP_CONFIG)
        with pytest.raises(CorruptedCodeError):
            decode_genetic(word ^ (1 << 65))

    def test_every_single_bit_flip_above_parity_detected(self):
        rng = random.Random(4)
        for _ in range(25):
            word = encode_genetic(random_config(rng))
            for bit in range(2, 66):
                with pytest.raises(CorruptedCodeError):
                    decode_genetic(word ^ (1 << bit))

    def test_parity_bit_flips_also_detected(self):
        word = encode_genetic(NOP_CONFIG)
        for bit in (0, 1):
            with pytest.raises(CorruptedCodeError):
                decode_genetic(word ^ (1 << bit))

    def test_reserved_opcode_rejected(self):
        word = 31 << 61
        word |= 0b11000000 << 53 | 0b11000000 << 45 | 0b11000000 << 37 | 0b11000000 << 29
        word ^= word & 0b11
        # recompute valid parity so the opcode check is reached
        from cellfab.genetic import _parity_bits

        word = (word & ~0b11) | _parity_bits(word & ~0b11)
        with pytest.raises(InvalidCodeError, match="opcode"):
            decode_genetic(word)


class TestHexDump:
    def test_seventeen_digits(self):
        rng = random.Random(5)
        for _ in range(100):
            text = to_hex(encode_genetic(random_config(rng)))
            assert len(text) == 17
            assert int(text, 16) < (1 << 66)

    def test_hex_roundtrip(self):
        word = encode_genetic(NOP_CONFIG)
        assert from_hex(to_hex(word)) == word

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidCodeError, match="17"):
            from_hex("1234")

    def test_container_bits_must_be_zero(self):
        with pytest.raises(InvalidCodeError):
            from_hex("f" * 17)

    def test_format_config_lists_fields(self):
        text = format_config(NOP_CONFIG)
        assert "opcode        NOP" in text
        assert "width_mode    BIT" in text
