import numpy as np
import pytest
from hypothesis import given, strategies as st

from flowcodec import bitstream
from flowcodec.bitstream import (
    MAX_PREFIX,
    BitReader,
    BitstreamError,
    BitWriter,
    CodeParser,
    se_bits,
    se_bits_array,
    se_to_ue,
    se_to_ue_array,
    ue_bits,
    ue_pack,
    ue_to_se,
    ue_to_se_array,
)


def code_bits(write, value) -> str:
    w = BitWriter()
    write(w, value)
    n = w.bit_length
    w.align()
    return "".join(f"{b:08b}" for b in w.getvalue())[:n]


# Classic exp-Golomb codewords.
UE_TABLE = {0: "1", 1: "010", 2: "011", 3: "00100", 4: "00101", 5: "00110",
            6: "00111", 7: "0001000", 8: "0001001"}
SE_TABLE = {0: "1", 1: "010", -1: "011", 2: "00100", -2: "00101", 3: "00110",
            -3: "00111", 4: "0001000"}


def test_unsigned_codewords():
    for value, code in UE_TABLE.items():
        assert code_bits(BitWriter.write_ue, value) == code


def test_signed_codewords():
    for value, code in SE_TABLE.items():
        assert code_bits(BitWriter.write_se, value) == code


def test_bit_lengths_match_writer():
    for v in range(0, 2000):
        assert ue_bits(v) == len(code_bits(BitWriter.write_ue, v))
    for v in range(-300, 300):
        assert se_bits(v) == len(code_bits(BitWriter.write_se, v))


def test_signed_mapping_roundtrip():
    for v in range(-1000, 1001):
        assert ue_to_se(se_to_ue(v)) == v


@given(st.lists(st.integers(0, 10**6)))
def test_ue_roundtrip(values):
    w = BitWriter()
    for v in values:
        w.write_ue(v)
    w.align()
    r = BitReader(w.getvalue())
    assert [r.read_ue() for _ in values] == values


@given(st.lists(st.integers(-10**6, 10**6)))
def test_se_roundtrip(values):
    w = BitWriter()
    for v in values:
        w.write_se(v)
    w.align()
    r = BitReader(w.getvalue())
    assert [r.read_se() for _ in values] == values


def test_write_bits_and_read_bits():
    w = BitWriter()
    w.write_bits(0b101, 3)
    w.write_bits(0, 2)
    w.write_bits(0x7FF, 11)
    pad = w.align()
    assert pad == 0  # 16 bits already aligned
    r = BitReader(w.getvalue())
    assert r.read_bits(3) == 0b101
    assert r.read_bits(2) == 0
    assert r.read_bits(11) == 0x7FF


def test_align_pads_with_zeros():
    w = BitWriter()
    w.write_bits(1, 1)
    assert w.align() == 7
    assert w.getvalue() == b"\x80"


def test_getvalue_requires_alignment():
    w = BitWriter()
    w.write_bits(1, 3)
    with pytest.raises(ValueError):
        w.getvalue()


def test_write_bits_validates():
    w = BitWriter()
    with pytest.raises(ValueError):
        w.write_bits(4, 2)
    with pytest.raises(ValueError):
        w.write_bits(-1, 4)


def test_reader_overrun_reports_position():
    r = BitReader(b"\x00")
    r.read_bits(8)
    with pytest.raises(BitstreamError, match="bit 8"):
        r.read_bits(1)


def test_reader_bytes_need_alignment():
    r = BitReader(b"\xff\x00")
    r.read_bits(3)
    with pytest.raises(BitstreamError):
        r.read_bytes(1)
    r.align()
    assert r.read_bytes(1) == b"\x00"


def test_interleaved_bytes_and_codes():
    w = BitWriter()
    w.write_bytes(b"AB")
    w.write_se(-7)
    w.write_ue(3)
    w.align()
    data = w.getvalue()
    r = BitReader(data)
    assert r.read_bytes(2) == b"AB"
    assert r.read_se() == -7
    assert r.read_ue() == 3


# --- whole arrays of codes --------------------------------------------------------

# 2**k - 1 and 2**k for every k up to the longest code (MAX_PREFIX = 32
# zeros): the boundaries where a code gains two bits.
UE_BOUNDARIES = sorted({0, 2 ** 33 - 2} | {2 ** k + d for k in range(1, 33) for d in (-1, 0)})
SE_BOUNDARIES = [0, 1, -1, 2 ** 31 - 1, -(2 ** 31 - 1), -(2 ** 31), 2 ** 31,
                 2 ** 32 - 1, -(2 ** 32 - 1)]


def joined(lead: int, *packs: tuple[int, int]) -> bytes:
    """lead zero bits, then each `ue_pack` (bits, length) in turn, zero padded
    to a byte."""
    bits, length = 0, lead
    for more, count in packs:
        assert more >> count == 0
        bits, length = bits << count | more, length + count
    pad = -length % 8
    return (bits << pad).to_bytes((length + pad) // 8, "big")


def written(values, signed: bool, lead: int, by_array: bool) -> bytes:
    """values coded after lead zero bits, then a closing ue(5) and padding:
    by `ue_pack`, or by `BitWriter`."""
    if by_array:
        codes = se_to_ue_array(values) if signed else np.array(values, np.uint64)
        packed = ue_pack(codes)
        assert packed[1] == sum(map(se_bits if signed else ue_bits, values))
        return joined(lead, packed, ue_pack([5]))
    w = BitWriter()
    w.write_bits(0, lead)
    for v in values:
        (w.write_se if signed else w.write_ue)(v)
    w.write_ue(5)
    w.align()
    return w.getvalue()


@pytest.mark.parametrize("lead", range(8))
def test_array_writer_matches_per_code_writer_on_boundaries(lead):
    assert written(UE_BOUNDARIES, False, lead, True) == written(UE_BOUNDARIES, False, lead, False)
    assert written(SE_BOUNDARIES, True, lead, True) == written(SE_BOUNDARIES, True, lead, False)


def test_array_writer_matches_per_code_writer_on_random_arrays():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(0, 300))
        scale = 2 ** int(rng.integers(1, MAX_PREFIX + 1))
        ue = [int(v) for v in rng.integers(0, 2 * scale - 1, n, dtype=np.uint64)]
        se = [int(v) for v in rng.integers(1 - scale, scale, n)]
        lead = trial % 8
        assert written(ue, False, lead, True) == written(ue, False, lead, False)
        assert written(se, True, lead, True) == written(se, True, lead, False)


def test_array_coder_refuses_codes_longer_than_the_reader_takes():
    assert ue_pack([2 ** 33 - 2]) == (2 ** 33 - 1, 2 * MAX_PREFIX + 1)
    for values in ([2 ** 33 - 1], [0, 2 ** 64 - 1], np.array([-1], np.int64)):
        with pytest.raises(ValueError, match="longer than 32 zeros"):
            ue_pack(values)


def test_array_coder_packs_nothing_to_no_bits():
    assert ue_pack([]) == ue_pack(np.zeros(0, np.uint64)) == (0, 0)


@pytest.mark.parametrize("offset", range(64))
def test_longest_code_straddles_every_word_boundary(offset):
    """The 65-bit code of 2**33 - 2 from every bit offset of a 64-bit word,
    between one-bit codes. It always spans two words; from offsets 0-31 its
    33 value bits also cross the boundary."""
    values = [0] * offset + [2 ** 33 - 2] + [0] * 70
    w = BitWriter()
    for v in values:
        w.write_ue(v)
    w.align()
    assert joined(0, ue_pack(values)) == w.getvalue()


def test_array_sign_mappings_match_scalar_ones():
    assert [int(v) for v in se_to_ue_array(SE_BOUNDARIES)] == [se_to_ue(v) for v in SE_BOUNDARIES]
    codes = np.array(UE_BOUNDARIES, np.uint64)
    assert [int(v) for v in ue_to_se_array(codes)] == [ue_to_se(v) for v in UE_BOUNDARIES]


def test_array_se_bits_match_scalar_ones():
    # Every bit length from 0 to 53 bits, on both sides of each power of two.
    values = sorted({v for k in range(54) for d in (-1, 0, 1) for v in (2 ** k + d, -(2 ** k + d))
                     if abs(v) < 2 ** 53} | set(SE_BOUNDARIES) | set(range(-300, 301)))
    got = se_bits_array(np.array(values, np.int64).reshape(-1, 1))
    assert got.shape == (len(values), 1)
    assert [int(b) for b in got.ravel()] == [se_bits(v) for v in values]


def parse(data: bytes, count: int, pos: int = 0) -> list[int]:
    """count codes from bit pos: their starts from the per-code reader, their
    prefixes and values from the parser's gather."""
    reader = BitReader(data, pos)
    starts = []
    for _ in range(count):
        starts.append(reader.bit_pos)
        reader.read_ue()
    starts = np.array(starts, np.int64)
    parser = CodeParser(data)
    zeros = parser.prefixes(starts)
    assert list(2 * zeros[:-1] + 1) == list(np.diff(starts))
    return [int(v) for v in parser.values(starts, zeros)]


@pytest.mark.parametrize("lead", [0, 3, 7])
def test_parser_reads_what_the_per_code_reader_reads(lead):
    data = written(UE_BOUNDARIES, False, lead, False)
    assert parse(data, len(UE_BOUNDARIES) + 1, lead) == UE_BOUNDARIES + [5]


def test_parser_reads_across_windows():
    values = list(range(40000))  # ~1.1 Mbit: many parse windows long
    assert parse(written(values, False, 0, True), len(values)) == values


def codes_with_prefix(zeros: int) -> bytes:
    """A code of `zeros` zeros, then a one and `zeros` one bits, padded."""
    bits = "0" * zeros + "1" * (zeros + 1)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def reader_error(data: bytes) -> str:
    with pytest.raises(BitstreamError) as exc:
        BitReader(data).read_ue()
    return str(exc.value)


def pair_table_error(data: bytes) -> str:
    with pytest.raises(BitstreamError) as exc:
        CodeParser(data).pairs(0)
    return str(exc.value)


def test_prefix_of_32_zeros_parses_and_33_raise():
    data = codes_with_prefix(MAX_PREFIX)
    assert parse(data, 1) == [BitReader(data).read_ue()] == [2 ** 33 - 2]
    data = codes_with_prefix(MAX_PREFIX + 1)
    with pytest.raises(BitstreamError, match="prefix too long at bit 33") as exc:
        parse(data, 1)
    assert str(exc.value) == reader_error(data) == pair_table_error(data)


@pytest.mark.parametrize("data", [b"", b"\x00", b"\x00\x01", b"\x01", b"\x00\x00\x00\x07"])
def test_parser_overruns_like_the_per_code_reader(data):
    with pytest.raises(BitstreamError, match="overrun") as exc:
        parse(data, 1)
    assert str(exc.value) == reader_error(data) == pair_table_error(data)


def test_code_cut_short_by_the_data_overruns_at_its_value_bits():
    # 29 zeros, then the data ends 26 bits into the code's 30 value bits.
    assert reader_error(b"\x00\x00\x00\x07") == "bitstream overrun reading 29 bits at bit 30"


def read_length(data: bytes, pos: int):
    """Bits that read_ue takes from pos and, unless that code is one bit,
    the code after it, or the message it raises."""
    reader = BitReader(data, pos)
    try:
        reader.read_ue()
        if reader.bit_pos - pos > 1:
            reader.read_ue()
    except BitstreamError as exc:
        return str(exc)
    return reader.bit_pos - pos


def test_pair_table_gives_every_position_what_the_per_code_reader_reads():
    rng = np.random.default_rng(11)
    data = bytearray(rng.integers(0, 256, 3000, dtype=np.uint8).tobytes())
    for at in (100, 1500, 2990):  # prefixes longer than MAX_PREFIX, one at the end
        data[at:at + 9] = bytes(9)
    data = bytes(data)
    assert len(data) * 8 > bitstream._WINDOW_BITS  # windows that end before the data
    parser = CodeParser(data)
    for pos in range(len(data) * 8 + 1):
        try:
            base, table = parser.pairs(pos)
            got = table[pos - base]
        except BitstreamError as exc:
            got = str(exc)
        assert got == read_length(data, pos), pos
