from collections import Counter

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


def parse(data: bytes, count: int, pos: int = 0, span: int | None = None) -> list[int]:
    """count codes from bit pos, found by the parser in ranges of span bits
    (or one range to the end): their starts must be the per-code reader's.
    Returns their values, read by the parser."""
    parser = CodeParser(data)
    bounds = [np.array([pos])]
    while sum(map(len, bounds)) <= count:
        at = int(bounds[-1][-1])
        more = parser.codes(at, at + span if span else parser.end + 1)[1:]
        if not len(more):  # refused: the reader raises below
            break
        bounds.append(more)
    bounds = np.concatenate(bounds)[:count + 1]
    reader = BitReader(data, pos)
    starts = []
    for _ in range(count):
        starts.append(reader.bit_pos)
        reader.read_ue()
    assert list(bounds) == starts + [reader.bit_pos]
    return [int(v) for v in parser.values(bounds)]


@pytest.mark.parametrize("lead", [0, 3, 7])
def test_parser_reads_what_the_per_code_reader_reads(lead):
    data = written(UE_BOUNDARIES, False, lead, False)
    assert parse(data, len(UE_BOUNDARIES) + 1, lead) == UE_BOUNDARIES + [5]


def test_parser_reads_across_windows():
    values = list(range(40000))  # ~1.1 Mbit: many parse ranges long
    assert parse(written(values, False, 0, True), len(values), span=1 << 12) == values


def codes_with_prefix(zeros: int) -> bytes:
    """A code of `zeros` zeros, then a one and `zeros` one bits, padded."""
    bits = "0" * zeros + "1" * (zeros + 1)
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def reader_error(data: bytes) -> str:
    with pytest.raises(BitstreamError) as exc:
        BitReader(data).read_ue()
    return str(exc.value)


def parser_error(data: bytes) -> str:
    """The error of the first code the parser refuses from bit 0."""
    parser = CodeParser(data)
    bounds = parser.codes(0, parser.end + 1)
    with pytest.raises(BitstreamError) as exc:
        parser.refuse(int(bounds[-1]))
    return str(exc.value)


def test_prefix_of_32_zeros_parses_and_33_raise():
    data = codes_with_prefix(MAX_PREFIX)
    assert parse(data, 1) == [BitReader(data).read_ue()] == [2 ** 33 - 2]
    data = codes_with_prefix(MAX_PREFIX + 1)
    assert list(CodeParser(data).codes(0, 1)) == [0]
    with pytest.raises(BitstreamError, match="prefix too long at bit 33") as exc:
        parse(data, 1)
    assert str(exc.value) == reader_error(data) == parser_error(data)


@pytest.mark.parametrize("data", [b"", b"\x00", b"\x00\x01", b"\x01", b"\x00\x00\x00\x07"])
def test_parser_overruns_like_the_per_code_reader(data):
    with pytest.raises(BitstreamError, match="overrun") as exc:
        parse(data, 1)
    assert str(exc.value) == reader_error(data) == parser_error(data)


def test_code_cut_short_by_the_data_overruns_at_its_value_bits():
    # 29 zeros, then the data ends 26 bits into the code's 30 value bits.
    assert reader_error(b"\x00\x00\x00\x07") == "bitstream overrun reading 29 bits at bit 30"


def serial_parse(data: bytes, pos: int, stop: int):
    """Code starts from pos by `BitReader`, up to the first at or past stop,
    then the error message if a code before stop does not read."""
    reader = BitReader(data, pos)
    starts = [pos]
    while starts[-1] < stop:
        try:
            reader.read_ue()
        except BitstreamError as exc:
            return starts, str(exc)
        starts.append(reader.bit_pos)
    return starts, None


def parser_parse(parser: CodeParser, pos: int, stop: int):
    """`serial_parse` by the parser."""
    bounds = parser.codes(pos, stop)
    if bounds[-1] >= stop:
        return list(bounds), None
    try:
        parser.refuse(int(bounds[-1]))
    except BitstreamError as exc:
        return list(bounds), str(exc)
    raise AssertionError("refuse did not raise")


@pytest.mark.parametrize("pos, stop", [(5, 5), (79, 79), (81, 200), (40, 7)])
def test_empty_range_parses_to_its_start(pos, stop):
    """A range with no bit before stop (or past the data) is the one code
    start pos, which `rejoin` from pos continues; past the data, the reader
    refuses it."""
    data = np.random.default_rng(16).integers(0, 256, 10, dtype=np.uint8).tobytes()
    parser = CodeParser(data)
    assert list(parser.codes(pos, stop)) == [pos]
    assert list(parser.rejoin(pos, parser.codes(pos, stop))) == [pos]
    assert parser_parse(parser, pos, stop) == serial_parse(data, pos, stop)


def test_parser_gives_every_position_what_the_per_code_reader_reads():
    rng = np.random.default_rng(11)
    data = bytearray(rng.integers(0, 256, 3000, dtype=np.uint8).tobytes())
    for at in (100, 1500, 2990):  # prefixes longer than MAX_PREFIX, one at the end
        data[at:at + 9] = bytes(9)
    data = bytes(data)
    parser = CodeParser(data)
    for pos in range(len(data) * 8 + 1):  # the code at every position
        assert parser_parse(parser, pos, pos + 1) == serial_parse(data, pos, pos + 1), pos
    for pos in range(0, len(data) * 8 + 1, 37):  # five chains from a sample of them
        stop = pos + 4 * bitstream._SEGMENT_BITS + 100
        assert parser_parse(parser, pos, stop) == serial_parse(data, pos, stop), pos


def test_parser_bridges_chains_that_never_meet():
    """After two 1-bit codes, 0101... parses as 010 1 010 1 ...: the true
    codes start 2 and 1 bits past a multiple of 4, every chain starts on a
    multiple of 4 and parses 1 010 1 010 ..., and the two never share a
    position. So the parse is read serially all the way."""
    data = bytes([0b11010101]) + bytes([0b01010101]) * 1000
    assert serial_parse(data, 0, 10)[0] == [0, 1, 2, 5, 6, 9, 10]
    parser = CodeParser(data)
    for pos, stop in ((0, 30 * bitstream._SEGMENT_BITS), (0, parser.end + 1), (5, 2000)):
        assert parser_parse(parser, pos, stop) == serial_parse(data, pos, stop)
    # Chains that start in step with the parse meet it at once.
    assert parser_parse(parser, 2, 7000) == serial_parse(data, 2, 7000)


def test_parser_steps_through_segments_denser_than_the_rest(monkeypatch):
    """A run of 1-bit codes (all-zero vectors, or empty blocks) packs 256
    codes into a segment where the codes around it pack about 40. Its chains
    step on, as every chain does, until all have crossed their ends, through
    the run or to the end of the data, so no serial read bridges them. From
    every start offset of a byte, in one range and in short ones, the parse
    is the per-code reader's. Ranges shorter than a segment have one chain,
    which runs on as every chain does."""
    walks = record_walks(monkeypatch)
    rng = np.random.default_rng(12)
    values = rng.integers(0, 60, 3600)
    values[1000:1900] = 0
    values[3000:] = 0
    for lead in range(8):
        data = written(values.tolist(), False, lead, True)
        parser = CodeParser(data)
        for pos in (lead, lead + 3, lead + 3100):
            want = serial_parse(data, pos, parser.end + 1)
            assert parser_parse(parser, pos, parser.end + 1) == want, (lead, pos)
            for span in (100, 255, 296):
                assert parse_in_ranges(parser, pos, parser.end + 1, span) == want, (lead, pos, span)
    assert not walks


def record_walks(monkeypatch) -> list:
    """Every `CodeParser._walk` from now on: ((bit_lengths, grid, after,
    stop), (bridge, chain, row))."""
    walks, walk = [], CodeParser._walk

    def recorded(self, *args):
        walks.append((args, walk(self, *args)))
        return walks[-1][1]

    monkeypatch.setattr(CodeParser, "_walk", recorded)
    return walks


def test_parser_bridges_a_chain_met_after_one_code(monkeypatch):
    """In the codes of 0..199 a chain's run-on stops one code short of a
    later chain's parse: the serial read meets that chain with its first
    code and bridges no position. Every walk, there, over runs of 1-bit
    codes and past chains that meet each other before the parse, from
    several starts, meets the lowest chain at the first position any later
    chain holds, or ends at stop or at a code the reader refuses."""
    walks = record_walks(monkeypatch)
    data = written(list(range(200)), False, 0, True)
    parser = CodeParser(data)
    assert parser_parse(parser, 0, parser.end + 1) == serial_parse(data, 0, parser.end + 1)
    assert any(not len(bridge) and chain >= 0 for _, (bridge, chain, _) in walks)
    rng = np.random.default_rng(14)
    values = rng.integers(0, 60, 3000)
    values[800:1500] = values[2200:2500] = 0
    # 0101... has two parses that never meet, through its bits 0 and 3 mod 4
    # and through bits 1 and 2. The parse enters it at bit 0 and the chains
    # that start in it at bit 2 (mod 4), so they join each other, not the
    # parse, and meet it together in the short codes after it.
    rng = np.random.default_rng(6)
    w = BitWriter()
    for v in rng.integers(0, 60, 30).tolist():
        w.write_ue(v)
    w.write_bits(int("0101" * 248, 2), 4 * 248)
    for v in rng.integers(0, 4, 200).tolist():
        w.write_ue(v)
    w.align()
    shared = 0  # meetings at a position that a higher chain holds too
    for data in (data, written(values.tolist(), False, 0, True), w.getvalue()):
        parser = CodeParser(data)
        for pos in range(0, 800, 7):
            for stop in (parser.end + 1, pos + 2000):
                del walks[:]
                assert parser_parse(parser, pos, stop) == serial_parse(data, pos, stop), pos
                for (_, grid, after, rel), (bridge, chain, row) in walks:
                    if chain >= 0:
                        met = grid[row, chain]
                        assert not (grid[:, after + 1:chain] == met).any(), (pos, stop)
                        assert not np.isin(bridge, grid[:, after + 1:]).any(), (pos, stop)
                        shared += (grid[:, chain + 1:] == met).any()
                    else:
                        end = int(bridge[-1]) if len(bridge) else int(grid[-1, after])
                        at = (pos & ~31) + end
                        assert end >= rel or serial_parse(data, at, at + 1)[1], (pos, stop)
    assert shared


def parse_in_ranges(parser: CodeParser, pos: int, stop: int, span: int):
    """`parser_parse` in ranges of span bits, each from the last code start
    the range before it gave."""
    starts = [pos]
    while starts[-1] < stop:
        more, error = parser_parse(parser, starts[-1], min(starts[-1] + span, stop))
        starts += more[1:]
        if error:
            return starts, error
    return starts, None


@pytest.mark.parametrize("tail, ends_there", [("0" * 33 + "1" * 34, True), ("0" * 20, True),
                                              ("0" * 29 + "1" + "0" * 10, False)],
                         ids=["long prefix", "cut prefix", "cut value"])
def test_parser_bridges_to_a_refused_code(monkeypatch, tail, ends_there):
    """After 600 random codes, the parse enters a stretch of 0101... 2 bits
    past a multiple of 4, so the chains that start in it, on multiples of 4,
    never meet it (see `test_parser_bridges_chains_that_never_meet`), and a
    serial read bridges the stretch to the code right after it, one the
    reader refuses: a prefix of 33 zeros, one cut off by the end of the
    data, or value bits cut off by it. The read ends at the code's start,
    or, where its one bit is in the data, steps over it to the end. In one
    range and in short ones the parse is the per-code reader's, error
    included."""
    walks = record_walks(monkeypatch)
    w = BitWriter()
    for v in np.random.default_rng(15).integers(0, 60, 600).tolist():
        w.write_ue(v)
    while w.bit_length % 4 != 2:
        w.write_ue(0)
    w.write_bits(int("0101" * 248, 2), 4 * 248)
    bad = w.bit_length
    w.write_bits(int(tail, 2), len(tail))
    w.align()
    data = w.getvalue()
    parser = CodeParser(data)
    want = serial_parse(data, 0, parser.end + 1)
    assert want[0][-1] == bad and want[1]
    assert parser_parse(parser, 0, parser.end + 1) == want
    assert parse_in_ranges(parser, 0, parser.end + 1, 296) == want
    walked = [(bridge, rel) for (_, _, _, rel), (bridge, chain, _) in walks
              if chain < 0 and bad in bridge]
    if ends_there:  # the read ends at the refused code's start, before stop
        assert any(bridge[-1] == bad < rel for bridge, rel in walked)
    else:  # its one bit gives it a length, and the read steps over it to stop
        assert any(bridge[-1] > bad and bridge[-1] >= rel for bridge, rel in walked)


def test_rejoined_parse_is_what_the_per_code_reader_reads():
    """A parse from bit 0 runs past every later code start. A serial read
    from any bit rejoins it, or gives up where it reads a code the reader
    refuses (inside the 64-zero runs between two codes of 2**32 - 1), the
    end of the parse or the end of the window first, and gives its start
    alone; what it rejoins is the per-code reader's parse from that bit.
    The parse it is handed stays as it was."""
    rng = np.random.default_rng(13)
    values = rng.integers(0, 300, 400)
    values[100:104] = values[250:251] = 2 ** 32 - 1
    data = written(values.tolist(), False, 0, True)
    parser = CodeParser(data)
    path = parser.codes(0, parser.end + 1)
    assert path[-1] > parser.end - 8  # the closing ue(5), then the padding, which overruns
    path.setflags(write=False)
    on_path = set(path.tolist())
    outcomes = Counter()
    for pos in range(0, parser.end + 1, 5):
        bounds = parser.rejoin(pos, path)
        starts, error = serial_parse(data, pos, int(path[-1]))
        if bounds[-1] != path[-1]:  # a rejoined parse ends where path does
            assert list(bounds) == [pos], pos
            met = [start for start in starts if start in on_path]
            assert not met or met[0] >= pos + bitstream._REJOIN_BITS, pos
            outcomes["refused" if error else "not rejoined"] += 1
        else:
            assert list(bounds) == starts and error is None, pos
            outcomes["rejoined"] += 1
    assert outcomes["rejoined"] > 0.9 * sum(outcomes.values()) and outcomes["refused"], outcomes


# --- the code length at every bit -------------------------------------------------


def zero_runs() -> bytes:
    """A run of every length from 8 to 33 zero bits, from every bit offset of
    a byte, each after one bits and closed by a one bit."""
    bits = ""
    for zeros in range(8, 34):
        for offset in range(8):
            bits += "1" * (-(len(bits) - offset) % 8) + "0" * zeros + "1"
    bits += "0" * (-len(bits) % 8)
    return int(bits, 2).to_bytes(len(bits) // 8, "big")


def filled_lengths(data: bytes, base: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """The length at every bit that a range of `CodeParser.codes` from base
    (a multiple of 32) to stop steps by, and `_lengths` at each of them."""
    parser = CodeParser(data)
    raw = parser._padded(base, stop)
    words = bitstream._words_of(raw)
    filled = np.empty(32 * len(words), np.uint8)
    bitstream._fill_lengths(raw, words, filled, parser.end - base)
    return filled, bitstream._lengths(words, np.arange(len(filled)))


def test_bit_lengths_match_the_word_gather_at_every_bit():
    rng = np.random.default_rng(21)
    noise = rng.integers(0, 256, 2000, dtype=np.uint8)
    sparse = noise * (rng.random(2000) < 0.15)
    cases = {
        "random": noise.tobytes(),
        "zero-heavy": sparse.astype(np.uint8).tobytes(),
        "zero runs": zero_runs(),
        # 29 zeros, a one, then the data ends 26 bits into the value bits.
        "ends mid-code": noise[:100].tobytes() + b"\x00\x00\x00\x07",
        "zero": bytes(40),
        # Every 12-bit window of the byte table, from every bit of a byte.
        "byte pairs": b"".join(bytes([a, b]) for a in range(256) for b in range(256)),
    }
    for name, data in cases.items():
        end = 8 * len(data)
        for base in sorted({0, 32, 96, end // 2 & ~31, max(end - 64, 0) & ~31, end & ~31}):
            for stop in (base + 1, base + 300, end, end + 1000):
                filled, want = filled_lengths(data, base, stop)
                assert np.array_equal(filled, want), (name, base, stop)


def test_parse_through_long_zero_prefixes_is_the_per_code_readers():
    """Codes of 9 to 32 leading zeros, each from every bit offset of a byte
    (1-bit codes between them set the offset): from bit o of a byte, a code
    of 12 - o zeros or more has no one bit in the byte table's view, and
    the parse, in one range and in short ones, is the per-code reader's
    code by code."""
    rng = np.random.default_rng(22)
    values, at, seen = [], 0, set()
    for zeros in range(9, MAX_PREFIX + 1):
        for offset in range(8):
            gap = (offset - at) % 8
            values += [0] * gap
            value = int(rng.integers(2 ** zeros, 2 ** (zeros + 1))) - 1
            seen.add((zeros, (at + gap) % 8))
            values.append(value)
            at += gap + 2 * zeros + 1
    assert seen == {(z, o) for z in range(9, MAX_PREFIX + 1) for o in range(8)}
    data = written(values, False, 0, True)
    assert parse(data, len(values)) == values
    assert parse(data, len(values), span=bitstream._SEGMENT_BITS + 40) == values
