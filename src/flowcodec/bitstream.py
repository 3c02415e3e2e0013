"""MSB-first bit packing with exponential-Golomb codes (ITU-T H.264 §9.1).

Unsigned values v map to the codeword 0^(n-1) ++ bin(v+1) where
n = bitlength(v+1).  Signed values use the alternating mapping
s > 0 -> 2s-1, s <= 0 -> -2s, so 0 costs a single bit.

A code has at most `MAX_PREFIX` = 32 zeros, the longest an FCL1 stream
holds: a level is an int32 (se value at most 2**32), a run is below 64, and
a vector difference, an int32 vector minus an int32 median predictor, has
size at most 2**32 - 1, whose se value 2**33 - 2 takes exactly 32 zeros.

`BitWriter` and `BitReader` write and read one field at a time. Whole arrays
of codes go through numpy, with the same bits:

- Pack: `pack_fields` adds fields of at most 64 value bits, each ending at
  a given bit, straight into big-endian uint64 words, with no array of one
  entry per bit, and returns the words as one Python int. A field may hold
  several codes. `ue_pack` packs one code per field: it computes every code
  length from the values, refuses a value whose code is longer than a
  reader takes, and returns the int and its bit length, which the caller
  appends with `acc << length | bits`.
- Parse: `CodeParser.codes` finds where the codes of a bit range start,
  with no Python step per code. It first sets the length of the code at
  every bit of the range, once: by a byte table (`_BYTE_LENGTHS`) indexed
  by the 12 bits from each byte's first, and where the table gives 0 (the
  bits in view hold no one bit), by a word gather: the 64 bits from the
  code's first bit, of which the top 53 convert exactly to float64, whose
  exponent counts the leading zeros. The range is cut into segments of
  `_SEGMENT_BITS` bits and a chain of codes starts at the first bit of
  each; all chains step together, one code per numpy row (one lookup and
  one add), `_RUN_ON` rows between checks, until a check finds that every
  one has crossed its segment's end, and then `_RUN_ON` rows more. Only
  the first chain is known to start on a code, but exp-Golomb is a prefix
  code: a parse begun at a wrong bit falls into step with the true one
  within a few codes (Klein and Wiseman, Comput. J. 46(5), 2003), and two
  parses that share one position agree from there on. Where a chain's last
  position is also one of the next chain's, the parse continues in the next
  chain; where it is not, a serial read over the same lengths, one code per
  Python step, bridges to the first position a later chain reached.
  `CodeParser.values` then reads the values of all codes at once, with the
  word gather. The codec parses every code of a stream's payload this way,
  vector differences and run-level codes alike, in ranges that run on past
  a frame's end: `CodeParser.rejoin`, handed that parse's bounds, reads the
  next frame's first codes serially until they meet it, and it goes on as
  the frame's. The parser keeps no parse between calls.

A malformed code (a prefix of more than `MAX_PREFIX` zeros, or a code that
runs past the end of the data) ends the parse at its start, and
`CodeParser.refuse` raises its error from `BitReader.read_ue` itself.
"""
from __future__ import annotations

from array import array
from typing import NoReturn

import numpy as np

MAX_PREFIX = 32     # longest zero prefix a reader accepts: values up to 2**33 - 2


class BitstreamError(ValueError):
    """Malformed or exhausted bitstream."""


def se_to_ue(value: int) -> int:
    return 2 * value - 1 if value > 0 else -2 * value


def ue_to_se(value: int) -> int:
    return (value + 1) // 2 if value % 2 else -(value // 2)


def ue_bits(value: int) -> int:
    """Code length in bits of an unsigned exp-Golomb value."""
    if value < 0:
        raise ValueError("unsigned exp-Golomb value must be >= 0")
    return 2 * (value + 1).bit_length() - 1


def se_bits(value: int) -> int:
    """Code length in bits of a signed exp-Golomb value."""
    return ue_bits(se_to_ue(value))


def se_bits_array(values) -> np.ndarray:
    """`se_bits` of an integer array (|value| < 2**53). s codes as ue(2s - 1)
    for s > 0 and ue(-2s) otherwise; either ue value plus one has exactly one
    bit more than |s|, so the length 2 * bitlength(ue + 1) - 1 is
    2 * bitlength(|s|) + 1."""
    return 2 * np.frexp(np.abs(values))[1] + 1  # bit lengths, exact below 2**53


def se_to_ue_array(values) -> np.ndarray:
    """`se_to_ue` of an integer array (|value| < 2**32 to be codable), as uint64."""
    values = np.asarray(values, np.int64)
    return (2 * np.abs(values) - (values > 0)).view(np.uint64)


def ue_to_se_array(codes: np.ndarray) -> np.ndarray:
    """`ue_to_se` of a uint64 or int64 array (each value at most 2**33 - 2),
    as int64, with no branch. An odd v maps to (v >> 1) + 1 and an even v
    to -(v >> 1), which is ~(v >> 1) + 1; (v & 1) - 1 is 0 for odd v and
    all ones for even v, so the value is (v >> 1 ^ (v & 1) - 1) + 1."""
    codes = codes.view(np.int64)
    values = codes >> 1
    values ^= (codes & 1) - 1
    values += 1
    return values


def ue_pack(values) -> tuple[int, int]:
    """The exp-Golomb codes of an array of unsigned values, concatenated MSB
    first: (bits, length), with bits an int of at most length bits. Raises
    ValueError on a value above 2**33 - 2, whose code a reader refuses.
    Each code is one `pack_fields` field: its value v + 1, of at most 33
    bits, ending at the code's last bit."""
    values = np.asarray(values, np.uint64)
    if (values > (1 << (MAX_PREFIX + 1)) - 2).any():
        raise ValueError(f"exp-Golomb code longer than {MAX_PREFIX} zeros: {values.max()}")
    if not values.size:
        return 0, 0
    coded = values + np.uint64(1)
    widths = (coded.astype(np.float64).view(np.int64) >> 52) - 1022  # bit lengths, exact
    last = np.cumsum(2 * widths - 1)  # each code's end
    last -= 1  # and its last bit
    length = int(last[-1]) + 1
    return pack_fields(length, (coded, widths, last)), length


def pack_fields(length: int, *groups: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int:
    """The length-bit int, MSB first, that is zero but for the fields of the
    groups. A group is (fields, widths, last): uint64 fields of widths[i]
    value bits (int64, at most 64), the i-th ending at bit last[i] (int64,
    ascending). No two fields of any groups overlap.

    A group's fields go straight into big-endian uint64 words. A field that
    ends at bit e lands in word e // 64 shifted left by 63 - e % 64, and what
    that shift drops lands in the word before. Fields never overlap, so a
    word is the wrapping sum of the parts that land in it: a difference of
    the running sum at the last field of the group that ends in each word,
    plus one OR for the field that crosses its end."""
    words = np.zeros(-(-length // 64), np.uint64)
    for fields, widths, last in groups:
        if not len(fields):
            continue
        word, bit = last >> 6, last & 63
        running = np.cumsum(fields << (63 - bit).view(np.uint64))  # wraps: dropped bits go below
        ends = np.append(np.flatnonzero(word[:-1] != word[1:]), len(word) - 1)  # each word's last
        at, sums = word[ends], running[ends]
        words[at] += sums
        words[at[1:]] -= sums[:-1]
        cross = np.flatnonzero(widths > bit + 1)
        words[word[cross] - 1] |= fields[cross] >> (bit[cross] + 1).view(np.uint64)
    return int.from_bytes(words.astype(">u8").tobytes(), "big") >> (64 * len(words) - length)


class BitWriter:
    """Accumulates bits MSB-first into a growable byte buffer."""

    def __init__(self):
        self._bytes = bytearray()
        self._acc = 0
        self._nbits = 0

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._nbits

    def write_bits(self, value: int, count: int) -> None:
        if count < 0 or value < 0 or value.bit_length() > count:
            raise ValueError(f"cannot write {value} in {count} bits")
        self._acc = (self._acc << count) | value
        self._nbits += count
        while self._nbits >= 8:
            self._nbits -= 8
            self._bytes.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_ue(self, value: int) -> None:
        n = (value + 1).bit_length()
        self.write_bits(value + 1, 2 * n - 1)

    def write_se(self, value: int) -> None:
        self.write_ue(se_to_ue(value))

    def align(self) -> int:
        """Pad with zero bits to the next byte boundary; returns pad size."""
        pad = (8 - self._nbits) % 8
        if pad:
            self.write_bits(0, pad)
        return pad

    def write_bytes(self, data: bytes) -> None:
        if self._nbits:
            raise ValueError("write_bytes requires byte alignment")
        self._bytes += data

    def getvalue(self) -> bytes:
        if self._nbits:
            raise ValueError("bitstream not byte aligned; call align() first")
        return bytes(self._bytes)


class BitReader:
    """Reads bits MSB-first from a bytes object, with position reporting."""

    def __init__(self, data: bytes, bit_pos: int = 0):
        self._data = data
        self._pos = bit_pos
        self._end = len(data) * 8

    @property
    def bit_pos(self) -> int:
        return self._pos

    def read_bits(self, count: int) -> int:
        if count < 0 or self._pos + count > self._end:
            raise BitstreamError(f"bitstream overrun reading {count} bits at bit {self._pos}")
        if count == 0:
            return 0
        start = self._pos >> 3
        stop = (self._pos + count + 7) >> 3
        chunk = int.from_bytes(self._data[start:stop], "big")
        shift = stop * 8 - self._pos - count
        self._pos += count
        return (chunk >> shift) & ((1 << count) - 1)

    def read_ue(self) -> int:
        """Read one unsigned code; one `int.bit_length` over the next 9
        bytes finds its zero prefix."""
        pos = self._pos
        if pos >= self._end:
            raise BitstreamError(f"bitstream overrun at bit {pos}")
        chunk = self._data[pos >> 3:(pos >> 3) + 9]
        avail = 8 * len(chunk) - (pos & 7)  # room for a whole code unless the data ends
        head = int.from_bytes(chunk, "big") & ((1 << avail) - 1)
        zeros = avail - head.bit_length()
        if zeros > MAX_PREFIX:
            raise BitstreamError(f"exp-Golomb prefix too long at bit {pos + MAX_PREFIX + 1}")
        if not head:
            raise BitstreamError(f"bitstream overrun at bit {self._end}")
        length = 2 * zeros + 1
        if length > avail:
            raise BitstreamError(f"bitstream overrun reading {zeros} bits at bit {pos + zeros + 1}")
        self._pos = pos + length
        return (head >> (avail - length)) - 1

    def read_se(self) -> int:
        return ue_to_se(self.read_ue())

    def align(self) -> None:
        self._pos += (8 - (self._pos & 7)) % 8

    def read_bytes(self, count: int) -> bytes:
        if self._pos & 7:
            raise BitstreamError(f"read_bytes requires byte alignment (bit {self._pos})")
        start = self._pos >> 3
        if (start + count) * 8 > self._end:
            raise BitstreamError(f"bitstream overrun reading {count} bytes at bit {self._pos}")
        self._pos += count * 8
        return self._data[start:start + count]


class CodeParser:
    """Finds the exp-Golomb codes of a byte string from a known code start,
    chains of codes in lockstep (`codes`, `_follow`) and serial reads
    between them (`_walk`), and reads their values, with numpy. It keeps
    nothing between calls: `rejoin` continues the bounds it is handed."""

    def __init__(self, data: bytes):
        self.end = len(data) * 8
        self._data = bytes(data)

    def codes(self, pos: int, stop: int) -> np.ndarray:
        """The bounds of the codes of the parse that starts at bit pos (a
        code start), up to the first code that starts at or past stop: code
        i spans bounds[i]:bounds[i + 1] (int64). The parse stops early at a
        code that `BitReader.read_ue` refuses; then bounds[-1] < stop is its
        start (bounds is [pos] when it is the first, and where pos is past
        the data or at or past stop), and `refuse` raises its error there.

        The length of the code at every bit the range's words cover is set
        once (`_fill_lengths`), in the tail of the one buffer that holds
        the grid of chain positions (int64, from the base), so each chain
        step is one `take` from it and one add, and each bridge reads it.
        The chains step `_RUN_ON` rows after every check that all have
        crossed their segments' ends, and the rows after the first check
        that finds so are their run-on, to meet the next chain."""
        stop = min(stop, self.end + 1)  # a code at the end is always refused
        if pos >= stop:
            return np.array([pos], np.int64)
        base = pos & ~31
        raw = self._padded(base, stop + _READ_PAST)
        words = _words_of(raw)
        rel = stop - base
        firsts = np.arange(pos - base, rel, _SEGMENT_BITS)
        ends = np.append(firsts[1:], rel)
        # One allocation per range holds the grid's rows, then the uint8
        # length of the code at every bit the words cover. As two arrays,
        # QCIF decodes repeated in one process page-fault on every range.
        count = 32 * len(words)
        buffer = np.empty((_MAX_ROWS + -(-count // (8 * len(firsts))), len(firsts)), np.int64)
        grid = buffer[:_MAX_ROWS]
        bit_lengths = buffer[_MAX_ROWS:].view(np.uint8).reshape(-1)[:count]
        _fill_lengths(raw, words, bit_lengths, self.end - base)
        grid[0] = at = firsts
        row, crossed = 0, False
        while not crossed:
            crossed = np.count_nonzero(at >= ends) == len(at)
            for row in range(row + 1, row + 1 + _RUN_ON):
                np.add(at, bit_lengths.take(at), out=grid[row])
                at = grid[row]
        path = self._follow(grid[:row + 1], bit_lengths, rel)
        bounds = path[:np.searchsorted(path, rel) + 1]
        lengths = np.diff(bounds)
        if lengths.max(initial=1) > 2 * MAX_PREFIX + 1 or bounds[-1] > self.end - base:
            bad = np.flatnonzero((lengths > 2 * MAX_PREFIX + 1) | (bounds[1:] > self.end - base))
            bounds = bounds[:bad[0] + 1]
        return bounds + base

    def values(self, bounds: np.ndarray) -> np.ndarray:
        """uint64 values of the valid codes that span bounds[i]:bounds[i + 1]
        (int64), with one word gather each."""
        base = int(bounds[0]) & ~31
        words = self._words(base, int(bounds[-1]))
        zeros = np.diff(bounds) >> 1
        lead = bounds[:-1] - base + zeros  # the one bit, then zeros value bits
        top = words.take(lead >> 5) << (lead & 31).view(np.uint64)
        return (top >> (63 - zeros).view(np.uint64)) - 1

    def refuse(self, pos: int) -> NoReturn:
        """Raise the `BitstreamError` that `BitReader.read_ue` raises for
        the code at pos, one that `codes` refused."""
        BitReader(self._data, pos).read_ue()
        raise AssertionError(f"the reader accepts the code at bit {pos}")

    def rejoin(self, pos: int, path: np.ndarray) -> np.ndarray:
        """The bounds of the parse from bit pos (a code start) that continues
        path, bounds that `codes` gave: the code starts read serially from
        pos up to the first of path's positions, then path's from there on,
        since two parses that share a position agree after it. Just [pos]
        where the read reaches a code that `BitReader.read_ue` refuses,
        path's last position or `_REJOIN_BITS` bits past pos first. The code
        lengths come from a table of the length at every bit of that window."""
        if not len(path) or path[-1] < pos:
            return np.array([pos], np.int64)
        stop = min(pos + _REJOIN_BITS, int(path[-1]) + 1)
        base = pos & ~31
        lengths = _lengths(self._words(base, stop), np.arange(pos - base, stop - base)).tolist()
        marks = set(path[np.searchsorted(path, pos):np.searchsorted(path, stop)].tolist())
        read = array("q")
        y = pos
        while y < stop and y not in marks and lengths[y - pos] != _LONGEST:
            read.append(y)
            y += lengths[y - pos]
        if y not in marks:
            return np.array([pos], np.int64)
        return np.concatenate([np.array(read, np.int64), path[np.searchsorted(path, y):]])

    def _padded(self, base: int, stop: int) -> bytes:
        """The data from bit base (a multiple of 32) until 64 bits past bit
        stop, in whole 32-bit halves; zero past the end."""
        size = 4 * ((stop - base >> 5) + 3)
        chunk = self._data[base >> 3:(base >> 3) + size]
        return chunk + bytes(size - len(chunk))

    def _words(self, base: int, stop: int) -> np.ndarray:
        """The 64 bits from every 32nd bit of the data, from bit base (a
        multiple of 32) until past bit stop, as uint64; zero past the end."""
        return _words_of(self._padded(base, stop))

    def _follow(self, grid: np.ndarray, bit_lengths: np.ndarray, stop: int) -> np.ndarray:
        """The positions of the true parse through the chains of grid
        (rows x chains, bits from the range's base) and the serial reads
        (`_walk`) that bridge them, in order, up to one at or past stop."""
        depth, count = grid.shape
        last = grid[-1]
        # The row where each chain's last position would sit in the next one.
        into = (grid[:, 1:] < last[:-1]).sum(0)
        # Past the next chain's rows, its last row is below: no join there.
        joins = np.append(grid[np.minimum(into, depth - 1), np.arange(1, count)] == last[:-1], False)
        breaks = np.flatnonzero(~joins)  # includes the last chain
        first = np.append(0, into)  # the row each chain is entered at
        taken = np.where(joins, depth - 1, depth)  # and the row it is left at
        bridges = []
        entered = np.zeros(count, bool)
        chain, row = 0, 0
        while True:
            first[chain] = row
            end = int(breaks[np.searchsorted(breaks, chain)])
            entered[chain:end + 1] = True
            if last[end] >= stop:
                break
            bridge, chain, row = self._walk(bit_lengths, grid, end, stop)
            if len(bridge):  # a walk can meet a chain after one code
                bridges.append(bridge)
            if chain < 0:
                break
        counts = np.where(entered, taken - first, 0)
        total = int(counts.sum())
        # Chain c contributes grid[first[c]:taken[c], c], in chain order.
        offset = np.cumsum(counts) - counts
        flat = np.repeat(np.arange(count) + count * (first - offset), counts)
        flat += count * np.arange(total)
        path = grid.ravel().take(flat)
        if bridges:
            places = np.searchsorted(path, [bridge[0] for bridge in bridges])
            pieces = np.split(path, places)
            path = np.concatenate([pieces[0], *(x for pair in zip(bridges, pieces[1:]) for x in pair)])
        return path

    def _walk(self, bit_lengths: np.ndarray, grid: np.ndarray, after: int,
              stop: int) -> tuple[np.ndarray, int, int]:
        """Read codes serially, one per Python step, by bit_lengths, from the
        last position of chain after to the first that a later chain reached:
        (the positions read before it, the lowest such chain, its row there).
        Reading on to a position at or past stop, or to a code that `read_ue`
        refuses, gives (the positions read, that one included, -1, -1)."""
        lengths = memoryview(bit_lengths)
        firsts = range(int(grid[0, 0]), stop, _SEGMENT_BITS)  # grid[0], as `codes` lays it out
        y = int(grid[-1, after])
        read = array("q")  # the position after each code read
        later, chain = {}, after + 1  # {position: (chain, row)}, lowest chain first
        while lengths[y] != _LONGEST:
            y += lengths[y]
            read.append(y)
            if y >= stop:
                break
            while chain < len(firsts) and firsts[chain] <= y:
                for row, position in enumerate(grid[:, chain].tolist()):
                    later.setdefault(position, (chain, row))
                chain += 1
            if y in later:
                return np.array(read[:-1], np.int64), *later[y]
        return np.array(read, np.int64), -1, -1


# Bits per chain, and rows stepped between the checks that every chain has
# crossed the end of its segment, so also the rows run on after them.
_SEGMENT_BITS = 256
_RUN_ON = 16
_MAX_ROWS = 273  # the grid's rows: the most that `codes` steps, and row 0
# Every code is a bit or more, so a chain crosses its end within
# _SEGMENT_BITS rows; the next check sees it, and _RUN_ON rows follow.
assert _MAX_ROWS == -(-_SEGMENT_BITS // _RUN_ON) * _RUN_ON + _RUN_ON + 1
# The window of a rejoin: the frames of the benchmark's streams (seeds 1-3)
# rejoin within 49 codes and 401 bits of their first code.
_REJOIN_BITS = 1 << 10


def _lengths(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Length of the code that starts at each bit of at (int64, from the
    words' base); `_LONGEST`, which no code has, where more than
    `MAX_PREFIX` zeros lead. The 53 bits from each position hold the one bit
    of any valid code, and their float64 exponent is their bit length,
    exactly."""
    top = words.take(at >> 5)
    top <<= (at & 31).view(np.uint64)
    top >>= _ELEVEN
    return _CODE_LENGTHS.take(top.astype(np.float64).view(np.int64) >> 52)


def _words_of(raw: bytes) -> np.ndarray:
    """The 64 bits from every 32nd bit of raw (whole 32-bit halves), as
    uint64, but for the last 32."""
    halves = np.frombuffer(raw, ">u4").astype(np.uint64)
    return halves[:-1] << np.uint64(32) | halves[1:]


def _fill_lengths(raw: bytes, words: np.ndarray, out: np.ndarray, end: int) -> None:
    """Set out (uint8) to `_lengths` at each of its bits, from bit 0 of raw,
    whose words are words, and whose data ends at bit end: `_BYTE_LENGTHS`
    of each byte's window, then, at the bits of the data where that is 0
    (the window holds no one bit), `_lengths`, and `_LONGEST` from end on,
    where only zeros follow."""
    # Byte k's window, b[k] << 4 | b[k + 1] >> 4, from big-endian pairs at
    # every byte.
    windows = np.ndarray(len(out) // 8, ">u2", raw, strides=(1,)) >> 4
    _BYTE_LENGTHS.take(windows, axis=0, out=out.reshape(-1, 8), mode="clip")
    end = max(end, 0)
    bits = np.flatnonzero(out[:end] == 0)
    out[bits] = _lengths(words, bits)
    out[end:] = _LONGEST


_ELEVEN = np.uint64(11)
_LONGEST = 2 * MAX_PREFIX + 2  # the step over a code that read_ue refuses
assert _LONGEST < 256  # a uint8 length holds every step
# By the float64 exponent field 1022 + k of a 53-bit value of bit length k:
# 53 - k leading zeros, a code of 2 * (53 - k) + 1 bits; _LONGEST past
# MAX_PREFIX zeros, and for 0, whose exponent field is 0.
_CODE_LENGTHS = np.full(1022 + 54, _LONGEST, np.int64)
_CODE_LENGTHS[1022 + 53 - MAX_PREFIX:] = 2 * np.arange(MAX_PREFIX, -1, -1) + 1
# Bits read past stop: by the chains, _MAX_ROWS steps and one 64-bit load.
# A serial read from before stop ends within one code, _LONGEST bits, past it.
_READ_PAST = _LONGEST * _MAX_ROWS + 64
# By a byte's 12-bit window (the byte, then the top half of the next) and
# a bit o of the byte: the length of the code that starts there, or 0 where
# the 12 - o bits in view from o hold no one bit.
_VIEWS = (np.arange(4096)[:, None] << np.arange(8)) & 0xFFF  # the bits from o, on top
_BYTE_LENGTHS = np.where(_VIEWS > 0, 2 * (12 - np.frexp(_VIEWS)[1]) + 1, 0).astype(np.uint8)
# It is `_lengths` at bit o of a word that holds the window, then zeros.
_CHECK = _lengths(np.arange(4096, dtype=np.uint64) << np.uint64(52),
                  32 * np.arange(4096)[:, None] + np.arange(8))
assert np.array_equal(_BYTE_LENGTHS, np.where(_CHECK == _LONGEST, 0, _CHECK))
del _VIEWS, _CHECK
