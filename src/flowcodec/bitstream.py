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

- Pack: `ue_pack` computes every code length from the values and adds the
  value bits of all codes straight into big-endian uint64 words, with no
  array of one entry per bit. It returns them as one Python int and its bit
  length, which the caller appends with `acc << length | bits`. It refuses
  a value whose code is longer than a reader takes.
- Parse: `CodeParser` unpacks a window of `_WINDOW_BITS` bits and counts,
  for every position, the zeros before the next one bit. That gives the
  length of the code that starts there, and of the pair of codes that
  starts there; it tabulates the pair lengths. The caller's loop steps from
  pair to pair through that table and records where each step ends.
  `CodeParser.prefixes` and `CodeParser.values` then read the prefix lengths
  and values of all recorded codes at once, with one 8-byte load per code.
  The codec parses its run-level (level, run) pairs this way; it reads the
  few vector codes of a P frame one at a time with `BitReader`.

A malformed code (a prefix of more than `MAX_PREFIX` zeros, or a code that
runs past the end of the data) raises its error from `BitReader.read_ue`
itself: `CodeParser.pairs` re-reads a pair that its table refuses.
"""
from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

MAX_PREFIX = 32     # longest zero prefix a reader accepts: values up to 2**33 - 2
_WINDOW_BITS = 1 << 14


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
    """`ue_to_se` of a uint64 array (each value at most 2**33 - 2), as int64."""
    half = (codes >> 1).astype(np.int64)
    return np.where(codes & 1, half + 1, -half)


def ue_pack(values) -> tuple[int, int]:
    """The exp-Golomb codes of an array of unsigned values, concatenated MSB
    first: (bits, length), with bits an int of at most length bits. Raises
    ValueError on a value above 2**33 - 2, whose code a reader refuses.

    Every code's value bits go straight into big-endian uint64 words. A code
    ends at bit e and its value v + 1 (at most 33 bits) lands in word e // 64
    shifted left by 63 - e % 64, and what that shift drops lands in the word
    before. Codes never overlap, so a word is the wrapping sum of the parts
    that land in it: a difference of the running sum at the last code that
    ends in each word, plus one OR for the code that crosses its end."""
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
    word, bit = last >> 6, last & 63
    running = np.cumsum(coded << (63 - bit).view(np.uint64))  # wraps: dropped bits go below
    ends = np.append(np.flatnonzero(word[:-1] != word[1:]), len(word) - 1)  # each word's last
    at, sums = word[ends], running[ends]
    words = np.zeros(-(-length // 64), np.uint64)
    words[at] = sums
    words[at[1:]] -= sums[:-1]
    cross = np.flatnonzero(widths > bit + 1)
    words[word[cross] - 1] |= coded[cross] >> (bit[cross] + 1).view(np.uint64)
    packed = int.from_bytes(words.astype(">u8").tobytes(), "big")
    return packed >> (64 * len(words) - length), length


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
    """Finds the exp-Golomb code pairs of a byte string and reads their codes
    with numpy.

    A window of the data starting at bit base has one table, as bytes so that
    a Python loop reads it at the cost of an index: entry i is 1 where the
    code that starts at bit base + i is a single bit (value 0), else that
    code's length plus the length of the code after it, or 0 where either is
    not a whole code of at most `MAX_PREFIX` zeros inside the window. It steps
    over lists of code pairs that a 0 in the first position ends.
    """

    def __init__(self, data: bytes):
        self.end = len(data) * 8
        self._data = bytes(data)
        self._bytes = np.frombuffer(self._data + bytes(8), np.uint8)  # 8-byte loads stay inside
        self._words = sliding_window_view(self._bytes, 8)
        self._base = 0
        self._table = b"\0"

    def pairs(self, pos: int) -> tuple[int, bytes]:
        """(base, pair table) of a window with a pair at pos: the current one
        if it has, else a new one from pos. Raises the `BitstreamError` that
        `BitReader.read_ue` raises for the pair's first bad code."""
        base, table = self._base, self._table
        if 0 <= pos - base < len(table) and table[pos - base]:
            return base, table
        table = self._tabulate(pos)
        if not table[0]:
            reader = BitReader(self._data, pos)
            reader.read_ue()
            reader.read_ue()
            # Unreachable: a window holds any pair (at most 130 bits) at its base.
            raise AssertionError(f"pair table refused the valid pair at bit {pos}")
        self._base, self._table = pos, table
        return pos, table

    def _bits(self, pos: int, stop: int) -> np.ndarray:
        first = pos >> 3
        chunk = np.unpackbits(self._bytes[first:(stop + 7) >> 3])
        return chunk[pos - 8 * first:stop - 8 * first]

    def _tabulate(self, pos: int) -> bytes:
        """The pair table of the window from pos."""
        bits = self._bits(pos, min(pos + _WINDOW_BITS, self.end))
        n = len(bits)
        ones = np.flatnonzero(bits.view(bool))  # much faster than on uint8
        # Distance from each position up to the last one bit to the next one bit.
        zeros = np.repeat(ones, np.diff(ones, prepend=-1))
        at = np.arange(n + 1)
        zeros -= at[:len(zeros)]
        np.minimum(zeros, MAX_PREFIX + 1, out=zeros)
        lengths = np.zeros(n + 1, np.uint8)  # lengths[n] stays 0
        lengths[:len(zeros)] = 2 * zeros + 1
        lengths[lengths > 2 * MAX_PREFIX + 1] = 0
        tail = max(0, n - 2 * MAX_PREFIX)  # only codes from here on can run past the window
        lengths[tail:][at[tail:] + lengths[tail:] > n] = 0
        second = lengths[at + lengths]
        single = lengths == 1
        second *= ~single
        pairs = lengths + second  # at most 2 * 65
        pairs *= single | (second > 0)
        return pairs.tobytes()

    def _load(self, pos: np.ndarray) -> np.ndarray:
        """The 64 bits from each bit position (int64 array) as uint64; the
        first 57 of them are always data."""
        words = self._words[pos >> 3].view(">u8")[:, 0].astype(np.uint64)
        return words << (pos & 7).astype(np.uint64)

    def prefixes(self, starts: np.ndarray) -> np.ndarray:
        """Zero prefix lengths (int64) of the valid codes at starts (int64)."""
        top = self._load(starts) >> 11  # 53 bits, exact in float64, that hold the one bit
        return 53 - np.frexp(top.astype(np.float64))[1].astype(np.int64)

    def values(self, starts: np.ndarray, zeros: np.ndarray) -> np.ndarray:
        """uint64 values of the valid codes at starts (int64) whose prefixes
        are zeros (int64) long."""
        lead = starts + zeros  # the one bit that opens the zeros + 1 value bits
        return (self._load(lead) >> (63 - zeros).astype(np.uint64)) - 1
