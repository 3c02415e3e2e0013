"""Outside-in tracer: times the codec's layers by temporarily replacing the
public names that `flowcodec.codec` (and the modules it calls) look up at
call time with timing wrappers.

Spans are aggregated in memory by call path (the tuple of layer names from
the outermost traced call inward), keeping a call count, inclusive time and
self time per path. A call into a layer that is already the innermost open
span (`write_se` -> `write_ue` -> `write_bits`) is passed through uncounted,
so one bitstream operation counts once. Every replaced attribute is put
back on exit, so code outside the `with` block runs unwrapped.
"""
from __future__ import annotations

import time
from collections import Counter

from flowcodec import blockmatch, codec, flowprovider, metrics
from flowcodec.bitstream import BitReader, BitWriter

ENCODE = "codec.encode_sequence"
DECODE = "codec.decode_sequence"
SEARCH = "blockmatch.search"
SAD = "blockmatch.sad"
DOWNSAMPLE = "flowadapt.downsample_flow"
SELECT = "codec.select_block_vector"

_WRITER_METHODS = ("write_bits", "write_ue", "write_se", "align", "write_bytes", "getvalue")
_READER_METHODS = ("read_bits", "read_ue", "read_se", "align", "read_bytes")


def _targets():
    """(owner, attribute, layer) for every wrapped name."""
    targets = [
        (codec, "encode_sequence", ENCODE),
        (codec, "decode_sequence", DECODE),
        (codec, "select_block_vector", SELECT),
        (codec, "diamond_search", SEARCH),
        (codec, "hex_search", SEARCH),
        (codec, "sad", SAD),                     # hybrid flow candidate
        (blockmatch, "sad", SAD),                # every search candidate
        (codec, "predict_block", "model.predict_block"),       # motion_compensate
        (blockmatch, "predict_block", "model.predict_block"),  # sad
        (codec, "motion_compensate", "codec.motion_compensate"),
        (codec, "downsample_flow", DOWNSAMPLE),
        (codec, "dctn", "codec.transform"),
        (codec, "idctn", "codec.transform"),
        (codec, "quantize", "codec.transform"),
        (codec, "dequantize", "codec.transform"),
        (metrics, "frame_psnr", "metrics.frame_psnr"),
        (flowprovider.FlowProvider, "get_flow", "flowprovider.get_flow"),
        (flowprovider, "write_pgm", "io.write_pgm"),
        (flowprovider, "read_flo_file", "io.read_flo"),
    ]
    targets += [(BitWriter, name, "bitstream.write") for name in _WRITER_METHODS]
    targets += [(BitReader, name, "bitstream.read") for name in _READER_METHODS]
    return targets


class Tracer:
    """Context manager that installs the wrappers and aggregates spans.

    spans maps a call path to [calls, inclusive seconds, self seconds];
    counters holds block counts, hybrid flow wins and per-layer errors.
    """

    def __init__(self):
        self.spans: dict[tuple[str, ...], list] = {}
        self.counters: Counter = Counter()
        self._stack = [[None, (), 0.0]]  # [layer, path, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        hooks = {SELECT: self._on_decision, DOWNSAMPLE: self._on_block_field}
        try:
            for owner, name, layer in _targets():
                original = owner.__dict__[name]
                self._saved.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer, hooks.get(layer)))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _on_decision(self, decision) -> None:
        if decision.internal_mv is not None:
            self.counters["hybrid_blocks"] += 1
            if decision.flow_cost < decision.internal_cost:
                self.counters["hybrid_flow_wins"] += 1

    def _on_block_field(self, field) -> None:
        self.counters["flow_blocks"] += field.rows * field.cols

    def _wrap(self, fn, layer, hook):
        stack, spans, counters, clock = self._stack, self.spans, self.counters, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == layer:
                return fn(*args, **kwargs)
            path = parent[1] + (layer,)
            frame = [layer, path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counters[layer + ".errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[2] += elapsed
                span = spans.get(path)
                if span is None:
                    span = spans[path] = [0, 0.0, 0.0]
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - frame[2]
            if hook is not None:
                hook(result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Aggregates over paths

    def layer_total(self, layer: str) -> tuple[int, float]:
        """Calls and inclusive seconds of a layer over all its paths."""
        calls, seconds = 0, 0.0
        for path, (n, incl, _) in self.spans.items():
            if path[-1] == layer:
                calls += n
                seconds += incl
        return calls, seconds

    def self_seconds(self, path: tuple[str, ...]) -> float:
        span = self.spans.get(path)
        return span[2] if span else 0.0

    def outermost_seconds(self, root: str, prefixes: tuple[str, ...]) -> float:
        """Inclusive seconds under root of the outermost spans whose layer
        starts with one of prefixes (their nested spans are not re-counted)."""
        total = 0.0
        for path, (_, incl, _) in self.spans.items():
            if path[0] != root or not path[-1].startswith(prefixes):
                continue
            if not any(layer.startswith(prefixes) for layer in path[:-1]):
                total += incl
        return total

    def calls_within(self, layer: str, ancestor: str) -> int:
        return sum(n for path, (n, _, _) in self.spans.items()
                   if path[-1] == layer and ancestor in path[:-1])
