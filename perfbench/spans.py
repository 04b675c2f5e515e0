"""Spans around the calls into sunac's layers, for the traced run only.

Tracer.installed() replaces each function at the name its caller looks it
up by (a module attribute) with a wrapper that records a span, and puts
every original back on exit.  Nothing is wrapped outside that block, so
untraced ops run the program exactly as shipped.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from sunac import (assignment, bitstream, codec, extractor, numerics,
                   pipeline, rvq)


@dataclass
class Span:
    name: str
    seconds: float
    top: bool            # no enclosing span: on the op's blocking path
    counts: dict = field(default_factory=dict)


def _tblock_name(args, kwargs):
    return f"numerics.tblock.{kwargs.get('name') or 'unnamed'}"


def _conv_name(args, kwargs):
    return ("numerics.conv_transpose" if kwargs.get("transposed")
            else "numerics.conv1d")


def _conv_counts(args, kwargs, result):
    """MACs by the analyzer's convention, and the bytes an im2col forward
    conv materializes: padded input, im2col buffer and output, float64."""
    x, w = args[0], args[1]
    c_out, c_in, k = w.shape
    if kwargs.get("transposed"):
        return {"macs": c_out * c_in * k * x.shape[1]}
    l_out = result.shape[1]
    padded = x.shape[1] + 2 * kwargs.get("padding", 0)
    return {
        "macs": c_out * c_in * k * l_out,
        "bytes": 8 * (c_in * padded + c_in * k * l_out + c_out * l_out),
    }


def _perm_counts(args, kwargs, result):
    return {"perms": len(result)}


# (module, attribute, span name or namer, counter).
PATCHES = (
    (codec, "encode", "codec.encode", None),
    (codec, "decode", "codec.decode", None),
    (pipeline, "extract", "extractor.extract", None),
    (extractor, "cross_prompt", "extractor.cross_prompt", None),
    (extractor, "film", "extractor.film", None),
    (extractor, "transformer_block", _tblock_name, None),
    (numerics, "transformer_block", _tblock_name, None),
    (numerics, "conv1d", _conv_name, _conv_counts),
    (numerics, "snake", "numerics.snake", None),
    (rvq, "quantize", "rvq.quantize", None),
    (rvq, "codes_to_features", "rvq.codes_to_features", None),
    (bitstream, "pack_stream", "bitstream.pack", None),
    (bitstream, "unpack_stream", "bitstream.unpack", None),
    (pipeline, "realize", "fixtures.realize", None),
    (pipeline, "magnitude_mask_reconstruct", "assignment.mask_reconstruct",
     None),
    (pipeline, "best_assignment", "assignment.best_assignment", None),
    (pipeline, "si_sdr", "assignment.si_sdr", None),
    (assignment, "si_sdr", "assignment.si_sdr", None),
    (assignment, "restricted_permutations",
     "assignment.restricted_permutations", _perm_counts),
)


class Tracer:
    """Collects spans in memory; take() hands over those since the last call."""

    def __init__(self):
        self._spans: list[Span] = []
        self._depth = 0

    def take(self) -> list[Span]:
        spans, self._spans = self._spans, []
        return spans

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = self._depth == 0
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - start
                self._depth -= 1
            label = name(args, kwargs) if callable(name) else name
            counts = counter(args, kwargs, result) if counter else {}
            self._spans.append(Span(label, seconds, top, counts))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module, attr, name, counter in PATCHES:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, counter))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)
