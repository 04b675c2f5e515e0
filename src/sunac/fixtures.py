"""Deterministic synthetic sources and mixtures.

Real separation corpora are large and licensed; these fixtures stand in
for them with seeded signals whose spectral occupancy mimics the source
classes: band-limited noise for speech, a harmonic comb for music, and
filtered chirp bursts for effects.  A mixture manifest records exactly how
each source was drawn, so references can be regenerated bit-for-bit by
anyone holding the manifest, which is what the evaluation tooling does
instead of shipping audio.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .assignment import SourceSet
from .audio import AudioBuffer, _atomic_write_bytes
from .errors import ConfigError, InvalidArgumentError, integer, samples
from .extractor import PromptType

__all__ = [
    "GENERATORS",
    "DEFAULT_BANDS",
    "SPEECH_SUBBANDS",
    "TARGET_RMS",
    "FixtureSpec",
    "MixtureManifest",
    "generate",
    "check_source_constraints",
    "make_mixture",
    "realize",
    "save_manifest",
    "load_manifest",
]

GENERATORS = ("band_limited_noise", "harmonic_tone", "chirp_burst")

# Default occupancy per source class, in Hz.
DEFAULT_BANDS = {
    PromptType.SPEECH: (100.0, 3400.0),
    PromptType.MUSIC: (200.0, 6000.0),
    PromptType.SFX: (3400.0, 7600.0),
    PromptType.MIX: (100.0, 7600.0),
}

# When a mixture holds two speech sources, give them disjoint slices of the
# speech band so the pair stays separable by any frequency-selective model.
# The 500 Hz guard gap keeps short-window spectral leakage from one slice
# out of the other, so mask-based scoring is not edge-limited.
SPEECH_SUBBANDS = ((100.0, 1500.0), (2000.0, 3400.0))

_DEFAULT_GENERATOR = {
    PromptType.SPEECH: "band_limited_noise",
    PromptType.MUSIC: "harmonic_tone",
    PromptType.SFX: "chirp_burst",
    PromptType.MIX: "band_limited_noise",
}

_SOURCE_LIMITS = {PromptType.SPEECH: 2, PromptType.MUSIC: 1, PromptType.SFX: 1}

TARGET_RMS = 0.1


@dataclass(frozen=True)
class FixtureSpec:
    """Recipe for one synthetic source."""

    prompt_type: PromptType
    generator: str
    seed: int
    band: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "prompt_type", PromptType.parse(self.prompt_type))
        if self.generator not in GENERATORS:
            raise InvalidArgumentError(
                f"unknown generator {self.generator!r}, "
                f"expected one of {GENERATORS}"
            )
        object.__setattr__(self, "seed", integer("fixture seed", self.seed, 0))
        if self.band is not None:
            try:
                low, high = (float(b) for b in self.band)
            except (TypeError, ValueError) as exc:
                raise InvalidArgumentError(
                    f"band must be two edges in Hz, got {self.band!r}"
                ) from exc
            object.__setattr__(self, "band", (low, high))

    def effective_band(self, sample_rate: int) -> tuple[float, float]:
        low, high = self.band if self.band is not None else DEFAULT_BANDS[self.prompt_type]
        if not 0.0 < low < high:
            raise InvalidArgumentError(f"bad band ({low}, {high})")
        if high > sample_rate / 2:
            raise InvalidArgumentError(
                f"band edge {high} Hz exceeds Nyquist for {sample_rate} Hz"
            )
        return low, high


def _brickwall(x: np.ndarray, low: float, high: float, sample_rate: int) -> np.ndarray:
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.shape[0], 1.0 / sample_rate)
    spectrum[(freqs < low) | (freqs > high)] = 0.0
    return np.fft.irfft(spectrum, n=x.shape[0])


def _normalize_rms(x: np.ndarray) -> np.ndarray:
    rms = float(np.sqrt(np.mean(np.square(x))))
    if rms <= 0.0:
        raise InvalidArgumentError("generator produced a silent signal")
    return x * (TARGET_RMS / rms)


def _gen_noise(rng, n, low, high, rate):
    return _brickwall(rng.standard_normal(n), low, high, rate)


def _gen_harmonics(rng, n, low, high, rate):
    # Fundamental in the lower quarter of the band so several harmonics fit.
    f0 = float(rng.uniform(low, low + 0.25 * (high - low)))
    t = np.arange(n) / rate
    x = np.zeros(n)
    k = 1
    while k * f0 <= high:
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        x += np.sin(2.0 * np.pi * k * f0 * t + phase) / k
        k += 1
    return x


def _gen_chirps(rng, n, low, high, rate):
    t = np.arange(n) / rate
    x = np.zeros(n)
    burst_len = max(n // 4, 1)
    env = np.hanning(burst_len)
    for _ in range(3):
        start = int(rng.integers(0, max(n - burst_len, 0) + 1))
        seg_t = t[:burst_len]
        sweep = (high - low) / (2.0 * (burst_len / rate))
        phase = 2.0 * np.pi * (low * seg_t + sweep * seg_t * seg_t)
        x[start:start + burst_len] += env * np.sin(phase)
    return _brickwall(x, low, high, rate)


_GEN_FUNCS = {
    "band_limited_noise": _gen_noise,
    "harmonic_tone": _gen_harmonics,
    "chirp_burst": _gen_chirps,
}


# Render lengths; 10 minutes at 16 kHz is the longest input the codec targets.
_MIN_SAMPLES, _MAX_SAMPLES = 8, 9_600_000


def generate(spec: FixtureSpec, duration_s: float = 1.0,
             sample_rate: int = 16000) -> AudioBuffer:
    """Render one source; identical inputs give identical samples."""
    sample_rate = integer("sample_rate", sample_rate, 1)
    n = samples(duration_s, sample_rate, _MIN_SAMPLES, _MAX_SAMPLES)
    low, high = spec.effective_band(sample_rate)
    rng = np.random.default_rng(spec.seed)
    x = _GEN_FUNCS[spec.generator](rng, n, low, high, sample_rate)
    return AudioBuffer(_normalize_rms(x), sample_rate)


@dataclass(frozen=True)
class MixtureManifest:
    """Everything needed to regenerate a mixture and its references."""

    sources: tuple[FixtureSpec, ...]
    duration_s: float = 1.0
    sample_rate: int = 16000

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        if not self.sources:
            raise InvalidArgumentError("a mixture needs at least one source")
        object.__setattr__(self, "sample_rate",
                           integer("sample_rate", self.sample_rate, 1))
        # The bounds of generate, so that a manifest that constructs renders.
        samples(self.duration_s, self.sample_rate, _MIN_SAMPLES, _MAX_SAMPLES)
        object.__setattr__(self, "duration_s", float(self.duration_s))

    @property
    def prompt_types(self) -> tuple[PromptType, ...]:
        return tuple(spec.prompt_type for spec in self.sources)

    def to_json(self) -> str:
        payload = {
            "sample_rate": self.sample_rate,
            "duration_s": self.duration_s,
            "sources": [
                {
                    "prompt_type": spec.prompt_type.value,
                    "generator": spec.generator,
                    "seed": spec.seed,
                    "band": list(spec.band) if spec.band is not None else None,
                }
                for spec in self.sources
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "MixtureManifest":
        try:
            payload = json.loads(text)
        except ValueError as exc:  # also bad UTF-8, or too long an integer
            raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
        try:
            sources = tuple(
                FixtureSpec(
                    prompt_type=entry["prompt_type"],
                    generator=entry["generator"],
                    seed=entry["seed"],
                    band=entry.get("band") or None,
                )
                for entry in payload["sources"]
            )
            return cls(
                sources=sources,
                duration_s=payload["duration_s"],
                sample_rate=payload["sample_rate"],
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"manifest is missing a field: {exc}") from exc
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"manifest has a bad value: {exc}") from exc


def check_source_constraints(types, allow_four_sources: bool = False) -> None:
    """Enforce the mixture sampling rules on a list of source types."""
    types = tuple(types)
    if any(t is PromptType.MIX for t in types):
        raise InvalidArgumentError(
            "'mix' labels a reconstruction target, not a source type"
        )
    max_sources = 4 if allow_four_sources else 3
    if not 1 <= len(types) <= max_sources:
        raise InvalidArgumentError(
            f"got {len(types)} sources, expected 1..{max_sources}"
        )
    counts = Counter(types)
    for ptype, limit in _SOURCE_LIMITS.items():
        if counts[ptype] > limit:
            raise InvalidArgumentError(
                f"at most {limit} {ptype.value} source(s) per mixture, "
                f"got {counts[ptype]}"
            )


def make_mixture(sources, seed: int = 0, duration_s: float = 1.0,
                 sample_rate: int = 16000,
                 allow_four_sources: bool = False) -> MixtureManifest:
    """Build a manifest for a mixture of the given sources.

    Each item is either a type name / PromptType (a default FixtureSpec is
    derived, seeded seed + position) or a ready FixtureSpec taken as is.
    At most two speech sources and one each of music and effects; mixtures
    hold one to three sources unless four are explicitly allowed.  When
    two derived speech sources appear they get disjoint sub-bands so the
    pair stays separable.
    """
    items = list(sources)
    types = tuple(item.prompt_type if isinstance(item, FixtureSpec)
                  else PromptType.parse(item) for item in items)
    check_source_constraints(types, allow_four_sources)
    two_speech = Counter(types)[PromptType.SPEECH] == 2
    speech_index = 0
    specs = []
    for i, (item, ptype) in enumerate(zip(items, types)):
        if isinstance(item, FixtureSpec):
            specs.append(item)
            continue
        band = None
        if ptype is PromptType.SPEECH and two_speech:
            band = SPEECH_SUBBANDS[speech_index]
            speech_index += 1
        specs.append(FixtureSpec(
            prompt_type=ptype,
            generator=_DEFAULT_GENERATOR[ptype],
            seed=seed + i,
            band=band,
        ))
    return MixtureManifest(sources=tuple(specs), duration_s=duration_s,
                           sample_rate=sample_rate)


def realize(manifest: MixtureManifest) -> SourceSet:
    """Generate every source in a manifest and sum them into the mixture."""
    rendered = [
        (generate(spec, manifest.duration_s, manifest.sample_rate),
         spec.prompt_type)
        for spec in manifest.sources
    ]
    total = np.zeros(rendered[0][0].n_samples, dtype=np.float64)
    for buf, _ in rendered:
        total += buf.samples.astype(np.float64)
    mixture = AudioBuffer(total, manifest.sample_rate)
    return SourceSet(sources=tuple(rendered), mixture=mixture)


def save_manifest(manifest: MixtureManifest, path) -> None:
    _atomic_write_bytes(path, manifest.to_json().encode("utf-8"))


def load_manifest(path) -> MixtureManifest:
    with open(path, "rb") as fh:
        return MixtureManifest.from_json(fh.read())
