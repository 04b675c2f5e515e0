"""Source assignment and metrics.

Separation quality is scored with scale-invariant SDR.  When a mixture
contains several sources of the same type, the estimate order within that
type is arbitrary, so assignment searches only permutations that shuffle
same-type indices and leaves every uniquely-typed index fixed.  The best
permutation maximizes total SI-SDR.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .errors import ContractViolationError, InvalidArgumentError
from .extractor import PromptType
from .numerics import as_samples, istft, stft

__all__ = [
    "SI_SDR_CLAMP_DB",
    "si_sdr",
    "SourceSet",
    "restricted_permutations",
    "Assignment",
    "best_assignment",
    "magnitude_mask_reconstruct",
]

SI_SDR_CLAMP_DB = 100.0

# The mask-evaluation STFT: Hann window, 75% overlap.
_MASK_N_FFT = 1024
_MASK_HOP = 256
_MASK_EPS = 1e-8


def si_sdr(reference, estimate) -> float:
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is compared against the reference rescaled by
    alpha = <estimate, reference> / ||reference||^2, which makes the score
    blind to any positive gain on the estimate:

        10 * log10(||alpha s||^2 / ||alpha s - s_hat||^2)

    clamped to +/- SI_SDR_CLAMP_DB.  An exactly-zero error term returns the
    ceiling directly rather than dividing by a tiny constant; dividing by
    the bare error energy is what keeps the score invariant under
    rescaling the estimate even before the clamp (bitwise so for
    power-of-two gains).  Raises if either signal holds a NaN or an
    infinity, if the reference is identically zero, or if the lengths (or
    sample rates, when AudioBuffers are passed) disagree.
    """
    if isinstance(reference, AudioBuffer) and isinstance(estimate, AudioBuffer):
        if reference.sample_rate != estimate.sample_rate:
            raise ContractViolationError(
                f"sample rates differ: {reference.sample_rate} vs "
                f"{estimate.sample_rate}"
            )
    ref = as_samples(reference)
    est = as_samples(estimate)
    if ref.shape != est.shape:
        raise ContractViolationError(
            f"length mismatch: reference {ref.shape[0]}, estimate {est.shape[0]}"
        )
    ref_energy = float(np.dot(ref, ref))
    if ref_energy == 0.0:
        raise InvalidArgumentError("reference signal is identically zero")
    alpha = float(np.dot(est, ref)) / ref_energy
    scaled = alpha * ref
    signal = float(np.dot(scaled, scaled))
    noise = scaled - est
    error = float(np.dot(noise, noise))
    if error == 0.0:
        return SI_SDR_CLAMP_DB
    ratio = signal / error
    if ratio <= 0.0:
        return -SI_SDR_CLAMP_DB
    value = 10.0 * np.log10(ratio)
    return float(np.clip(value, -SI_SDR_CLAMP_DB, SI_SDR_CLAMP_DB))


@dataclass(frozen=True)
class SourceSet:
    """Typed reference sources, optionally with their mixture.

    All signals must share length and sample rate.  When a mixture is
    supplied it must equal the sample-wise sum of the sources to within
    1e-6, which synthetic fixtures satisfy by construction.
    """

    sources: tuple[tuple[AudioBuffer, PromptType], ...]
    mixture: AudioBuffer | None = None

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(
            (buf, PromptType.parse(ptype)) for buf, ptype in self.sources
        ))
        if not self.sources:
            raise InvalidArgumentError("source set is empty")
        first = self.sources[0][0]
        for buf, _ in self.sources[1:]:
            if buf.n_samples != first.n_samples:
                raise ContractViolationError("sources have differing lengths")
            if buf.sample_rate != first.sample_rate:
                raise ContractViolationError("sources have differing sample rates")
        if self.mixture is not None:
            if self.mixture.n_samples != first.n_samples:
                raise ContractViolationError("mixture length differs from sources")
            if self.mixture.sample_rate != first.sample_rate:
                raise ContractViolationError("mixture sample rate differs")
            total = np.sum([buf.samples.astype(np.float64)
                            for buf, _ in self.sources], axis=0)
            drift = float(np.max(np.abs(total - self.mixture.samples)))
            if drift > 1e-6:
                raise ContractViolationError(
                    f"mixture deviates from source sum by {drift:.3e} (> 1e-6)"
                )

    @property
    def types(self) -> tuple[PromptType, ...]:
        return tuple(ptype for _, ptype in self.sources)

    @property
    def n_sources(self) -> int:
        return len(self.sources)

    @property
    def sample_rate(self) -> int:
        return self.sources[0][0].sample_rate

    @property
    def n_samples(self) -> int:
        return self.sources[0][0].n_samples

    def buffers(self) -> list[AudioBuffer]:
        return [buf for buf, _ in self.sources]


def restricted_permutations(types) -> list[tuple[int, ...]]:
    """Permutations that only shuffle indices sharing a source type.

    For types (speech, speech, music) this is [(0, 1, 2), (1, 0, 2)].
    The count is the product of the factorials of the type multiplicities;
    results are in lexicographic order.
    """
    types = tuple(types)
    if not types:
        raise InvalidArgumentError("no source types given")
    groups: dict[PromptType, list[int]] = {}
    for index, t in enumerate(types):
        groups.setdefault(t, []).append(index)
    perms: list[tuple[int, ...]] = []
    per_group = [list(itertools.permutations(idx)) for idx in groups.values()]
    for combo in itertools.product(*per_group):
        perm = [0] * len(types)
        for original, shuffled in zip(groups.values(), combo):
            for src, dst in zip(original, shuffled):
                perm[src] = dst
        perms.append(tuple(perm))
    perms.sort()
    return perms


@dataclass(frozen=True)
class Assignment:
    """A chosen source-to-estimate mapping and its total SI-SDR in dB.

    permutation[i] is the estimate index assigned to reference i.
    """

    permutation: tuple[int, ...]
    score_db: float


def best_assignment(references: SourceSet, estimates) -> Assignment:
    """Pick the type-restricted permutation maximizing total SI-SDR.

    Scores every candidate against a precomputed pairwise SI-SDR table.
    Ties resolve to the lexicographically smallest permutation, and any
    uniquely-typed reference keeps its own index by construction.
    """
    estimates = list(estimates)
    if len(estimates) != references.n_sources:
        raise ContractViolationError(
            f"{references.n_sources} references but {len(estimates)} estimates"
        )
    n = references.n_sources
    perms = restricted_permutations(references.types)
    # Scores only needed for same-type pairs.
    types = references.types
    table = np.full((n, n), np.nan)
    for i, j in itertools.product(range(n), repeat=2):
        if types[i] == types[j]:
            table[i, j] = si_sdr(references.sources[i][0], estimates[j])
    best_perm = None
    best_score = -np.inf
    for perm in perms:  # lexicographic order; strict > keeps the first tie
        score = float(sum(table[i, j] for i, j in enumerate(perm)))
        if score > best_score:
            best_perm = perm
            best_score = score
    return Assignment(permutation=best_perm, score_db=best_score)


# ---------------------------------------------------------------------------
# mask-based evaluation


def magnitude_mask_reconstruct(
    mixture: AudioBuffer, estimate: AudioBuffer
) -> AudioBuffer:
    """Re-synthesize an estimate through a magnitude mask on the mixture.

    Both signals go through a Hann STFT with n_fft 1024 and hop 256;
    mask = |STFT(estimate)| / (|STFT(mixture)| + 1e-8), clamped to [0, 1],
    is applied to the complex mixture spectrogram and inverted; the output
    is trimmed to the mixture length.  An estimate equal to the mixture
    gives an (almost) all-ones mask and passes the mixture through; an
    all-zero estimate gives silence.
    """
    if mixture.sample_rate != estimate.sample_rate:
        raise ContractViolationError("mixture and estimate sample rates differ")
    if mixture.n_samples != estimate.n_samples:
        raise ContractViolationError("mixture and estimate lengths differ")
    mix_spec = stft(mixture, _MASK_N_FFT, _MASK_HOP)
    est_spec = stft(estimate, _MASK_N_FFT, _MASK_HOP)
    mask = np.clip(np.abs(est_spec) / (np.abs(mix_spec) + _MASK_EPS), 0.0, 1.0)
    out = istft(mask * mix_spec, _MASK_N_FFT, _MASK_HOP, mixture.n_samples)
    return AudioBuffer(out.astype(np.float32), mixture.sample_rate)
