import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from sunac import assignment, pipeline
from sunac.audio import AudioBuffer
from sunac.errors import ContractViolationError, InvalidArgumentError
from sunac.extractor import PromptType

S, M, X, MIX = (PromptType.SPEECH, PromptType.MUSIC, PromptType.SFX,
                PromptType.MIX)


def buf(samples, rate=16000):
    return AudioBuffer(np.asarray(samples, dtype=np.float32), rate)


def tone(freq, n=800, rate=16000, phase=0.0, amp=0.1):
    t = np.arange(n) / rate
    return np.sin(2 * np.pi * freq * t + phase).astype(np.float32) * amp


class TestSiSdr:
    def test_perfect_estimate_hits_ceiling(self):
        x = tone(440.0)
        assert assignment.si_sdr(x, x.copy()) == 100.0

    def test_scaled_estimate_hits_ceiling(self):
        x = tone(440.0)
        assert assignment.si_sdr(x, 0.5 * x) == 100.0
        assert assignment.si_sdr(x, -3.0 * x) == 100.0

    def test_power_of_two_gain_is_bitwise_invariant(self, rng):
        ref = rng.standard_normal(1000).astype(np.float32)
        est = (ref + 0.1 * rng.standard_normal(1000)).astype(np.float32)
        base = assignment.si_sdr(ref, est)
        for gain in (0.25, 0.5, 2.0, 4.0, 1024.0):
            assert assignment.si_sdr(ref, gain * est) == base

    def test_arbitrary_gain_is_invariant_within_tolerance(self, rng):
        ref = rng.standard_normal(1000)
        est = ref + 0.3 * rng.standard_normal(1000)
        base = assignment.si_sdr(ref, est)
        for gain in (0.7, 1.3, 3.14159, 123.456):
            assert assignment.si_sdr(ref, gain * est) == pytest.approx(
                base, abs=1e-9)

    def test_orthogonal_noise_scores_zero(self, rng):
        ref = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        noise -= (np.dot(noise, ref) / np.dot(ref, ref)) * ref
        noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
        est = ref + noise
        assert assignment.si_sdr(ref, est) == pytest.approx(0.0, abs=1e-3)

    def test_agrees_with_direct_formula(self, rng):
        # The guarded-division form and the textbook epsilon form agree
        # far from the clamp.
        for _ in range(1000):
            n = int(rng.integers(64, 400))
            ref = rng.standard_normal(n)
            est = rng.standard_normal(n) + rng.uniform(-1, 1) * ref
            got = assignment.si_sdr(ref, est)
            want = oracles.si_sdr_formula(ref, est)
            assert got == pytest.approx(want, abs=1e-6)

    def test_clamps_both_sides(self, rng):
        ref = tone(200.0)
        near = ref + 1e-9 * rng.standard_normal(ref.shape[0]).astype(np.float32)
        assert assignment.si_sdr(ref, near) <= 100.0
        ortho = tone(200.0, phase=np.pi / 2)
        assert assignment.si_sdr(ref, 1e9 * ortho) >= -100.0

    def test_rejects_degenerate_inputs(self):
        x = tone(100.0)
        with pytest.raises(InvalidArgumentError):
            assignment.si_sdr(np.zeros(800, dtype=np.float32), x)
        with pytest.raises(ContractViolationError):
            assignment.si_sdr(x, x[:-1])
        with pytest.raises(ContractViolationError):
            assignment.si_sdr(buf(x, 16000), buf(x, 8000))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_signals(self, bad):
        # Raised before any dot product, so no RuntimeWarning comes first;
        # a NaN score would leave best_assignment without a permutation.
        x = tone(100.0)
        y = x.copy()
        y[17] = bad
        for ref, est in ((x, y), (y, x), (x, np.full(x.shape[0], bad))):
            with pytest.raises(InvalidArgumentError):
                assignment.si_sdr(ref, est)
        refs = assignment.SourceSet(sources=((buf(x), S),))
        with pytest.raises(InvalidArgumentError):
            pipeline.evaluate_estimates(refs, [y], mode="direct")


class TestSourceSet:
    def test_accepts_consistent_mixture(self):
        a, b = tone(300.0), tone(700.0)
        ss = assignment.SourceSet(
            sources=((buf(a), S), (buf(b), M)),
            mixture=buf(a + b))
        assert ss.n_sources == 2
        assert ss.types == (S, M)

    def test_rejects_drifted_mixture(self):
        a, b = tone(300.0), tone(700.0)
        bad = a + b + 1e-4
        with pytest.raises(ContractViolationError):
            assignment.SourceSet(sources=((buf(a), S), (buf(b), M)),
                                 mixture=buf(bad))

    def test_rejects_inconsistent_members(self):
        with pytest.raises(ContractViolationError):
            assignment.SourceSet(sources=((buf(tone(300.0)), S),
                                          (buf(tone(700.0, n=799)), M)))
        with pytest.raises(ContractViolationError):
            assignment.SourceSet(sources=((buf(tone(300.0)), S),
                                          (buf(tone(700.0), rate=8000), M)))
        with pytest.raises(InvalidArgumentError):
            assignment.SourceSet(sources=())

    def test_types_are_parsed(self):
        a = buf(tone(300.0))
        assert assignment.SourceSet(sources=((a, "Speech"),)).types == (S,)
        with pytest.raises(InvalidArgumentError):
            assignment.SourceSet(sources=((a, "bogus"),))


class TestRestrictedPermutations:
    def test_all_distinct_types_pin_identity(self):
        assert assignment.restricted_permutations([S, M, X]) == [(0, 1, 2)]

    def test_one_duplicate_pair(self):
        assert assignment.restricted_permutations([S, S, M]) == [
            (0, 1, 2), (1, 0, 2)]

    def test_triple_with_fixed_tail(self):
        perms = assignment.restricted_permutations([S, S, S, M])
        assert len(perms) == 6
        assert all(p[3] == 3 for p in perms)
        assert perms == sorted(perms)

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            assignment.restricted_permutations([])

    @given(st.lists(st.sampled_from([S, M, X, MIX]), min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_matches_exhaustive_filter(self, types):
        got = assignment.restricted_permutations(types)
        want = sorted(oracles.restricted_perms_naive(types))
        assert sorted(got) == want
        # Count identity: product of multiplicity factorials.
        counts = {}
        for t in types:
            counts[t] = counts.get(t, 0) + 1
        expected = 1
        for c in counts.values():
            expected *= math.factorial(c)
        assert len(got) == expected


class TestBestAssignment:
    def test_single_source(self):
        ref = tone(500.0)
        ss = assignment.SourceSet(sources=((buf(ref), S),))
        result = assignment.best_assignment(ss, [buf(ref)])
        assert result.permutation == (0,)
        assert result.score_db == 100.0

    def test_recovers_forced_swap(self):
        a, b = tone(300.0), tone(900.0)
        ss = assignment.SourceSet(sources=((buf(a), S), (buf(b), S)))
        result = assignment.best_assignment(ss, [buf(b), buf(a)])
        assert result.permutation == (1, 0)
        assert result.score_db == pytest.approx(200.0)

    def test_unique_types_never_move(self):
        a, b = tone(300.0), tone(900.0)
        ss = assignment.SourceSet(sources=((buf(a), S), (buf(b), M)))
        # Even when crossing would score higher, typed slots stay put.
        result = assignment.best_assignment(ss, [buf(b), buf(a)])
        assert result.permutation == (0, 1)

    def test_tie_takes_lexicographic_smallest(self):
        a = tone(440.0)
        est = tone(440.0, phase=1.0)
        ss = assignment.SourceSet(sources=((buf(a), S), (buf(a), S)))
        result = assignment.best_assignment(ss, [buf(est), buf(est)])
        assert result.permutation == (0, 1)

    def test_matches_exhaustive_search(self, rng):
        type_pool = [S, S, M, X]
        for trial in range(50):
            size = int(rng.integers(1, 5))
            types = [type_pool[int(k)] for k in
                     rng.integers(0, len(type_pool), size)]
            refs = [rng.standard_normal(600).astype(np.float32)
                    for _ in range(size)]
            ests = [r + 0.5 * rng.standard_normal(600).astype(np.float32)
                    for r in refs]
            rng.shuffle(ests)
            ss = assignment.SourceSet(
                sources=tuple((buf(r), t) for r, t in zip(refs, types)))
            got = assignment.best_assignment(ss, [buf(e) for e in ests])
            want_perm, want_score = oracles.best_assignment_naive(
                refs, ests, types,
                lambda r, e: assignment.si_sdr(r, e))
            assert got.score_db == pytest.approx(want_score, abs=1e-9)
            table_free_score = sum(
                assignment.si_sdr(refs[i], ests[got.permutation[i]])
                for i in range(size))
            assert table_free_score == pytest.approx(want_score, abs=1e-9)

    def test_size_mismatch(self):
        ss = assignment.SourceSet(sources=((buf(tone(500.0)), S),))
        with pytest.raises(ContractViolationError):
            assignment.best_assignment(ss, [buf(tone(500.0))] * 2)


class TestMagnitudeMask:
    def test_mixture_passes_through(self):
        n = 8000
        mix = buf(tone(400.0, n=n) + tone(1200.0, n=n))
        out = assignment.magnitude_mask_reconstruct(mix, mix)
        err = np.sqrt(np.mean((out.samples - mix.samples) ** 2))
        assert err < 1e-3

    def test_zero_estimate_gives_silence(self):
        n = 8000
        mix = buf(tone(400.0, n=n))
        silent = buf(np.zeros(n, dtype=np.float32))
        out = assignment.magnitude_mask_reconstruct(mix, silent)
        assert np.sqrt(np.mean(out.samples ** 2)) < 1e-6

    def test_disjoint_bands_separate_cleanly(self):
        # Two tones far apart: masking the mixture with either source
        # recovers that source well.
        n = 16000
        lo = tone(250.0, n=n)
        hi = tone(5000.0, n=n)
        mix = buf(lo + hi)
        out = assignment.magnitude_mask_reconstruct(mix, buf(lo))
        score = assignment.si_sdr(lo, out.samples)
        assert score > 30.0

    def test_shape_checks(self):
        mix = buf(tone(440.0, n=4000))
        with pytest.raises(ContractViolationError):
            assignment.magnitude_mask_reconstruct(mix, buf(tone(440.0, n=3999)))
        with pytest.raises(ContractViolationError):
            assignment.magnitude_mask_reconstruct(
                mix, buf(tone(440.0, n=4000), rate=8000))
