"""Independent reference implementations used to cross-check the package.

Everything here is written the slow, obvious way: explicit loops, direct
formulas, itertools enumeration.  None of it imports from sunac, so an
agreement between the two is evidence rather than tautology.
"""

import itertools
import math

import numpy as np


def conv1d_naive(x, weight, bias, stride=1, padding=0, dilation=1):
    """Sliding dot product, one output sample at a time."""
    c_out, c_in, k = weight.shape
    assert x.shape[0] == c_in
    xp = np.pad(x, ((0, 0), (padding, padding)))
    span = dilation * (k - 1) + 1
    n_out = (xp.shape[1] - span) // stride + 1
    out = np.zeros((c_out, n_out))
    for co in range(c_out):
        for t in range(n_out):
            acc = 0.0
            for ci in range(c_in):
                for j in range(k):
                    acc += weight[co, ci, j] * xp[ci, t * stride + j * dilation]
            out[co, t] = acc + (bias[co] if bias is not None else 0.0)
    return out


def conv1d_transposed_naive(x, weight, bias, stride=1, padding=0,
                            dilation=1, output_padding=0):
    """Scatter-add form of the transposed convolution.

    Kernel layout matches the forward direction, (C_out, C_in, K), with
    C_in indexing the channels of x.
    """
    c_out, c_in, k = weight.shape
    assert x.shape[0] == c_in
    n_in = x.shape[1]
    span = dilation * (k - 1) + 1
    full = (n_in - 1) * stride + span + output_padding
    out = np.zeros((c_out, full))
    for ci in range(c_in):
        for t in range(n_in):
            for co in range(c_out):
                for j in range(k):
                    out[co, t * stride + j * dilation] += (
                        weight[co, ci, j] * x[ci, t]
                    )
    n_out = (n_in - 1) * stride - 2 * padding + span + output_padding
    trimmed = out[:, padding:padding + n_out].copy()
    if bias is not None:
        trimmed += bias[:, None]
    return trimmed


def si_sdr_formula(reference, estimate, eps=1e-8, clamp_db=100.0):
    """Textbook scale-invariant SDR with an epsilon guard in the ratio."""
    ref = np.asarray(reference, dtype=np.float64)
    est = np.asarray(estimate, dtype=np.float64)
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    target = alpha * ref
    err = target - est
    num = np.dot(target, target)
    den = np.dot(err, err)
    value = 10.0 * np.log10(num / (den + eps)) if num > 0 else -clamp_db
    return float(np.clip(value, -clamp_db, clamp_db))


def restricted_perms_naive(types):
    """All permutations that only move items within equal-type groups."""
    n = len(types)
    keep = []
    for perm in itertools.permutations(range(n)):
        if all(types[perm[i]] == types[i] for i in range(n)):
            keep.append(tuple(perm))
    return keep


def best_assignment_naive(references, estimates, types, score_fn):
    """Exhaustive search over the restricted permutations."""
    best_perm = None
    best_score = None
    for perm in restricted_perms_naive(types):
        score = sum(score_fn(references[i], estimates[perm[i]])
                    for i in range(len(references)))
        if best_score is None or score > best_score:
            best_score = score
            best_perm = perm
    return best_perm, best_score


def nearest_codes_naive(target, codebooks, n_active):
    """Greedy residual scan, one frame and one entry at a time, float64."""
    d, n_frames = target.shape
    codes = np.zeros((n_active, n_frames), dtype=np.int64)
    quantized = np.zeros((d, n_frames))
    for t in range(n_frames):
        residual = target[:, t].astype(np.float64).copy()
        for layer in range(n_active):
            book = codebooks[layer]
            best_idx = 0
            best_dist = None
            for idx in range(book.shape[0]):
                diff = residual - book[idx]
                dist = float(np.dot(diff, diff))
                if best_dist is None or dist < best_dist:
                    best_dist = dist
                    best_idx = idx
            codes[layer, t] = best_idx
            residual = residual - book[best_idx]
            quantized[:, t] += book[best_idx]
    return codes, quantized


def codes_to_sum_naive(codes, codebooks):
    n_layers, n_frames = codes.shape
    d = codebooks[0].shape[1]
    out = np.zeros((d, n_frames))
    for layer in range(n_layers):
        for t in range(n_frames):
            out[:, t] += codebooks[layer][codes[layer, t]]
    return out


def film_naive(x, prompt, scale_w, scale_b, shift_w, shift_b):
    """Column-by-column affine modulation."""
    d, n_frames = x.shape
    gain = scale_w @ prompt + scale_b
    shift = shift_w @ prompt + shift_b
    out = np.zeros_like(x)
    for t in range(n_frames):
        out[:, t] = x[:, t] + gain * x[:, t] + shift
    return out


def transformer_block_naive(x, w, use_rope=True):
    """Pre-norm Transformer layer over an (F, T) map, one token at a time.

    `w` is any object with the attributes of a TransformerLayerWeights.
    Attention loops over heads and then queries; every query takes a plain
    softmax over all keys.  Everything runs in float64.
    """
    ln_eps, rope_base = 1e-5, 10000.0
    x = np.asarray(x, dtype=np.float64)
    d, n_tok = x.shape
    heads = w.n_heads
    dh = d // heads

    def f64(a):
        return np.asarray(a, dtype=np.float64)

    def norm(col, gain, bias):
        centred = col - col.mean()
        return centred / math.sqrt((centred ** 2).mean() + ln_eps) * f64(gain) + f64(bias)

    def rotate(vec, pos):
        out = vec.copy()
        for i in range(dh // 2):
            angle = pos * rope_base ** (-2.0 * i / dh)
            c, s = math.cos(angle), math.sin(angle)
            a, b = vec[2 * i], vec[2 * i + 1]
            out[2 * i] = a * c - b * s
            out[2 * i + 1] = a * s + b * c
        return out

    tokens = [x[:, t].copy() for t in range(n_tok)]
    normed = [norm(tok, w.ln1_gain, w.ln1_bias) for tok in tokens]
    q = [f64(w.wq) @ n + f64(w.bq) for n in normed]
    k = [f64(w.wk) @ n + f64(w.bk) for n in normed]
    v = [f64(w.wv) @ n + f64(w.bv) for n in normed]
    ctx = [np.zeros(d) for _ in range(n_tok)]
    for h in range(heads):
        part = slice(h * dh, (h + 1) * dh)
        q_h = [q[t][part] for t in range(n_tok)]
        k_h = np.array([k[s][part] for s in range(n_tok)])
        if use_rope:
            q_h = [rotate(q_h[t], t) for t in range(n_tok)]
            k_h = np.array([rotate(k_h[s], s) for s in range(n_tok)])
        v_h = np.array([v[s][part] for s in range(n_tok)])
        for t in range(n_tok):
            scores = k_h @ q_h[t] / math.sqrt(dh)
            weights = np.exp(scores - scores.max())
            weights /= weights.sum()
            ctx[t][part] = weights @ v_h
    out = np.zeros((d, n_tok))
    for t in range(n_tok):
        tok = tokens[t] + f64(w.wo) @ ctx[t] + f64(w.bo)
        n = norm(tok, w.ln2_gain, w.ln2_bias)
        pre = f64(w.ff_w1) @ n + f64(w.ff_b1)
        hidden = np.array([0.5 * p * (1.0 + math.erf(p / math.sqrt(2.0))) for p in pre])
        out[:, t] = tok + f64(w.ff_w2) @ hidden + f64(w.ff_b2)
    return out


def init_tensors_whole(specs, seed):
    """Seeded weight tensors, each drawn whole in float64 and then cast.

    specs are (name, shape, init, fan_in) in manifest order; init is
    "ones", "zeros", "uniform" or "codebook" (uniform with row 0 zeroed).
    Yields (name, float32 tensor) pairs in that order.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    for name, shape, init, fan_in in specs:
        if init == "ones":
            yield name, np.ones(shape, dtype=np.float32)
        elif init == "zeros":
            yield name, np.zeros(shape, dtype=np.float32)
        else:
            bound = math.sqrt(1.0 / max(fan_in, 1))
            value = rng.uniform(-bound, bound, size=shape).astype(np.float32)
            if init == "codebook":
                value[0, :] = 0.0
            yield name, value
