"""Diagonal state-space scan kernels.

The continuous system  h'(t) = a h(t) + b x(t),  y(t) = <c, h(t)>  with a
diagonal state matrix is discretised by zero-order hold over a step delta:

    a_bar = exp(delta * a)
    b_bar = ((exp(delta * a) - 1) / a) * b

with the series fallback  delta * b * (1 + z/2 + z^2/6),  z = delta * a,
whenever |z| < 1e-4 (this also covers a = 0 exactly).

The resulting linear recurrence
    h_t = a_bar * h_{t-1} + b_bar * x_t,   y_t = <c, h_t>
is evaluated two ways over a bank of C independent single-channel
systems, with (C, N) parameters and a (C, L) sequence: ``scan_recurrent``
runs it step by step and is the oracle, returning its float64 sums
unrounded, and ``ssm_bank_scan``, the decoder's scan, runs it in the
chunked form of Mamba-2's state-space dual (Dao & Gu 2024): a
lower-triangular Toeplitz matmul inside each chunk of SCAN_CHUNK steps,
plus a prefix scan over a fixed balanced tree that carries the state
across chunk boundaries.
Every chunk shares one step a_bar^T, so the carry runs over the real
chunks only, with no padding to a power of two: a tree level that joins
runs of 2^k chunks multiplies by a_bar^(T 2^k), made by squaring.
The powers a_bar^k, k = 0 .. SCAN_CHUNK, are laid out (SCAN_CHUNK+1, C, N),
so their exp and the products built from them run over one long
contiguous axis.  The transposed Toeplitz block M^T (one strided view of
the zero-padded kernel) and the chunk-end weights W (made in the powers'
layout, then copied in once) share one (C, T, T+N) buffer, and one batched
matmul X [M^T | W] gives the in-chunk outputs and the chunk-end states
together.  A float64 sequence whose length is a multiple of SCAN_CHUNK
(every decoder grid) is reshaped into chunks as it is; any other is first
copied into a zero-padded float64 array.  The chunk length is a constant
rather than a function of the input or the machine, and no threads are
used, so every output byte depends only on the parameters and the
sequence.  All accumulation happens in float64.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SERIES_THRESHOLD",
    "SCAN_CHUNK",
    "zoh",
    "scan_recurrent",
    "ssm_bank_scan",
]

SERIES_THRESHOLD = 1e-4

# steps per chunk of the chunked scan: the Toeplitz block is SCAN_CHUNK^2 per
# channel, the carry scan runs over L / SCAN_CHUNK chunks
SCAN_CHUNK = 16


# ---------------------------------------------------------------------------
# discretisation helpers


def _phi(z: np.ndarray) -> np.ndarray:
    """(exp(z) - 1) / z with a 3-term series below SERIES_THRESHOLD."""
    z = np.asarray(z, dtype=np.float64)
    small = np.abs(z) < SERIES_THRESHOLD
    safe = np.where(small, 1.0, z)
    exact = np.expm1(safe) / safe
    series = 1.0 + z / 2.0 + (z * z) / 6.0
    return np.where(small, series, exact)


def zoh(a: np.ndarray, delta, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise zero-order hold; broadcasts delta against a and b."""
    a = np.asarray(a, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    z = delta * a
    a_bar = np.exp(z)
    b_bar = delta * _phi(z) * b
    return a_bar, b_bar


# ---------------------------------------------------------------------------
# scans


def scan_recurrent(a_bar, b_bar, c, seq) -> np.ndarray:
    """Sequential evaluation of C discrete recurrences at once.

    a_bar, b_bar, c: (C, N); seq: (C, L).  Returns y (C, L) in float64,
    unrounded, so that a check against it measures the kernel under test
    rather than a rounding of the oracle.  The loop runs over steps only;
    each row's readout is the batched (1, N) @ (N, 1) product, whose bytes
    are those of that row's own ``c @ h``.
    """
    a_bar, b_bar, c = (np.asarray(v, dtype=np.float64) for v in (a_bar, b_bar, c))
    if a_bar.ndim != 2 or a_bar.size < 1:
        raise ValueError("a_bar, b_bar, c must be non-empty (C, N) arrays")
    if not (a_bar.shape == b_bar.shape == c.shape):
        raise ValueError("a_bar, b_bar, c must share one (C, N) shape")
    x = np.asarray(seq, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != a_bar.shape[0] or x.shape[1] < 1:
        raise ValueError(f"expected a ({a_bar.shape[0]}, L) sequence with L >= 1")
    h = np.zeros_like(a_bar)
    y = np.empty(x.shape, dtype=np.float64)
    for t in range(x.shape[1]):
        h = a_bar * h + b_bar * x[:, t, None]
        y[:, t] = (c[:, None, :] @ h[:, :, None])[:, 0, 0]
    return y


def _carry_scan(step: np.ndarray, states: np.ndarray) -> None:
    """In place along axis 0 of states (J, C, N): the inclusive prefix of
    h -> step * h + states[j], h before chunk 0 is 0, one step (C, N) for
    every chunk.

    The up-sweep and down-sweep of a balanced binary tree over the J chunks.
    A node that spans 2^k chunks multiplies by step^(2^k), made by squaring:
    p_1 = step, p_2k = p_k * p_k.  Every node that feeds an output spans
    real chunks only, so the tree needs no identity padding and no array of
    per-node powers; which updates reach chunk j depends only on j, so its
    bytes do not depend on J.  Every level's products go through one
    scratch buffer of J // 2 rows.
    """
    length = states.shape[0]
    scratch = np.empty_like(states[: length // 2])
    powers = [step]  # powers[k] = step^(2^k)
    span = 1
    # up-sweep: hi ends a run of 2 * span chunks, lo ends its first half
    while 2 * span <= length:
        lo = states[span - 1:length - span:2 * span]
        states[2 * span - 1::2 * span] += np.multiply(powers[-1], lo, out=scratch[:len(lo)])
        powers.append(powers[-1] * powers[-1])
        span *= 2
    # down-sweep: hi lies half a run past lo, the end of a run of span chunks
    while span > 1:
        half = span // 2
        powers.pop()
        lo = states[span - 1:length - half:span]
        states[span + half - 1::span] += np.multiply(powers[-1], lo, out=scratch[:len(lo)])
        span = half


def _chunked_scan(
    powers: np.ndarray, b_bar: np.ndarray, c: np.ndarray, seq: np.ndarray
) -> np.ndarray:
    """C independent scans h_t = a_bar h_{t-1} + b_bar x_t, y_t = <c, h_t>.

    powers: (T+1, C, N) with powers[k] = a_bar^k, T = SCAN_CHUNK;
    b_bar, c: (C, N); seq: (C, L).  Returns y (C, L) in float64.

    The sequence is cut into J chunks of T steps.  A float64 sequence whose
    length is a multiple of T is reshaped as it is; any other is copied
    into a zero-padded float64 array (the scan is causal, so the padding
    cannot reach earlier outputs).  It is evaluated as

      within a chunk   Y = X M^T, M[c] lower-triangular Toeplitz with
                       M[c, i, j] = K[c, i - j], K[c, k] = <c, b_bar a_bar^k>
      chunk ends       S = X W, W[c, t, n] = b_bar a_bar^(T-1-t)
      carried state    H = fixed-tree prefix scan of h -> a_bar^T h + S over
                       the first J-1 chunks (``_carry_scan``: real chunks
                       only, powers of a_bar^T by squaring, no padding);
                       chunk j adds H[j-1] Q with Q[c, n, i] = c a_bar^(i+1)

    M^T and W sit side by side in one (C, T, T+N) block, so a single
    batched matmul X [M^T | W] gives Y and S together.  A one-chunk
    sequence carries no state and is Y = X M^T alone.
    """
    chunk = SCAN_CHUNK
    channels, length = seq.shape
    n_chunks = -(-length // chunk)
    if seq.dtype == np.float64 and length == n_chunks * chunk:
        x = seq.reshape(channels, n_chunks, chunk)               # (C, J, T)
    else:
        x = np.zeros((channels, n_chunks * chunk), dtype=np.float64)
        x[:, :length] = seq
        x = x.reshape(channels, n_chunks, chunk)

    # M^T[c, i, j] = K[c, j - i], zero below the diagonal: row i of M^T is
    # the T-long window of [0]*(T-1) + K that starts at T-1-i, so one view
    # with a backward row stride reads every row out of the padded kernel
    kernel = np.einsum("cn,kcn->ck", c * b_bar, powers[:chunk])  # (C, T)
    padded = np.zeros((channels, 2 * chunk - 1), dtype=np.float64)
    padded[:, chunk - 1:] = kernel
    item = padded.itemsize
    m_t = np.ndarray((channels, chunk, chunk), np.float64, padded,
                     (chunk - 1) * item, (padded.strides[0], -item, item))
    if n_chunks == 1:
        # one chunk carries no state in or out; numpy multiplies one row by
        # the strided view in its own loop, which short scans' bytes come from
        return (x @ m_t).reshape(channels, chunk)[:, :length]

    n = b_bar.shape[1]
    # the result is allocated before the temporaries, so that it does not sit
    # above them on the heap: the allocator then hands fewer of their pages
    # back to the kernel between calls (a fifth fewer faults in decode)
    y = np.empty((channels, n_chunks, chunk), dtype=np.float64)
    fused = np.empty((channels, chunk, chunk + n), dtype=np.float64)
    fused[:, :, :chunk] = m_t
    # W is made in the powers' (T, C, N) layout, over one long axis, and
    # copied into place once; Q's buffer holds it until Q is made
    q = np.empty((channels, n, chunk), dtype=np.float64)
    w = q.reshape(chunk, channels, n)
    np.multiply(powers[chunk - 1::-1], b_bar, out=w)
    fused[:, :, chunk:] = w.transpose(1, 0, 2)
    out = x @ fused                                              # (C, J, T+N)
    del fused  # the largest block; free it before the state pass
    ends = out[:, :, chunk:]

    # chunk j starts from the state after chunk j-1, so the last chunk's
    # end state is never needed
    states = np.moveaxis(ends[:, :-1], 1, 0).copy()             # (J-1, C, N)
    _carry_scan(powers[chunk], states)
    carried = np.empty((channels, n_chunks, n), dtype=np.float64)
    carried[:, 0] = 0.0
    carried[:, 1:] = np.moveaxis(states, 0, 1)
    del states
    np.multiply(powers[1:].transpose(1, 2, 0), c[:, :, None], out=q)
    # H Q into the one array returned, then the in-chunk outputs added
    np.matmul(carried, q, out=y)
    y += out[:, :, :chunk]
    return y.reshape(channels, n_chunks * chunk)[:, :length]


def ssm_bank_scan(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, delta: np.ndarray, seq: np.ndarray
) -> np.ndarray:
    """Run C independent single-channel scans over a (C, L) sequence.

    a, b, c: (C, N); delta: (C,).  Returns y (C, L) in float64, where
    h_t = a_bar * h_{t-1} + b_bar * x_t and y_t = <c, h_t> per channel,
    a_bar and b_bar from ``zoh``.  The powers a_bar^k = exp(k * delta * a),
    k = 0 .. SCAN_CHUNK, are laid out (SCAN_CHUNK+1, C, N) for the chunked
    core (see ``_chunked_scan``).
    """
    d64 = np.asarray(delta, dtype=np.float64)[:, None]
    z = d64 * np.asarray(a, dtype=np.float64)                    # (C, N)
    # zoh's b_bar, without the exp(z) it would throw away
    b_bar = d64 * _phi(z) * np.asarray(b, dtype=np.float64)
    # exp(k z) and a_bar ** k differ in the last bits; saved decoder maps
    # hold the bytes of exp(k z)
    powers = np.arange(SCAN_CHUNK + 1.0)[:, None, None] * z
    np.exp(powers, out=powers)
    return _chunked_scan(powers, b_bar, np.asarray(c, dtype=np.float64), seq)
