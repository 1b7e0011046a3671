"""Sylvester null spaces: the commutant of a family of matrices, and a unitary matching two.

The package asks two questions of a Sylvester system X -> X B1 - B2 X, and this module
answers both on one engine: the dimension of {X : XA = AX for every A in a family}
(`commutant_dimension`, which a certified tree also runs once per leaf) and a unitary X with
X A1 = A2 X for every pair of unitaries (`_match_unitary`, the multiplicity match of
`twisted.equivalence_check`). One writer builds every stack, or a range of its output rows;
every system is refused above COMMUTANT_MAX_BYTES before it is built; and a star-closed count
runs first on the eigenbasis blocks of one random Hermitian element of the family
(`_eigenbasis_step`), with the full Gram matrix and then the SVD behind it.
"""

from __future__ import annotations

import random
from math import frexp, fsum, isfinite, ldexp, prod, sqrt

import numpy as np

from .linalg import (
    _BOUND_SLACK,
    _UNDERFLOW,
    _UNIT_ROUNDOFF,
    DEFAULT_TOL,
    DimensionMismatchError,
    Tolerance,
    _gamma,
    _norm_within,
    _require_square,
    _sum_of_squares,
    identity,
)

__all__ = ["CommutantTooLargeError", "commutant_dimension"]

# Largest peak of a Sylvester system the package will build: its stack and the copies factorizing it makes.
COMMUTANT_MAX_BYTES = 2 * 1024**3


class CommutantTooLargeError(ValueError):
    """A Sylvester system would peak above COMMUTANT_MAX_BYTES."""


def _check_size(maps: int, d: int, peak_blocks: float) -> None:
    """Refuse ``maps`` Sylvester maps at ``d`` when ``peak_blocks`` d^2 x d^2 complex blocks pass the limit."""
    peak_bytes = peak_blocks * d**4 * np.dtype(complex).itemsize
    if peak_bytes > COMMUTANT_MAX_BYTES:
        raise CommutantTooLargeError(
            f"{maps} Sylvester maps at d = {d} need a {peak_bytes / 1024**3:.1f} GiB "
            f"system, above the {COMMUTANT_MAX_BYTES / 1024**3:.0f} GiB limit"
        )


def _sylvester_rows(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple, lo: int, hi: int) -> np.ndarray:
    """Row b: basis element b, the sum of gamma E_pq over its entries (b, p, q, gamma), under each
    map X -> X B1 - B2 X of ``pairs`` (B1, B2) in turn, output rows lo:hi of each, row-major: a
    complex (n, maps (hi - lo) d) array for n basis elements, written in place, so nothing its
    size is formed beside it. The one code that writes Sylvester entries."""
    b, p, q, gamma = basis
    d = pairs[0][0].shape[0]
    out = np.zeros((_basis_size(basis), len(pairs), hi - lo, d), dtype=complex)
    inside = (lo <= p) & (p < hi)
    gamma_inside = gamma[inside] if np.ndim(gamma) else gamma

    def scaled(factor, entries: np.ndarray) -> np.ndarray:
        # in place: the gathered entries are the only temporary of each write
        return np.multiply(factor, entries, out=entries)

    # (E_pq B1 - B2 E_pq)[r, s] = delta_rp B1[q, s] - B2[r, p] delta_qs; each (b, p) and (b, q) occurs once
    for n, (b1, b2) in enumerate(pairs):
        out[b[inside], n, p[inside] - lo, :] = scaled(gamma_inside, b1[q[inside], :])
        out[b, n, :, q] -= scaled(gamma, b2[lo:hi, p].T)
    return out.reshape(len(out), len(pairs) * (hi - lo) * d)


def _sylvester_stack(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple) -> np.ndarray:
    """Every output row of `_sylvester_rows`: the whole stack, a complex (d^2, maps d^2) array."""
    return _sylvester_rows(pairs, basis, 0, pairs[0][0].shape[0])


def _basis_size(basis: tuple) -> int:
    """The number n of elements of a basis of `_sylvester_rows`, which numbers them 0, ..., n - 1."""
    return int(np.max(basis[0], initial=-1)) + 1


def _matrix_units(d: int) -> tuple:
    """The row-major basis E_pq of d x d matrices, as entries (b, p, q, gamma) of `_sylvester_stack`."""
    b = np.arange(d * d)
    return (b, *np.divmod(b, d), 1.0)


def _hermitian_units(sizes: list[int]) -> tuple:
    """sqrt(2) E_jj, E_jk + E_kj, i (E_jk - E_kj), j < k in one diagonal block of ``sizes``: sqrt(2)
    times an orthonormal basis of the block-diagonal Hermitian matrices; [d] gives all of them."""
    offsets = np.cumsum([0, *sizes[:-1]])
    j, k = np.concatenate([o + np.array(np.triu_indices(s, 1)) for o, s in zip(offsets, sizes)], axis=1)
    d = int(sum(sizes))
    diag, sym, anti = np.arange(d), d + np.arange(len(j)), d + len(j) + np.arange(len(j))
    b, p, q = (np.concatenate(x) for x in ((diag, sym, sym, anti, anti), (diag, j, k, j, k), (diag, k, j, k, j)))
    gamma = np.repeat([np.sqrt(2.0), 1.0, 1.0, 1j, -1j], [d] + 4 * [len(j)])[:, None]
    return b, p, q, gamma


def _uniform(seed: int, *shape: int) -> np.ndarray:
    """Seeded draws uniform on [-1/2, 1/2), from the standard library: numpy.random would add
    about 27 ms of imports to every CLI `commutant` and `equiv`."""
    bits = np.frombuffer(random.Random(seed).randbytes(8 * prod(shape)), dtype=np.uint64)
    return bits.reshape(shape) * 2.0**-64 - 0.5


def _small_eigenvectors(gram: np.ndarray, k: int) -> np.ndarray:
    """k Ritz vectors of ``gram`` for its smallest eigenvalues, 0 < k < n: one solve on
    gram + alpha I, alpha = tr(gram) 2^-52, from k + 2 fixed-seed columns, a QR and a
    Rayleigh-Ritz step. ``gram`` is shifted in place and its diagonal restored, bit for bit."""
    n = gram.shape[0]
    start = _uniform(0, n, min(k + 2, n))
    diagonal = gram.diagonal().copy()
    gram.flat[:: n + 1] += float(np.trace(gram)) * 2.0**-52
    try:
        # numpy's solve factors a copy of its own
        q = np.linalg.qr(np.linalg.solve(gram, start))[0]
    finally:
        gram.flat[:: n + 1] = diagonal
    _, v = np.linalg.eigh(q.T @ (gram @ q))
    return q @ v[:, :k]


def _gram_split(gram: np.ndarray, m: int, eps: float, floor: float, raised):
    """Steps 1-3 of the star-closed count: (k, Q_k, q, F^, delta) once at most k singular values
    are certified <= raised(eps + delta), else None; Q_k is None for k = n, standing for the
    identity. delta is at least ``floor``; ``raised`` returns None where it certifies nothing.
    ``gram`` is shifted in place."""
    n = gram.shape[0]
    trace = float(np.trace(gram))
    if not isfinite(trace):
        return None
    f_bar = trace * (1.0 + 2.0 * _gamma(m + n)) + _UNDERFLOW
    delta = max(n * _UNIT_ROUNDOFF * sqrt(f_bar), floor)
    level = raised(eps + delta)
    if level is None:
        return None
    try:
        w = np.linalg.eigvalsh(gram)
        # products, not powers: a square past the float range is inf, and every value lies below it
        k = int(np.count_nonzero(w <= (eps + delta) * (eps + delta) + 2.0 * _gamma(m + n + 8) * f_bar))
        if k == n:
            return k, None, float(n), f_bar, delta
        q_k = _small_eigenvectors(gram, k) if k else np.zeros((n, 0))
    except np.linalg.LinAlgError:
        return None
    q_bar = _sum_of_squares(q_k)
    c = ldexp(1.0, frexp(float(w[k]))[1])
    tau = level * level + 2.0 * _gamma(m + n + k + 8) * (f_bar + c * q_bar) + 4 * _UNDERFLOW
    deflation = q_k @ q_k.T
    deflation *= c
    gram += deflation
    del deflation
    gram.flat[:: n + 1] -= tau * (1.0 + _BOUND_SLACK)
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return None
    return k, q_k, q_bar, f_bar, delta


def _spans_small_values(chunks, q_k: np.ndarray | None, q_bar: float, f_bar: float, limit: float) -> bool:
    """Step 4 of the star-closed count: the range of ``q_k`` (the identity when None) certifies
    k singular values of the stack S at or below ``limit``; ``chunks`` yields S^T by columns."""
    if q_k is None:
        # Q_k = I: ||S||_2 <= ||S||_F <= sqrt(F^), and no chunk is built
        phi, eta = 0.0, sqrt(f_bar)
    else:
        n, k = q_k.shape
        gram_k = q_k.T @ q_k
        gram_k.flat[:: k + 1] -= 1.0
        phi = sqrt(_sum_of_squares(gram_k)) * (1.0 + 2.0 * _UNIT_ROUNDOFF) + _gamma(n) * q_bar + _UNDERFLOW
        image = fsum(_sum_of_squares(q_k.T @ chunk) for chunk in chunks)
        eta = sqrt(image) + _gamma(n) * sqrt(f_bar * q_bar) + _UNDERFLOW
    return phi <= 0.5 and limit > 0.0 and eta * eta * (1.0 + _BOUND_SLACK) <= limit * limit * (1.0 - phi)


def _stack_chunks(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple):
    """The real stack S^T of `_star_closed_count` by columns, d // 2 output rows of one map at a
    time: from d = 2 on, each chunk holds at most d^4 entries, the size of the full Gram matrix."""
    d = pairs[0][0].shape[0]
    step = max(1, d // 2)
    for pair in pairs:
        for lo in range(0, d, step):
            # row b holds the image of unknown b, Re and Im of each entry in turn
            yield _sylvester_rows([pair], basis, lo, min(lo + step, d)).view(float)


def _gram_count(pairs: list[tuple[np.ndarray, np.ndarray]], basis: tuple, eps: float,
                floor: float = 0.0, raised=lambda level: level) -> int | None:
    """Steps 1-4 on the real stack of ``pairs`` over ``basis``: its count of singular values at or
    below eps, certified with none within delta of eps, else None (see `_gram_split`)."""
    n = _basis_size(basis)
    gram, product = np.zeros((n, n)), np.empty((n, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in _stack_chunks(pairs, basis):
            gram += np.matmul(chunk, chunk.T, out=product)
            del chunk  # before the next one is built
    del product
    # the stack has Re and Im rows of every entry of each map, over n unknowns
    split = _gram_split(gram, 2 * len(pairs) * pairs[0][0].size, eps, floor, raised)
    del gram
    if split is None:
        return None
    k, q_k, q_bar, f_bar, delta = split
    return k if _spans_small_values(_stack_chunks(pairs, basis), q_k, q_bar, f_bar, eps - delta) else None


# Consecutive eigenvalues of the first tier's Hermitian element this close share one block.
_CLUSTER_GAP = 1e-6


def _eigenbasis_step(mats: list[np.ndarray]) -> tuple | None:
    """The eigenbasis of one Hermitian element A = sum c_k V_k + h.c. of the family ``mats``, with
    the bounds of step 0 of `commutant_dimension` on it: (c, sizes, conjugated, v_bar, e, g,
    epsilon, sigma). ``c`` holds the coefficients c_k, ``sizes`` the block sizes k_b of eigh(A),
    ``conjugated`` the V'_k = fl(Q^* V_k Q^) and ``v_bar`` sum_k ||V_k||_F^2. None where a check
    fails, or where one block is all of C^d."""
    d = mats[0].shape[0]
    real, imag = _uniform(1, 2, len(mats))
    c = real + 1j * imag
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.tensordot(c, mats, 1)
        a += a.conj().T
        if not np.isfinite(a).all():
            return None
        try:
            lam, q = np.linalg.eigh(a)
        except np.linalg.LinAlgError:
            return None
        cuts = np.flatnonzero(np.diff(lam) > _CLUSTER_GAP) + 1
        if not len(cuts):
            return None
        sizes = np.diff([0, *cuts, d])
        qh = q.conj().T
        conjugated = [qh @ v @ q for v in mats]
        # A' = sum c_k V'_k + h.c. of the conjugated family, less the eigenvalues eigh returned
        a_conj = np.tensordot(c, conjugated, 1)
        a_conj += a_conj.conj().T
        a_conj.flat[:: d + 1] -= lam
        block = np.repeat(np.arange(len(sizes)), sizes)
        inside = block[:, None] == block
        norms = fsum(abs(ck) * sqrt(_sum_of_squares(v)) for ck, v in zip(c, conjugated))
        rounding = 2.0 * _gamma(2 * len(mats) + 8) * norms
        e = sqrt(_sum_of_squares(a_conj[~inside])) * (1.0 + _BOUND_SLACK) + rounding
        rho = sqrt(_sum_of_squares(a_conj[inside])) * (1.0 + _BOUND_SLACK) + rounding
        g = float(np.min(lam[cuts] - lam[cuts - 1])) * (1.0 - _BOUND_SLACK) - 2.0 * rho
        q_bar = _sum_of_squares(q)
        gram_q = qh @ q
        gram_q.flat[:: d + 1] -= 1.0
        theta = sqrt(_sum_of_squares(gram_q)) * (1.0 + 2.0 * _UNIT_ROUNDOFF)
        theta += _gamma(2 * d + 4) * q_bar + _UNDERFLOW
        v_bar = fsum(_sum_of_squares(v) for v in mats)
    if not (g > 0.0 and theta < 1.0 and isfinite(e + v_bar + q_bar)):
        return None
    scale = 2.0 * sqrt(2.0) * sqrt(v_bar) * (1.0 + _BOUND_SLACK)
    epsilon = scale * (2.0 * theta + theta * theta + _gamma(4 * d + 8) * q_bar)
    sigma = scale + epsilon
    return c, sizes, conjugated, v_bar, e, g, epsilon, sigma


def _eigenbasis_count(mats: list[np.ndarray], eps: float) -> int | None:
    """The first tier of the star-closed count: steps 1-4 on the block-diagonal Hermitian unknowns
    of `_eigenbasis_step`, at its raised level; None where the step or the count cannot decide."""
    if (step := _eigenbasis_step(mats)) is None:
        return None
    c, sizes, conjugated, v_bar, e, g, epsilon, sigma = step
    d = mats[0].shape[0]
    m = 2 * len(mats) * d * d
    band = d * d * _UNIT_ROUNDOFF * sqrt(4.0 * d * v_bar * (1.0 + 4.0 * _gamma(m + d * d + 2)) + _UNDERFLOW)
    c_norm = sqrt(fsum(abs(ck) ** 2 for ck in c)) * (1.0 + _BOUND_SLACK)

    def raised(level: float) -> float | None:
        z = (sqrt(2.0) * c_norm * level + 2.0 * e) / g * (1.0 + _BOUND_SLACK)
        if not z < 1.0:
            return None
        return (level + sigma * z) / sqrt(1.0 - z * z) * (1.0 + _BOUND_SLACK)

    return _gram_count([(v, v) for v in conjugated], _hermitian_units(sizes), eps, band + epsilon, raised)


def _star_closed_count(pairs: list[tuple[np.ndarray, np.ndarray]], d: int, eps: float) -> int:
    """The star-closed count of `commutant_dimension`: certified on the eigenbasis blocks, else
    from the full Gram matrix, else the SVD."""
    count = _eigenbasis_count([b1 for b1, _ in pairs], eps)
    if count is None:
        count = _gram_count(pairs, _hermitian_units([d]), eps)
    if count is not None:
        return count
    rows = _sylvester_stack(pairs, _hermitian_units([d])).view(float)
    return int(np.count_nonzero(np.linalg.svd(rows.T, compute_uv=False) <= eps))


def commutant_dimension(
    ops: list[np.ndarray],
    tol: Tolerance = DEFAULT_TOL,
    include_adjoints: bool = False,
) -> int:
    """Dimension of {X : XA = AX for every A in the family}.

    The family is exactly ``ops`` unless ``include_adjoints`` is set, which
    star-closes it (the right notion for reducibility questions). Solved
    on the stacked Sylvester maps X -> XA - AX in row-major vectorization:
    the stack is at least as tall as it is wide, so the dimension counts its d^2
    singular values at or below eps, absolute: the cut of every Sylvester null
    space here, as norm-O(1) operators keep rounding far below it. No singular
    vectors are formed; 0 for 0 x 0 operators, else >= 1. Dense for any matrices
    (a certified tuple's is read off its leaves by `DecompositionTree.commutant_dimension`).

    A star-closed family is solved in real arithmetic. X commutes with it exactly
    when X* does, so write X = A + iB with A, B Hermitian. The map S of the family
    sends A to (M_k, -M_k*) and iB to (N_k, N_k*) with M_k = [A, V_k], N_k = [iB, V_k],
    whose real inner product is sum Re tr(M_k* N_k) - Re tr(M_k N_k*) = 0, and
    S(iB) = i S(B). So S is, as a real map, the direct sum of two copies of
    S_H(A) = sqrt(2) ([A, V_k])_k on Hermitian A: the d^2 complex singular values of S
    are those of the real stack of S_H, m = 2 N d^2 rows over n = d^2 unknowns.

    The star-closed count is read off the Gram matrix G = S^T S of that real stack S,
    first on the eigenbasis blocks of one Hermitian element of the family (step 0), then
    on all of S, with its SVD only where the bounds below cannot decide. Write u = 2^-53,
    gamma_j = j u / (1 - j u), F = ||S||_F^2 and mu = 2^-900, which covers every
    underflow term; each bound is evaluated with 1 + `_BOUND_SLACK` to spare, far
    above its own rounding.

    1. Gram. G^ = sum_c fl(S_c^T S_c) is summed over row chunks S_c of S, each d // 2
       output rows of one map: every entry is still the sum of the m products of two
       columns of S, in some order. A computed product of inner dimension j, in any order
       of its sums, errs entrywise by gamma_j times the product of the absolute values
       (Higham, *Accuracy and Stability*, section 3.5), so G^ is within gamma_m F of
       S^T S in norm. Its diagonal sums squares, so F <= F^ = tr G^ (1 + 2 gamma_{m+n}) + mu.
       The band delta = n u sqrt(F^) sits n times above LAPACK's own error estimate
       u ||S||_2 for the singular values its SVD returns.
    2. Split. eigvalsh(G^) gives ascending w; k counts the w_i at or below
       (eps + delta)^2 + 2 gamma_{m+n+8} F^ (a square past the float range is inf, so
       every value counts). For 0 < k < n, Q_k holds k Ritz vectors:
       one solve of (G^ + alpha I) X = W, alpha = 2^-52 tr G^, from k + 2 columns W of a
       fixed seed, Q from the QR of X, and Q_k = Q V_k for the k smallest eigenvalues of
       Q^T G^ Q. Q_k is empty for k = 0 and the identity, never formed, for k = n, where
       no solve is taken. Nothing below assumes that w or Q_k is accurate: a poor split
       only makes a check fail.
    3. At most k, at a level s: eps + delta on the full stack, s_req in step 0. Let c be
       the power of two at or above w_{k+1}, q >= ||Q_k||_F^2 and
       tau = s^2 + 2 gamma_{m+n+k+8} (F^ + c q) + 4 mu. The matrix
       M = fl(G^ + c fl(Q_k Q_k^T) - tau I) differs from A = S^T S + c Q_k Q_k^T - tau I
       by at most gamma_{m+3} F + gamma_{k+3} c q + u tau + 3 mu, and its trace is at most
       (1 + gamma_{m+1}) F + (1 + gamma_{k+1}) c q + mu. If Cholesky runs to completion on
       M, its factor gives M + dM = R^T R positive definite with ||dM||_2 <= gamma_{n+1}
       tr(M) / (1 - gamma_{n+1}) (ibid., Thm 10.3). The two bounds sum to less than
       tau - s^2, so lambda_min(A) > s^2 - tau. As c Q_k Q_k^T is positive semidefinite
       of rank <= k, Weyl's inequalities give lambda_min(A) <= lambda_{k+1}(S^T S) - tau:
       at most k singular values of S are <= s.
    4. At least k. With the chunks rebuilt, phi = ||fl(Q_k^T Q_k) - I||_F (1 + 2u) +
       gamma_n q + mu bounds ||Q_k^T Q_k - I||_2 and eta = (sum_c ||fl(S_c Q_k)||_F^2)^1/2
       + gamma_n sqrt(F^ q) + mu bounds ||S Q_k||_2: the S_c Q_k are the row chunks of
       S Q_k, each of inner dimension n. If phi <= 1/2, each x = Q_k y of the
       k-dimensional range of Q_k has ||S x|| <= eta ||y|| <= eta ||x|| / sqrt(1 - phi), so
       by Courant-Fischer at least k singular values are at most eta / sqrt(1 - phi). The
       check asks for eps - delta. For Q_k = I no chunk is built: phi = 0 and
       eta = sqrt(F^) >= ||S||_F.
    5. Fallback. When either check fails, G^ overflows, or eigvalsh, the solve or a
       factorization of the split fails in LAPACK, the count is that of the values-only
       SVD of the whole stack, built only then.

    0. Eigenbasis blocks, the first tier (Murota, Kanno, Kojima and Kojima, Japan J.
       Indust. Appl. Math. 27, 2010). Every X of the commutant commutes with the Hermitian
       A = sum_k (c_k V_k + conj(c_k) V_k*), c_k fixed draws of `_uniform`, so it is block
       diagonal over the eigenspaces of A. eigh(A) gives ascending lambda and Q^;
       consecutive eigenvalues within 1e-6 share a block, of size k_b. Steps 1-4 run on
       S'_B: the columns, for the r = sum k_b^2 block-diagonal Hermitian unknowns, of the
       stack S' of the stored V'_k = fl(Q^* V_k Q^). With one block (r = d^2) the tier is
       skipped; wherever a check of it fails, steps 1-5 run on S as if it had not been tried.
       Its bounds, each on the computed data:
       - W, the unitary polar factor of Q^, and S_W, the stack of the W* V_k W: X -> W* X W
         is unitary on inputs and outputs, so S_W has the singular values of S.
       - theta >= ||Q^* Q^ - I||_2 is formed as phi in step 4, with gamma_{2d+4} for a
         complex product. Q^ = W P with ||P - I||_2 <= theta, so ||Q^* V Q^ - W* V W||_2 <=
         (2 theta + theta^2) ||V||_2, and the two stored products err by gamma_{4d+8}
         ||Q^||_F^2 ||V||_F in Frobenius norm. ||S x|| = (sum_k ||[X, V_k]||_F^2)^1/2 with
         ||X||_F = sqrt(2) ||x||, so ||S||_2 <= s_V = 2 sqrt(2) (sum_k ||V_k||_F^2)^1/2 and
         epsilon = s_V (2 theta + theta^2 + gamma_{4d+8} ||Q^||_F^2) >= ||S' - S_W||_2;
         sigma = s_V + epsilon >= ||S'||_2.
       - A' = sum_k c_k V'_k + h.c., exactly, and D its block-diagonal part. fl(A') errs by
         at most 2 gamma_{2N+8} sum_k |c_k| ||V'_k||_F; with it, the Frobenius norms of the
         off-block and block parts of fl(A') - diag(lambda) give e >= ||A' - D||_2 and
         rho >= ||D - diag(lambda)||_2. By Weyl's inequalities each diagonal block of D has
         its spectrum within rho of its own lambda, so g = (smallest gap of lambda between
         consecutive blocks) - 2 rho bounds the distance between the spectra of any two.
       - delta, at least d^2 u (4d sum_k ||V_k||_F^2)^1/2, the band of step 1 on all of S
         (F <= 4d sum_k ||V_k||_F^2), plus epsilon; L = eps + delta,
         z0 = (sqrt(2) ||c||_2 L + 2e) / g, and step 3 runs at
         s_req = (L + sigma z0) / sqrt(1 - z0^2), step 4 at eps - delta, and only for z0 < 1.
       At least k: step 4 gives a k-dimensional range with ||S' x|| <= (eps - delta) ||x||,
       so ||S_W x|| <= (eps - delta + epsilon) ||x||. At most k: were k + 1 singular values
       of S at or below eps + delta - epsilon, S' would have a (k + 1)-dimensional U with
       ||S' x|| <= L ||x||. For Hermitian X, [X, V*] = -[X, V]*, so ||[X, A']||_F <=
       2 ||c||_2 ||S' x||. ad_D keeps block-diagonal and off-block parts apart, and its
       off-block part X_O has ||[X_O, D]||_F >= g ||X_O||_F (the blocks of D are
       Hermitian); as the off-block part of [X, A'] is [X_O, D] plus that of [X, A' - D],
       g ||X_O||_F <= 2 ||c||_2 ||S' x|| + 2e ||X||_F, that is ||x_O|| <= z0 ||x|| on U.
       With z0 < 1, x -> x_B is one-to-one on U, and ||S' x_B|| <= ||S' x|| + sigma ||x_O||
       <= s_req ||x_B||: k + 1 singular values of S'_B at or below s_req, which step 3
       excludes. For k = r there is no step 3: no r + 1 dimensions map one-to-one into r.

    Steps 3 and 4, in either tier, leave no singular value of S within delta of eps (in
    step 0, delta - epsilon, still at least the band of step 1 on S), so the certified count
    is the one that SVD would return unless its values erred by n times LAPACK's estimate.
    Exact models keep a wide gap on both sides; near the cutoff, or when noise moves a
    commutant direction off zero by far more than eps, a check fails and the SVD decides.
    The plain branch keeps its SVD: its one-operator stack is square, so G would be as
    large as the stack.

    Operators that are not square or not all of one shape raise before any stack is
    built. Above COMMUTANT_MAX_BYTES a system raises `CommutantTooLargeError` first. The
    plain branch peaks at its stack of N complex d^2 x d^2 blocks and the copy numpy's SVD
    makes. The star-closed stack is the same size (Re and Im of each entry in turn), but
    the Gram route never holds it. A chunk of S^T is at most d^4 reals, the size of G^ on
    all of S, and G^ is half a block, so each phase holds at most 1.5 blocks: G^, one chunk and one
    chunk product; then G^ and the copy that eigvalsh, numpy's solve or Cholesky makes
    (with Cholesky's factor); then two chunks. Beside them sit n x (k + 2) arrays for the
    solve and Q_k. Only the fallback builds the stack, and it peaks as the plain branch
    does. The guard still counts max(2N, 2.5) blocks, so for one operator its 2.5 is now
    conservative. Step 0 holds the N conjugated operators and a few d x d arrays beside the
    same phases over r <= d^2 unknowns: r x r matrices and chunks of r d^2 reals. The Gram
    sums and the products of step 0 run with numpy's overflow and invalid warnings off: an
    overflow leaves a non-finite trace or bound, and the next tier runs.
    """
    mats = [_require_square(a) for a in ops]
    if not mats:
        raise ValueError("need at least one operator")
    for n, m in enumerate(mats[1:], 2):
        if m.shape != mats[0].shape:
            raise DimensionMismatchError(f"operator {n} has shape {m.shape}, operator 1 has shape {mats[0].shape}")
    d, pairs = mats[0].shape[0], [(m, m) for m in mats]
    if include_adjoints:
        _check_size(2 * len(mats), d, max(2 * len(mats), 2.5))
        return _star_closed_count(pairs, d, tol.eps)
    _check_size(len(mats), d, 2 * len(mats))
    singular_values = np.linalg.svd(_sylvester_stack(pairs, _matrix_units(d)).T, compute_uv=False)
    return int(np.count_nonzero(singular_values <= tol.eps))


def _match_unitary(pairs: list[tuple[np.ndarray, np.ndarray]], m: int, tol: Tolerance) -> np.ndarray | None:
    """A unitary X on C^m with X A1 = A2 X within 100 eps for every pair (A1, A2) of m x m
    unitaries, verified pair by pair; None where no candidate passes."""
    if not pairs:
        return identity(m)
    # X A1 = A2 X for every pair. For unitaries this implies X A1* = A2* X, since
    # X A1* - A2* X = -A2* (X A1 - A2 X) A1*: the star-closed stack is [S; W S] with W
    # unitary, so its singular values are sqrt(2) times those of S, and the cut at
    # eps / sqrt(2) on S is the eps cut on that stack. Unitary pairs give S norm O(1),
    # so the cut is absolute. It is the null space of the square R factor, so no left
    # factor as tall as the stack is formed. The peak, all of it counted by the guard, is
    # the stack (written in place), the two copies np.linalg.qr makes (astype and its
    # column-major buffer) and R
    _check_size(len(pairs), m, 3 * len(pairs) + 1)
    _, s, vh = np.linalg.svd(np.linalg.qr(_sylvester_stack(pairs, _matrix_units(m)).T, mode="r"))
    basis = [x.conj().reshape(m, m) for x in vh[s <= tol.eps / sqrt(2)]]
    if not basis:
        return None
    for attempt in range(8):
        real, imag = _uniform(attempt, 2, len(basis))
        z = sum(c * x for c, x in zip(real + 1j * imag, basis))
        w, s, vh = np.linalg.svd(z)
        if s[0] == 0 or s[-1] < 1e-8 * s[0]:
            continue
        u = w @ vh  # the unitary polar factor of z, from the SVD the conditioning test read
        if all(_norm_within(u @ a1 - a2 @ u, tol.eps * 100) for a1, a2 in pairs):
            return u
    return None
