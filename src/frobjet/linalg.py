"""Exact p-adic linear algebra over Z/p^K with valuation pivoting.

Row reduction picks, at every step, a pivot of minimal p-adic valuation over
the whole remaining block (full pivoting with column tracking), divides its
row by the unit part and eliminates below; entries indistinguishable from
zero at the working precision never become pivots.  Each pivot row is then
divisible by its pivot, so the kernel comes from back-substitution.  Rank is
therefore certified from below, and the reported kernel dimension comes with
the list of pivot valuations consumed along the way.
"""

from __future__ import annotations

from . import polyutils as pu
from .errors import CertificateFailure, PrecisionExhausted


def padic_nullspace(M, p: int, K: int):
    """Kernel data of an m x n integer matrix taken mod p^K.

    Returns a dict with ``rank`` (number of pivots, each of valuation < K),
    ``pivot_valuations``, ``kernel`` (basis vectors mod p^cert) and
    ``certificate`` (the absolute precision to which kernel membership is
    guaranteed).
    """
    pk = p ** K
    m = len(M)
    n = len(M[0]) if m else 0
    A = [[x % pk for x in row] for row in M]
    colperm = list(range(n))
    pivots = []
    r = 0
    while r < min(m, n):
        best = None
        for i in range(r, m):
            for j in range(r, n):
                if A[i][j]:
                    v = pu.vp_capped(A[i][j], p, K)
                    if best is None or v < best[0]:
                        best = (v, i, j)
        if best is None:
            break
        v, bi, bj = best
        A[r], A[bi] = A[bi], A[r]
        if bj != r:
            for row in A:
                row[r], row[bj] = row[bj], row[r]
            colperm[r], colperm[bj] = colperm[bj], colperm[r]
        unit = A[r][r] // p ** v
        inv = pu.modinv(unit, pk)
        A[r] = [(x * inv) % pk for x in A[r]]
        # now A[r][r] = p^v; eliminate the column below it
        for i in range(r + 1, m):
            if A[i][r] == 0:
                continue
            q = A[i][r] // p ** v
            if A[i][r] % p ** v:
                raise CertificateFailure(
                    "pivot valuation not minimal -- elimination bug")
            A[i] = [(x - q * y) % pk for x, y in zip(A[i], A[r])]
        pivots.append(v)
        r += 1
    rank = len(pivots)
    cert = K - sum(pivots)
    if cert < 1:
        raise PrecisionExhausted("pivot valuations consumed the precision")
    pc = p ** cert
    kernel = []
    for free in range(rank, n):
        vec = [0] * n
        vec[colperm[free]] = 1
        for i in range(rank - 1, -1, -1):
            # p^v_i x_(c_i) + sum_(j > i) A[i][j] x_(c_j) = 0, p^v_i | A[i][j]
            s = sum(A[i][j] * vec[colperm[j]] for j in range(i + 1, n))
            vec[colperm[i]] = (-(s // p ** pivots[i])) % pc
        kernel.append(vec)
    return {"rank": rank, "pivot_valuations": pivots, "kernel": kernel,
            "certificate": cert, "dimension": n - rank}
