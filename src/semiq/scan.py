"""Products of a stack of square matrices laid out along the last axis.

One place for both: the oracle's transfer-matrix walk (semiq.oracle) and
the matter propagators of the emergent clock (semiq.minisuperspace).
p has shape (d, d, ..., n), and p[..., i] is the i-th matrix.
"""

import numpy as np


def suffix_products(p, minus_identity=False):
    """Scan over the last axis: p[:, :, i] becomes p_i @ p_{i+1} @ ... @ p_last.

    Hillis-Steele doubling, so log2(n) array steps replace n matrix products.
    With minus_identity, p holds each matrix minus the identity, and so does
    the result: (I + a)(I + b) - I = ab + a + b.  Products of near-identity
    matrices then keep their small deviations from I to full precision,
    where rounding them next to the 1 on the diagonal would add up over
    neighbouring, nearly equal products.
    """
    step = 1
    while step < p.shape[-1]:
        a, b = p[..., :-step], p[..., step:]
        q = np.einsum("ijn,jkn->ikn", a, b)
        if minus_identity:
            q += a
            q += b
        p[..., :-step] = q
        step *= 2
    return p


def products(p):
    """Reduce over the last axis: p_0 @ p_1 @ ... @ p_last, for real 2x2 p.

    Pairwise: each level multiplies neighbours (2k, 2k+1) and carries an odd
    last matrix up unchanged.  These are the blocks, in the same order, of
    the first element of suffix_products, and the component arithmetic
    rounds as its einsum does, so the two agree bit for bit.
    """
    while p.shape[-1] > 1:
        n = p.shape[-1]
        a, b = p[..., 0:n - 1:2], p[..., 1::2]
        q = np.empty(p.shape[:-1] + ((n + 1) // 2,))
        for i in range(2):
            for k in range(2):
                np.multiply(a[i, 0], b[0, k], out=q[i, k, ..., :n // 2])
                q[i, k, ..., :n // 2] += a[i, 1] * b[1, k]
        if n % 2:
            q[..., -1] = p[..., -1]
        p = q
    return p[..., 0]
