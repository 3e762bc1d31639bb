"""Products of a stack of square matrices laid out along the last axis.

The reduction serves the oracle's transfer-matrix walk (semiq.oracle), and
the scan the matter propagators of the emergent clock (semiq.minisuperspace).
p has shape (d, d, ..., n), and p[..., i] is the i-th matrix.  Both multiply
pairs with one einsum of the same subscripts.
"""

import numpy as np

_PAIRS = "ij...n,jk...n->ik...n"     # one product per pair, batched over ...


def suffix_products(p):
    """Scan over the last axis: p[..., i] becomes p_i @ p_{i+1} @ ... @ p_last.

    Hillis-Steele doubling, so log2(n) array steps replace n matrix products.
    p holds each matrix minus the identity, and so does the result:
    (I + a)(I + b) - I = ab + a + b.  Products of near-identity matrices
    then keep their small deviations from I to full precision, where
    rounding them next to the 1 on the diagonal would add up over
    neighbouring, nearly equal products.
    """
    step = 1
    while step < p.shape[-1]:
        a, b = p[..., :-step], p[..., step:]
        q = np.einsum(_PAIRS, a, b)
        q += a
        q += b
        p[..., :-step] = q
        step *= 2
    return p


def products(p):
    """Reduce over the last axis: p_0 @ p_1 @ ... @ p_last.

    Pairwise: each level multiplies neighbours (2k, 2k+1) and carries an odd
    last matrix up unchanged.
    """
    while p.shape[-1] > 1:
        q = np.einsum(_PAIRS, p[..., :-1:2], p[..., 1::2])
        p = np.concatenate((q, p[..., -1:]), axis=-1) if p.shape[-1] % 2 else q
    return p[..., 0]
