"""Bundled golden tables, transcribed once from the paper and read-only.

TRIANGLES: rows 0..7 of Catalan's and Borel's triangles, row n with
n + 1 entries.

WALK_POLYNOMIALS: n -> the walk-polynomial coefficients for n = 1..6,
exponent-descending, as ``walks.walks_polynomial(n)`` returns them.

K_RETURN_MULTIPLIERS: (n, k) -> m for 1 <= k <= n <= 6, where m is the
shape count multiplying delta^k (delta-1)^(n-k) in the per-return
breakdown of W(2n).

The rows and coefficient lists are lists, so a computed tuple compares
equal to one only after ``list()``; nothing may mutate them.
"""

TRIANGLES = {
    "catalan": [
        [1],
        [1, 1],
        [1, 2, 2],
        [1, 3, 5, 5],
        [1, 4, 9, 14, 14],
        [1, 5, 14, 28, 42, 42],
        [1, 6, 20, 48, 90, 132, 132],
        [1, 7, 27, 75, 165, 297, 429, 429],
    ],
    "borel": [
        [1],
        [2, 1],
        [5, 6, 2],
        [14, 28, 20, 5],
        [42, 120, 135, 70, 14],
        [132, 495, 770, 616, 252, 42],
        [429, 2002, 4004, 4368, 2730, 924, 132],
        [1430, 8008, 19656, 27300, 23100, 11880, 3432, 429],
    ],
}

WALK_POLYNOMIALS = {
    1: [1],
    2: [2, -1],
    3: [5, -6, 2],
    4: [14, -28, 20, -5],
    5: [42, -120, 135, -70, 14],
    6: [132, -495, 770, -616, 252, -42],
}

K_RETURN_MULTIPLIERS = {
    (1, 1): 1,
    (2, 1): 1, (2, 2): 1,
    (3, 1): 2, (3, 2): 2, (3, 3): 1,
    (4, 1): 5, (4, 2): 5, (4, 3): 3, (4, 4): 1,
    (5, 1): 14, (5, 2): 14, (5, 3): 9, (5, 4): 4, (5, 5): 1,
    (6, 1): 42, (6, 2): 42, (6, 3): 28, (6, 4): 14, (6, 5): 5, (6, 6): 1,
}
