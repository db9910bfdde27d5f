"""Exact counting laboratory for factorization statistics in F_q[t].

Everything is computed with exact arithmetic: field elements are held as
indices in [0, q) and written as digit vectors over F_p, counts are Python
integers, probabilities and expected values are `fractions.Fraction`.
Floating point appears only when reports render the normalized deviation
constant as a decimal string.
"""

__version__ = "0.1.0"
