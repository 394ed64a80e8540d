"""Exact verification toolkit for the permutation binomials a*x + x^(3q-2) over F_{q^2}.

The package is organized in four layers, each importing only those above
it; import names from the modules:

- ``symalg``:   the bottom layer: integer and F_p[x] arithmetic, primes
                (``factor_trial``, ``prime_factors``, ``is_prime``), the
                bracket polynomial (as 3^d_alpha B_alpha), the elimination
                polynomials g_alpha, resultants and gcd chains mod p.
- ``ffield``:   the extension F_{q^2}, built on ``symalg``: its modulus
                search and its log, exp and Zech tables.
- ``hermite``:  the class period P (the scaling lemma), the coefficient
                sums S_q(alpha, a), the Hermite test and brute force.
- ``classify``: the classification predicate, sporadic tables, the elimination
                pipeline and the exhaustive equivalence sweep.

``cli`` renders every record as text or JSON, as the tool ``permbinom``.
Result records are read-only ``typing.NamedTuple``s, cheaper to create at
import than classes whose methods a decorator generates with ``exec``.
The map evaluated literally, its power sums and the Lemma 3.1 profile, which
check ``hermite``, are test oracles in ``tests/oracles.py``.
"""

__version__ = "0.1.0"
