"""The KP bilinear identity in the fermionic form, exactly.

For charge-0 tau the bilinear operator couples the fermion modes along
the anticommutator diagonal a + b = -1,

    Omega(tau1 (x) tau2) = sum_a  fermion+[a] tau1 (x) fermion-[-1-a] tau2,

landing in the charge (+1, -1) component of B (x) B.  (In half-integer
mode labels this is the usual pairing of K_{k+1/2} with its dual; the
literal-power indexing used here shifts the diagonal to -1.)  The mode
sum is finite: fermion+[a] kills charge-0 bodies for a >= deg tau1 and
fermion-[-1-a] kills them for a < -deg tau2, so a runs over
[-deg tau2, deg tau1 - 1] and the result is exact with no truncation.
The products of the two legs' terms over the whole diagonal are summed
per partition pair in one pass (`ratfun.sum_products`).
tau is a KP tau-function iff Omega(tau (x) tau) = 0; with the deformed
kernels the same pairing tests the t-deformed hierarchy.

Each leg is translated once.  A charge-0 mode is
K[a] tau = sum_{r >= s} A_(r-s) C_r tau, with s = a + 1 for the plus
leg and s = -a for minus[-1-a], so the whole diagonal is read from the
digit rows {r: C_r tau} (`VertexKernel.translate`) by the digit sum that
builds every mode body (`mode_body`).  With the deformed kernels the
rows are written over the one denominator
M = prod_v (1-t^v)**(max_la m_v(la)), and a tau whose coefficients have
t-denominators has their lcm pulled out in front, so no sum multiplies
the denominators of different la together.  Nothing is cached per basis
vector: a body K[a] p_la of one tau's support is used exactly once, and
in the sum over la almost all of its terms cancel (a fermion mode sends
a Schur function to 0 or to one Schur function, up to sign), so reading
the modes from C_r tau costs far less than building one body per
(shift, la), as `mode_apply` does.
"""

from __future__ import annotations

from itertools import combinations

from .bases import schur
from .fock import DEFORMED_MINUS, DEFORMED_PLUS, FERMION_MINUS, FERMION_PLUS
from .partitions import Partition, partitions_up_to, revlex_key, weight
from .ratfun import RatFun, rat_to_json, sum_products
from .symfunc import SymFunc

# Omega(tau1 (x) tau2) in B^(1) (x) B^(-1), the charge sector of Omega, by its
# nonzero coefficients over partition pairs
Terms = dict[tuple[Partition, Partition], RatFun]


def tensor_to_json(terms: Terms) -> dict:
    entries = sorted(
        terms.items(),
        key=lambda kv: (
            weight(kv[0][0]) + weight(kv[0][1]),
            revlex_key(kv[0][0]),
            revlex_key(kv[0][1]),
        ),
    )
    return {
        "left_charge": 1,
        "right_charge": -1,
        "terms": [
            {"left": list(la), "right": list(mu), "coeff": rat_to_json(c)}
            for (la, mu), c in entries
        ],
    }


def omega_apply(tau1: SymFunc, tau2: SymFunc, deformed: bool = False) -> Terms:
    """The bilinear pairing sum_a K+[a] tau1 (x) K-[-1-a] tau2, exactly, by its
    nonzero terms: {} when it vanishes."""
    plus, minus = (DEFORMED_PLUS, DEFORMED_MINUS) if deformed else (FERMION_PLUS, FERMION_MINUS)
    d1, d2 = tau1.degree(), tau2.degree()
    if d1 < 0 or d2 < 0:
        return {}
    left, right = plus.translate(tau1), minus.translate(tau2)
    legs = []
    for a in range(-d2, d1):
        # charge-0 shifts: a + 1 for plus[a], -a for minus[-1-a]
        body1 = plus.mode_body(a + 1, left)
        if body1:
            legs.append((body1.terms, minus.mode_body(-a, right).terms))
    terms = (((la, mu), c, d, 1) for ls, rs in legs for la, c in ls.items() for mu, d in rs.items())
    return sum_products(terms)


def is_tau(tau: SymFunc, deformed: bool = False) -> bool:
    """True iff tau satisfies the bilinear identity, that is Omega(tau (x) tau)
    has no terms (zero tau counts)."""
    return not omega_apply(tau, tau, deformed)


def search_negative_control(degree_bound: int):
    """First small integer Schur combination violating the bilinear identity.

    Scans tau = s_la + s_mu over pairs of nonempty partitions of weight
    <= degree_bound in a fixed order; returns (tau, terms), the terms of
    Omega(tau (x) tau), or None when there is no pair.  For degree_bound
    >= 2 a witness always exists: the Maya diagrams {1, -2, -3, ...} of (2)
    and {0, -1, -3, ...} of (1,1) differ in two places, so s_2 + s_11 is
    not a tau-function.
    """
    pool = [la for la in partitions_up_to(degree_bound) if la]
    for la, mu in combinations(pool, 2):
        tau = schur(la) + schur(mu)
        terms = omega_apply(tau, tau)
        if terms:
            return tau, terms
    return None
