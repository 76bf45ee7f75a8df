#!/usr/bin/env python3
"""Certify every classified solution family with formal parameters.

For each family case and each monic factor degree 0..5 (with formal
coefficients), the script builds the canonical lift and runs the
invariance, weak, and strict checks symbolically, printing one row per
instance.  The weak and strict verdicts come from one double bracket,
built modulo the total derivation: the generator actions on it, and
whether it vanishes.

Degree 5 proves every degree.  On a family profile every entry is
A'_p(x) = b_p + a_p F(x), F(x) = x f(x^2) odd, with b_p and a_p free
of x, d1, d2, d3 and of f.  Every verdict reads the diagonal at linear
forms, and the inserted brackets are structure constants, so each
verdict coefficient is a sum of c A'_p(L) A'_q(M) (the weak and strict
verdicts) or of c A'_p(L) (invariance), c rational.  Since F(-u) =
-F(u), it is

    K0 + sum_u K1(u) F(u) + sum_{u,v} K2(u, v) F(u) F(v),

with every K free of f and of d1, d2, d3, and u, v running over the
forms' classes up to sign.  The weak verdict's 8 forms, -d2, -(d2+d3),
-d3, d2 and their slot shifts d1, d1+d3, -(d1+d3), d1+d2 (see
ybe.catalog_diffs), fall into 6 classes: d2, d3, d2+d3, d1, d1+d3 and
d1+d2; the strict and invariance verdicts use some of them.  Let f be
monic of degree 5, f = t^5 + f4 t^4 + ... + f0 with f0 ... f4 formal,
so F(u) = sum_{k<=5} f_k u^(2k+1) with f5 = 1.  The coefficient of
each monomial in f0 ... f4, split by total degree in d1, d2, d3 (K0
has degree 0, the K1 terms 2k+1 and the K2 terms 2k+2l+2), gives K0
and the moments

    sum_u K1(u) u^(2k+1)   and   sum_{u,v} Ks(u, v) u^(2k+1) v^(2l+1),

for 0 <= k, l <= 5, Ks(u, v) = K2(u, v) + K2(v, u): 6 moments per
class, as many as there are classes.  A verdict that vanishes makes
every moment vanish.  At a point where the 6 classes take values with
distinct nonzero squares (d1, d2, d3 = 1, 2, 4 gives 1, 2, 3, 4, 5,
6), the moments are u times the 6x6 Vandermonde matrix in u^2 applied
to K1, and its tensor square applied to Ks; both are invertible, so
K0, every K1 and every Ks vanish.  Then sum K2(u, v) F(u) F(v) =
1/2 sum Ks(u, v) F(u) F(v) vanishes too, and the verdict vanishes for
every f of every degree.

The exit status is 0 if every instance passes and 1 otherwise.  If the
reader closes standard output early (as `| head` does), the script
stops there without a traceback and exits 141 (128 + SIGPIPE, the
status a shell reports for a process that SIGPIPE ends).
"""

import os
import sys
import time

from ccybe import families
from ccybe.exactpoly import SymbolRegistry
from ccybe.ybe import ccybe_bracket, is_invariant, lift_profile, weak_verdict

CASES = [
    ("thm5_i", lambda reg: {"alpha": reg.var("alpha"), "beta": reg.var("beta")}),
    ("thm5_ii", lambda reg: {"lhh": reg.var("lhh"), "beta": reg.var("beta"),
                             "zeta": reg.var("zeta")}),
    ("thm5_iii", lambda reg: {n: reg.var(n)
                              for n in ("alpha", "beta", "gamma", "zeta")}),
    ("cor6_i", lambda reg: {"alpha": reg.var("alpha")}),
    ("cor6_ii", lambda reg: {"lhh": reg.var("lhh")}),
    ("cor6_iii", lambda reg: {"alpha": reg.var("u") * reg.var("u"),
                              "beta": reg.var("u") * reg.var("v") * 2,
                              "gamma": reg.var("v") * reg.var("v")}),
]


def formal_monic(reg, degree):
    t = reg.var("t")
    f = t ** degree
    for j in range(degree):
        f = f + reg.var(f"f{j}") * t ** j
    return f


def main() -> int:
    bad = 0
    print(f"{'case':10s} {'deg f':>5s} {'invariant':>9s} {'weak':>5s} {'strict':>6s}")
    for case, make_params in CASES:
        for degree in range(6):
            reg = SymbolRegistry()
            spec = families.FamilySpec(case, reg, make_params(reg),
                                       f=formal_monic(reg, degree))
            r = lift_profile(families.build_profile(spec))
            t0 = time.time()
            inv = is_invariant(r)[0]
            bracket = ccybe_bracket(r)
            weak = weak_verdict(bracket)[0]
            strict = bracket.is_zero()
            if not (inv and weak):
                bad += 1
            if case.startswith("cor6") and not strict:
                bad += 1
            print(f"{case:10s} {degree:5d} {str(inv):>9s} {str(weak):>5s} "
                  f"{str(strict):>6s}  ({time.time() - t0:.2f}s)")
    return 1 if bad else 0


if __name__ == "__main__":
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now goes nowhere, so the flush at exit is quiet too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141
    sys.exit(status)
