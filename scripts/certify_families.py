#!/usr/bin/env python3
"""Certify every classified solution family with formal parameters.

For each family case and each monic factor degree 0..3 (with formal
coefficients), the script builds the canonical lift and runs the
invariance, weak, and strict checks symbolically, printing one row per
instance.  The weak and strict verdicts come from one double bracket,
built modulo the total derivation: the generator actions on it, and
whether it vanishes.
"""

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
        for degree in range(4):
            reg = SymbolRegistry()
            spec = families.FamilySpec(case, reg, make_params(reg),
                                       f=formal_monic(reg, degree))
            r = lift_profile(families.build_profile(spec))
            t0 = time.time()
            inv = is_invariant(r)[0]
            bracket = ccybe_bracket(r, reduced=True)
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
    sys.exit(main())
