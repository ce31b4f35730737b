"""Equivalence-class invariants: spectra, ortho derivatives, graph ranks.

Run:  python demos/04_equivalence_invariants.py  (about 0.8 s on one x86-64 core)
"""

from apn_forge import catalog, equiv, mk_field
from apn_forge.vbf import power_map

print("profiles of the six dimension-8 representatives of x^9+L(x^3):")
funcs = [catalog.x9_rep(8, i).realize() for i in range(6)]
profiles = [equiv.profile(F) for F in funcs]
buckets = equiv.partition(funcs, profiles=profiles)
print(f"  {len(buckets)} invariant-distinct buckets out of {len(funcs)} representatives")
for i, p in enumerate(profiles):
    od = dict(p.ortho_diff_spectrum)
    print(f"  rep {i}: ortho diff spectrum head {dict(list(od.items())[:4])}")

print("\nthe ortho derivative of a power map is the matching negative power:")
ctx5 = mk_field(5)
pi = equiv.ortho_derivative(power_map(ctx5, 3))
print(f"  pi(a) == a^-3 for all a: {all(pi(a) == ctx5.pow(a, -3) for a in range(1, 32))}")

print("\nwhen every binary invariant collides, the GF(3) translate rank decides:")
F1 = power_map(ctx5, 9)
F2 = catalog.x9_rep(5, 1).realize()  # x^9 + Tr(x^3)
p1 = equiv.profile(F1)
p2 = equiv.profile(F2)
print(f"  base profiles equal: {p1.key() == p2.key()}")
print(f"  gamma3 ranks: {equiv.gamma3_rank(F1)} vs {equiv.gamma3_rank(F2)} -> inequivalent")

print("\ngraph/difference ranks are class constants (frozen regression value):")
print(f"  gamma rank of x^3 over GF(2^6): {equiv.gamma_rank(power_map(mk_field(6), 3))}")
