"""The deterministic search engine and the canned result pipelines.

Run:  python demos/05_search_reproduction.py  (about 2 s on one x86-64 core)
"""

from apn_forge import search
from apn_forge.search import SearchJob

print("binary-coefficient scan of x^9+L(x^3) over GF(2^5):")
s = search.run(SearchJob(field="n=5", shape="x9_plus_L_binary"))
print(s.text())

print("\nthe same scan at n=12 is wiped out by the quick-reject filters:")
s = search.run(SearchJob(field="n=12", shape="x9_plus_L_binary"))
print(s.text())

print("\nrandom sampling is counter-based: reruns and resume never drift:")
job = SearchJob(field="n=9", shape="x9_plus_L_full", sample_count=3000, seed=7)
s1 = search.run(job)
s2 = search.run(job)
print(f"  two runs agree: {s1.verdicts == s2.verdicts}, hits: {len(s1.hits)}")

print("\ndimension scan for x^9+Tr(x^3):")
rep = search.reproduce_dims_scan(max_n=16)
print(search.render_report(rep))

print("\nbent-count relation evidence (small sample; the acceptance suite runs")
print("1e5 per n): the forward half holds, the converse fails at n=8:")
rep = search.reproduce_conjecture(sample_counts={6: 3000, 8: 3000}, seed=0)
print(search.render_report(rep))
