"""The ten fetch policies of the paper's Table 1.

Each policy ranks the runnable hardware contexts every cycle; the Thread
Selection Unit fetches from the top-ranked threads. Policy provenance
(paper §5): ICOUNT, BRCOUNT, L1DMISSCOUNT and RR come from Tullsen et al.
(ISCA'96); LDCOUNT, MEMCOUNT, ACCIPC and STALLCOUNT are the paper's
additions; L1MISSCOUNT and L1IMISSCOUNT complete the cache-focused set.
"""
