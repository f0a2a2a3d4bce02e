"""Post-run analysis tools.

Turns raw simulation output (quantum histories, ADTS decision logs, switch
ledgers) into the quantities the paper discusses: policy-dominance
structure over time, switch matrices and their quality, phase-change
detection, and fixed-vs-adaptive comparisons with uncertainty estimates.
"""
