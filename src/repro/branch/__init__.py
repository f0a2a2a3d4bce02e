"""Branch-prediction substrate.

SimpleSMT inherits SimpleScalar's predictors; the paper's BRCOUNT policy
and COND_BR heuristic condition both key off conditional-branch density and
misprediction rate, so the predictor's *accuracy profile per thread* is the
behaviour that must be faithful. Provided: a 2-bit bimodal predictor whose
table all contexts share, and a simple BTB. The pipeline builds
:class:`~repro.branch.bimodal.BimodalPredictor` directly: the synthetic
per-site Bernoulli branch model gives history predictors nothing to learn.
"""
