"""Repository benchmark: fleet SPECTR vs. baselines, the paper campaign,
and supervisor synthesis.  ``python3 perfbench/run.py --help`` runs it."""
