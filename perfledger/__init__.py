"""perfledger: the end-to-end + per-layer benchmark of the repro simulator.

See perfledger/README.md; run with ``python -m perfledger``.
"""
