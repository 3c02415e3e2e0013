"""Experimental P-frame codec harness for comparing motion estimators:
internal block search, dense optic-flow fields reduced to block vectors,
and hybrid RD-based candidate selection."""
