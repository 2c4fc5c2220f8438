"""Digital circles on the integer lattice, built step by step with exact sign decisions.

The central construction walks a quarter circle from (r, 0) to (0, r) in
2r unit moves, choosing at each point between stepping left and stepping
up by comparing how far each candidate lands from the target circle.  The
comparison is decided in integer arithmetic, so traces are reproducible
bit for bit.  On top of the construction sit a path-validity checker,
angle-sampled reference discretizations, estimators that recover pi (and
the harmonic companion 16/(pi+2)) from Manhattan-distance averages, and
exact area bookkeeping.
"""

__version__ = "0.1.0"
