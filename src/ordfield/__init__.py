"""Exact arithmetic over incomplete ordered fields, with machine-checked
epsilon-delta certificates for the counterexamples that separate them from
the reals: the Limit of Derivatives Property, classical L'Hopital, Taylor
with Peano remainder, and the Mean Value Theorem all fail over Q and over
Q(x) ordered at 0+, and every failure here is an exact, replayable
transcript."""

# bench/selftest.py reads these two from the package.
from .functions import evaluate
from .rationals import pow2
from .transcript import VERSION as __version__
