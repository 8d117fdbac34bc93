"""Layered BPSK-on-QPSK ("orthogonal cocktail BPSK") toolkit.

Exact mutual-information curves for finite constellations over AWGN, GF(2)
block codecs, the two-stage mapper/demapper, a reproducible Monte Carlo
link simulator, and the rate accounting that compares the scheme's claimed
composite rate with the exact chain-rule decomposition. The modules
(awgn_info, codec, ocb, linksim, rates, cli) are the API; the package
re-exports nothing, so importing it loads none of them. A module's public
names are those without a leading underscore; no module keeps an export list.
"""

__version__ = "0.1.0"
