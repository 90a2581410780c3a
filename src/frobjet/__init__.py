"""frobjet: exact arithmetic in ramified Frobenius towers, truncated jet
algebras over them, and the character/congruence machinery built on top.

The package keeps every computation exact at a stated absolute p-adic
precision; nothing is ever floated.  See the module docstrings for the
representation conventions and README.md for how to drive the verification
suites.
"""

__version__ = "0.1.0"

from .errors import FrobjetError
from .tower import (FrobeniusIndex, QElement, Tower, TowerConfig,
                    TowerElement, build_tower, frobenius_apply,
                    frobenius_word_apply, pi_derivation, valuation)
from .words import check_monomial_independence, words_up_to

__all__ = [
    "FrobjetError", "FrobeniusIndex", "QElement", "Tower", "TowerConfig",
    "TowerElement", "build_tower", "check_monomial_independence",
    "frobenius_apply", "frobenius_word_apply", "pi_derivation", "valuation",
    "words_up_to", "__version__",
]
