"""Analysis of two-way contingency tables.

Sampling-distribution PMFs, maximum-likelihood probability estimation,
odds ratios and scored correlation, chi-square tests of no association,
and a seeded Monte Carlo calibrator, all behind one small library API
and the ``cattab`` command-line tool.

The top-level names are ``__version__`` and the ``__all__`` of
``special``, ``distributions``, ``table``, ``association``,
``inference`` and ``simulate``; among them are ``xlogy``, the
``Record`` pair type, the scheme classes ``PoissonScheme``,
``BinomialRowsScheme`` and ``MultinomialScheme``, and
``RNG_ALGORITHM``.
"""

__version__ = "0.1.0"

from . import association, distributions, inference, simulate, special, table
from .association import *
from .distributions import *
from .inference import *
from .simulate import *
from .special import *
from .table import *

__all__ = ["__version__", *special.__all__, *distributions.__all__, *table.__all__,
           *association.__all__, *inference.__all__, *simulate.__all__]
