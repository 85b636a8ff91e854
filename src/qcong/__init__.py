"""Exact truncated q-series arithmetic and congruence checking for two-color
partition counting functions.

The package exports the API that README documents (see its "Public names")
and the names the benchmark imports; every other name lives in its module."""

import types

from .series import (EXACT, MOD64, CoefficientRing, NonUnitError, OrderError,
                     RingMismatchError, Series, change_ring, dissect, eulerian_sum,
                     first_incongruence, invert, mod2pow, mul, mul_sparse,
                     mul_sparse_binomial, narrowest_ring, power, scan_progressions,
                     substitute_power)
from .mock_theta import (b_eulerian, euler_fm, f3_series, omega_series,
                         pentagonal_series, pochhammer_fin, pochhammer_inf,
                         series_c, series_ck)
from .oracle import count_c_limit, count_ck, enumerate_ck
from .qexpr import ParseError, evaluate, parse
from .catalogue import (CATALOGUE, ClaimReport, SuiteContext, build_suite_context,
                        check_row, run_catalogue, verify_congruent, verify_identity)

# the public names are the names imported above, less the modules
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, types.ModuleType)]

__version__ = "0.1.0"
