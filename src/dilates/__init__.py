"""dilates: exact computation, minimization, and verification of sums of
dilates A + lam*A over Z/pZ and their torus-grid analogues."""

__version__ = "0.1.0"

from .checks import (IneqReport, check_cauchy_davenport, check_dilate_chain,
                     check_kfold_cd_chain, check_plunnecke,
                     check_ruzsa_triangle)
from .errors import MathAssertionError, ScaleCapError
from .gaps import (Gap, expand, find_max_proper_gap, is_proper,
                   lambda_span_check, truncate_to_large_steps)
from .grids import (GridSet, box_grid_set, digit_sum_count, equal_box_sides,
                    grid_projection_sumset, irwin_hall_volume,
                    optimized_box_sides_3d, simplex_construction,
                    simplex_grid_set)
from .intervals import (ChainReport, TorusIntervalSet, discretize_to_zp,
                        encode_grid_to_intervals, interval_dilate_sum,
                        pipeline_check, scale_intervals)
from .residues import (Kernel, ResidueSet, affine_image, canonical_form,
                       dilate, dilate_sum, is_canonical, is_prime,
                       iterated_sumset, linear_form, sumset)
from .search import (SearchResult, SearchTask, exact_min_dilate_sumset,
                     exact_min_reference, heuristic_min_dilate_sumset, sweep)
