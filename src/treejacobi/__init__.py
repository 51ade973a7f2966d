"""Exact arithmetic for Jacobi matrices on one-ended trees.

Modules by layer: `exactmath` (rationals, Gaussian rationals, polynomials,
Sturm chains, root isolation), `treecore` (truncations and generators),
`treepoly` (the recursive polynomial family), `spectra` (truncated
operators and their spectra), `solutions` (eigen-solution fields),
`classical1d` (path-matrix helpers), `constructions` (explicit matrix
constructions and positivity certificates), `reports` (the one
renderer), `cli`.
"""

from .exactmath import (GaussianRational, I, Poly, RootInterval,
                        format_rational, isolate_real_roots, parse_gaussian,
                        parse_rational, poly_gcd, poly_lcm, strict_interlace)
from .treecore import (PathSelection, TreeTruncation, build_from_spec,
                       decorated_path_tree, default_path, generate,
                       homogeneous_tree, path_from_ids, path_tree)
from .treepoly import PolyFamily, family
from .spectra import (char_poly, count_negative_eigenvalues,
                      spectral_description, tree_inertia,
                      verify_spectral_identity)
from .solutions import (SolutionField, growth_profile, propagate_real,
                        rotated_positivity_report, solve_pair,
                        uniqueness_dimension, wronskian)

__version__ = "0.1.0"
