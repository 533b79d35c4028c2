"""Exact arithmetic for multitwist pseudo-Anosov dilatations.

Words in the two multitwist generators and their PSL2(R) images, evaluated
as plain-int 2x2 matrices in the conjugate representation
T_A -> [[1, 1], [0, 1]], T_B -> [[1, 0], [-mu, 1]] (conjugate to the
sqrt(mu) one, so traces agree and every word trace is an integer);
Perron-Frobenius certificates for the built-in multicurve families, every
closed-form dilatation/translation-length bound, and the Johnson
homomorphism on bounding-pair maps.
"""

from .intervals import Interval
from .quadratic import QuadReal
from .words import Word, commutator, nested_commutator
from .rep import (IntMatrix, DilatationReport, generator_images, evaluate,
                  classify, dilatation)
from .families import (IntersectionFamily, PFResult, torelli_family,
                       braid_family, pf_eigenvalue)
from .johnson import (HomologyClass, Wedge3Coset, wedge3, omega_wedge_basis,
                      coset_equal, tau_bounding_pair, lantern_check)
from .search import (SearchReport, LcsRow, enumerate_classes,
                     min_dilatation_search, lcs_table)

__version__ = "0.1.0"
