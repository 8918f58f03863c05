"""dgmf: exact dg-matrix factorizations over cyclotomic fields.

Everything is certified exact arithmetic over Q(zeta_N): quasihomogeneous
potentials with finite symmetry groups, free complexes and their homology,
sheaf pairs with boundary restriction, dg-scheme presentations, Koszul and
folded matrix factorizations, and the fundamental matrix factorization of a
genus-0 spin curve over a point base.
"""

from .cyclotomic import CyclotomicField, Scalar, cyclotomic_polynomial
from .poly import Poly, PolyRing
from .groups import GroupElement, act, is_invariant
from .jacobian import (DEGENERATE, INCONCLUSIVE, NONDEGENERATE,
                       nondegeneracy_check)
from .ratfun import RationalFunction, UPoly, two_periodic_homology_dims
from .complexes import (ChainMap, FreeComplex, Generator, NotAChainMap, cone,
                        cone_inclusion, cone_projection, homology_ranks,
                        induced_homology_map_rank, sym_power_two_term, tensor,
                        triangle_les_exact)
from .pairs import (PairMorphism, PairObject, canonical_resolution,
                    check_commutation, j_lower_shriek, pair_pushforward,
                    pair_tensor, rj_shriek, rj_shriek_triangle_exact,
                    unit_pair)
from .factorizations import (CONTRACTIBLE, NONCONTRACTIBLE, CertificateError,
                             CurvedStructure, DgSchemePresentation,
                             KoszulMF, MatrixFactorization, SuperElement,
                             derived_zero_locus, dgmf_from_homotopy, fold_to_mf,
                             gauge_intertwiner, koszul_mf, leibniz_holds,
                             mf_tensor, nullhomotopy_solve, point_homology,
                             point_verdict, support_check, unit_mf)
from .spincurve import (LogFormModel, Marking, Node, PipelineResult,
                        SpinCurveSpec, SpinDataError, TwoTermModel,
                        build_obstruction, cech_oracle, check_equivariance,
                        check_projection_commutation, fundamental_mf,
                        residue_structure, rigidification_transport_check,
                        solve_f_minus_one, twisted_diagonal_glue,
                        two_term_realization)

__version__ = "0.1.0"
