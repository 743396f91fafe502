"""PGL2(F_q) acting on monic irreducible polynomials: classification of
group elements, the rational transformations generating every invariant,
and exact invariant counts with independent brute-force oracles."""

from .fields import (ExtElt, ExtSpec, Felt, FieldSpec, artin_schreier_root,
                     element_of_mult_order, embed, frobenius_q, is_square,
                     make_ext, make_field, smallest_nonsquare, sqrt,
                     try_descend)
from .polynomials import (Poly, divides, divrem, enumerate_monic_irreducibles,
                          gcd, is_irreducible, monic_polys, monicize, to_text)
from .projective import (IDENTITY, TYPE1, TYPE2, TYPE3, TYPE4, ContractError,
                         Mat2, ProjMat, ReducedForm, TypeInfo, all_classes,
                         classify, element_of_order, lucas, power_closed_form,
                         proj_eq, reduce, reduced_type1, reduced_type2,
                         reduced_type3, reduced_type4, sigma_product)
from .action import (F_poly, act, common_invariants, criterion_invariant,
                     invariant_set, is_cyclic, is_invariant, proj_act,
                     subgroup_closure)
from .rational import (QConstruction, RationalMap, generate_invariants, q_map,
                       substitute_mobius, transform)
from .counting import (asymptotic_ratio, count_factors_of_degree,
                       count_invariants_bruteforce, count_invariants_formula,
                       count_via_criterion, eta, euler_phi, mobius_inversion,
                       moebius_mu, principal_character, quadratic_factor_of_F)

__version__ = "0.1.0"
