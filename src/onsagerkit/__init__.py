"""Exact-arithmetic construction and verification of generalized Onsager algebras."""

from .cartan import CartanMatrix, preset, symmetrizer, validate
from .characters import character_from_values, character_space, chi_affine, even_column_set
from .chevalley import (
    ChevElement,
    StructureTable,
    build_chevalley,
    eta,
    sl_realization,
    sp_realization,
    sp_structure_table,
)
from .exact_math import ExactMatrix, GaussianRational, IdentityViolation, nullspace_basis, rank, span_rank
from .freelie import (
    BracketExpr,
    FreeLieElement,
    lie_bracket,
    lyndon_words,
    parse_bracket,
    to_lyndon,
    witt_dimension,
)
from .loop import LoopElement, YIndex, bracket_loop, k_bracket_expand, omega_tilde, onsager_basis, y_affine
from .onsager import (
    AffineRealization,
    FiniteRealization,
    Realization,
    filtration_dims,
    generation_check,
    psi_eval,
    realization_for,
    relations,
)
from .roots import AffineRoot, RootSystem
from .serre_coeffs import CoeffRow, c0_closed_form, coeff_row, coeff_table, serre_relation
from .verify import verify_gl_presentation

__version__ = "0.1.0"
