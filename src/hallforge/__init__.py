"""Exact Hall algebra workbench over small finite fields."""

from .backend import A1ClosedFormBackend, QuiverBackend, make_backend
from .caps import Budget, CapExceeded
from .exprs import ExprError, parse_expr, render_elt
from .hall import comult, green_pairing, hmult
from .morphisms import (CheckReport, GenMap, apply_hom, build_hom,
                        check_relation, double_monomials, rank_independence)
from .presented import (Algebra, algebra, normal_form, pmult,
                        relation_instance, tensor_mult)
from .quiver import PRESETS, Quiver, load_quiver, preset
from .scalars import Lin, SqrtScalar, render_scalar, vpow
from .suites import DEFAULT_SEED, SUITES, RunConfig, exit_code, run_suite

__all__ = [
    "A1ClosedFormBackend", "Algebra", "Budget", "CapExceeded",
    "CheckReport", "DEFAULT_SEED", "ExprError", "GenMap", "Lin", "PRESETS",
    "Quiver", "QuiverBackend", "RunConfig", "SUITES", "SqrtScalar", "algebra",
    "apply_hom", "build_hom", "check_relation", "comult",
    "double_monomials", "exit_code", "green_pairing", "hmult",
    "load_quiver", "make_backend", "normal_form", "parse_expr", "pmult",
    "preset", "rank_independence", "relation_instance", "render_elt",
    "render_scalar", "run_suite", "tensor_mult", "vpow",
]
