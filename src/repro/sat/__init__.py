"""SAT substrate: CNF formulas, DIMACS I/O, models, and solvers.

This package stands in for the external SAT tooling the paper used
(``siege_v4``, ``MiniSat``, DIMACS CNF files); see DESIGN.md §2.
"""

from .cnf import CNF, Clause, parse_dimacs, parse_dimacs_file, parse_dimacs_string
from .literals import (clause_to_codes, code_to_lit, is_positive, lit_to_code,
                       max_var, negate, var_of)
from .bdd import BDDLimitExceeded, BDDManager, cnf_to_bdd, solve_bdd
from .model import Model, SolveResult
from .status import CancelToken, SolveLimits, SolveReport, SolveStatus
from .proof import (ProofCheckResult, ProofError, check_rup_proof,
                    solve_with_proof, verify_rup_proof)
from .simplify import Simplification, simplify, solve_simplified
from .solver import (BudgetExceeded, CDCLSolver, DPLLSolver, LegacyCDCLSolver,
                     SolverConfig, minisat_like, preset, siege_like, solve,
                     solve_by_enumeration, solve_dpll)

__all__ = [
    "CNF", "Clause", "parse_dimacs", "parse_dimacs_file", "parse_dimacs_string",
    "clause_to_codes", "code_to_lit", "is_positive", "lit_to_code",
    "max_var", "negate", "var_of",
    "BDDLimitExceeded", "BDDManager", "cnf_to_bdd", "solve_bdd",
    "Model", "SolveResult",
    "CancelToken", "SolveLimits", "SolveReport", "SolveStatus",
    "ProofCheckResult", "ProofError", "check_rup_proof", "solve_with_proof",
    "verify_rup_proof",
    "Simplification", "simplify", "solve_simplified",
    "BudgetExceeded", "CDCLSolver", "DPLLSolver", "LegacyCDCLSolver",
    "SolverConfig", "minisat_like", "preset", "siege_like", "solve",
    "solve_by_enumeration", "solve_dpll",
]
