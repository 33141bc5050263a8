"""Exact inference on discrete Bayesian networks, three architectures.

The package compiles a network into a junction tree and a binary join
tree, runs Lauritzen-Spiegelhalter, Hugin, and Shenoy-Shafer propagation
over a shared potential algebra, and counts every addition,
multiplication, and division so the architectures can be compared on
identical structures.
"""

from bnbench.compile import (
    CompileError,
    CompileResult,
    JoinTree,
    attach_singletons,
    binary_join_tree,
    compile_structures,
    condense,
    elimination_order,
    junction_tree,
    moral_graph,
    verify_join_tree,
)
from bnbench.counting import OpCounter
from bnbench.engines import EngineError, EngineResult, hugin_run, ls_run, run_all, ss_run
from bnbench.generate import GenParams, derive_seed, random_case, random_net
from bnbench.network import (
    BayesNet,
    NetworkError,
    chest_clinic,
    chest_clinic_evidence,
    figure9_evidence,
    figure9_net,
    input_potentials,
    joint_oracle,
    oracle_marginals,
    validate,
)
from bnbench.potentials import (
    InconsistencyError,
    Potential,
    PotentialError,
    Variable,
    divide,
    make_potential,
    marginalize,
    multiply,
    normalize,
)
from bnbench.storage import StorageReport, peak_working_memory, storage_report

__all__ = [
    "BayesNet",
    "CompileError",
    "CompileResult",
    "EngineError",
    "EngineResult",
    "GenParams",
    "InconsistencyError",
    "JoinTree",
    "NetworkError",
    "OpCounter",
    "Potential",
    "PotentialError",
    "StorageReport",
    "Variable",
    "attach_singletons",
    "binary_join_tree",
    "chest_clinic",
    "chest_clinic_evidence",
    "compile_structures",
    "condense",
    "derive_seed",
    "divide",
    "elimination_order",
    "figure9_evidence",
    "figure9_net",
    "hugin_run",
    "input_potentials",
    "joint_oracle",
    "junction_tree",
    "ls_run",
    "make_potential",
    "marginalize",
    "moral_graph",
    "multiply",
    "normalize",
    "oracle_marginals",
    "peak_working_memory",
    "random_case",
    "random_net",
    "run_all",
    "ss_run",
    "storage_report",
    "validate",
    "verify_join_tree",
]

__version__ = "1.0.0"
