"""All-path reachability verifier for finite reduction systems.

Decides whether every run from a source set reaches a target set --
over finite runs only (partial validity) or over all runs including
infinite ones (total validity) -- by constructing cyclic proofs, and
applies those decisions to safety and liveness checking of interleaved
concurrent models.
"""

from .ars import (
    Ars,
    ArsError,
    ExecutionPath,
    StateSet,
    System,
    UnknownObjectError,
    avoiding_region,
    canon,
    derivative,
    is_runnable,
    parse_ars,
    reachable,
    render_ars,
)
from .modeling import (
    Expansion,
    Model,
    ModelError,
    ModelSystem,
    builtin_peterson,
    eval_state_predicate,
    expand,
    parse_model,
)
from .oracle import OracleAnswer, oracle_partial, oracle_total
from .proofs import (
    BOTTOM,
    AprPredicate,
    DerivationTree,
    PreProof,
    ProofGraph,
    RuleName,
    is_acyclic,
    predicate,
    premises,
    proof_graph,
    to_dot,
    validate_pre_proof,
)
from .prover import (
    FinitePath,
    Lasso,
    NodeBudgetExceeded,
    ProverConfig,
    SplitStrategy,
    Verdict,
    VerdictKind,
    Witness,
    check_partial,
    check_total,
    extract_finite_counterexample,
    extract_lasso,
    prove,
)
from .reductions import (
    SafetyCheckReport,
    augment_any,
    augment_error,
    build_safety_query,
    validate_safety_predicate,
)

__version__ = "0.1.0"
