"""Workbench for stable and A-stable models of ground propositional formulas.

The package computes classical, stable, and A-stable models of ground
formulas with set-valued connectives, grounds a first-order fragment over
finite domains, splits programs along their positive dependency graph, and
certifies that definitions are conservative.  `astable.verifier` holds the
randomized property suites behind the `astable verify` command.
"""

from .definitions import (
    Clause,
    ConservativityReport,
    DefinitionError,
    DefinitionModule,
    Rejection,
    check_conservativity,
    intersection_oracle,
    recognize_definition,
    unique_q_stable,
)
from .depgraph import (
    DepGraph,
    Partition2,
    PartitionError,
    closed_walk_infinitely_separable,
    dep_graph,
    find_closed_subset,
    is_infinitely_separable,
    is_separable,
    neg_nonnegated,
    pos_nonnegated,
    rules,
    sccs,
    simple_cycles,
    strictly_positive,
    to_dot,
)
from .formula import (
    Atom,
    AtomRef,
    BOT,
    CapExceeded,
    Conj,
    Disj,
    Formula,
    Impl,
    SignatureError,
    TOP,
    atom,
    atoms_of,
    conj,
    disj,
    equivalent,
    format_formula,
    format_program,
    iff,
    impl,
    neg,
    reduct,
    satisfies,
)
from .splitting import (
    PreconditionError,
    SplitPlan,
    SplitPlanError,
    modular_solve,
    plan_split,
    split_models_lemma,
    split_models_theorem,
)
from .stable import (
    DEFAULT_MAX_ATOMS,
    Interpretation,
    ModelSet,
    choice_extension,
    enumerate_a_stable,
    format_interpretation,
    is_a_stable,
    leq_a,
    modred,
)
from .syntax import ParseError, parse_atom, parse_atom_list, parse_formula, parse_interpretation, parse_program
from .verifier import DEFAULT_SEED, GenConfig, SUITE_NAMES, SuiteReport, gen_formula, run_suite

__version__ = "0.1.0"
