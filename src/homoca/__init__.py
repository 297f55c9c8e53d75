"""Cellular automata over finite group actions.

The pieces: finite groups and left actions as tables (groups), transitive
actions with chosen coordinates (cellspace), rules over stabilizer-closed
relative neighborhoods (automata), the laws connecting local rules to
global transition functions (laws), and a finite model of the prodiscrete
uniform structure (uniformity).
"""

from .automata import (
    SemiCellularAutomaton,
    essential_neighborhood,
    is_cellular,
    iterate,
    rotate_local,
    shift,
    step,
    step_batch,
    step_via_origin,
)
from .catalog import (
    bundled_automata,
    bundled_spaces,
    coordinate_system_variants,
    cube_space,
    cyclic_shift_automaton,
    cyclic_space,
    identity_automaton,
    or_automaton,
    projection_automaton,
    random_rule_automaton,
    square_space,
    torus_or_automaton,
    torus_space,
)
from .cellspace import (
    CellSpace,
    CoordinateSystem,
    build_coordinate_system,
    check_free_transitive,
    commutation_defect,
    coordinate_change_defect,
    defect,
    identify,
)
from .errors import BoundError, EquivarianceError, InputError, LawError
from .groups import (
    Coset,
    FiniteGroup,
    LeftAction,
    Subgroup,
    check_transporter_lemma,
    conjugate_coset,
    orbit,
    stabilizer,
    transporter,
    verify_action,
    verify_group,
)
from .laws import (
    GlobalMap,
    NotInvertible,
    change_coordinates,
    check_determination,
    check_equivariance,
    check_invariance_equivalence,
    check_step_equivariance,
    compose,
    extract,
    extract_step,
    global_table,
    invert,
)
from .uniformity import (
    ContinuityResult,
    agreement_relation,
    check_agreement_intersection,
    check_continuity_window,
    check_uniform_continuity,
    check_uniform_isomorphism,
    check_uniformity_base,
    continuity_assignments,
    prodiscrete_base,
)
from .verdict import Verdict

__all__ = [name for name in dir() if not name.startswith("_")]
