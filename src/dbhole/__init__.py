"""Exact survivor-set analysis for the doubling map with an interval hole."""

from .automaton import Hole, SurvivorAutomaton, build_automaton
from .holes import (
    CatalogEntry,
    GapInterval,
    SturmianHoleBracket,
    SupercriticalReport,
    catalog,
    certify_entry,
    gap_interval,
    sturmian_hole,
    test_supercritical,
)
from .rationals import (
    BudgetExceededError,
    binary_expansion,
    format_fraction,
    parse_fraction,
    pi_value,
)
from .survivor import (
    Classification,
    Kind,
    TrapReport,
    classify,
    cylinder_counts,
    entropy,
    enumerate_surviving_cycles,
    is_trap,
    locate_entropy_transition,
    sigma_n_dimension,
)
from .words import (
    EvPeriodicWord,
    characteristic_prefix,
    cf_of_fraction,
    convergents,
    cyclic_extremes,
    standard_words,
    thue_morse,
)

__version__ = "0.1.0"
