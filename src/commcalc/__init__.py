"""commcalc: exact-arithmetic commutator calculus.

Free-group words and commutator expressions, Magnus expansions in the
squarefree truncated power-series ring, multilinear free-Lie reduction
(basis coordinates and the quotient dimension read off the tensor
expansion, the basis rank and the rank-14 dependency certified by
fraction-free integer elimination), and
the band-sum obstruction system with its Q(sqrt 3) solution families
and bounded integer search.
"""

__version__ = "0.1.0"

from .words import (  # noqa: F401
    Alphabet,
    CommExpr,
    Commutator,
    Conjugate,
    Generator,
    GroupWord,
    Inverse,
    Leaf,
    ParseError,
    Product,
    UnknownGeneratorError,
    UnmappedGeneratorError,
    WordError,
    commutator,
    expr_to_word,
    parse_expr,
    print_expr,
    substitute,
)
from .magnus import (  # noqa: F401
    MagnusPoly,
    NonUnitError,
    VariableSet,
    expand,
    invert,
    is_trivial_word,
    lcs_degree,
)
from .lie import (  # noqa: F401
    RationalMatrix,
    TreeError,
    build_expansion_matrix,
    expand_tree,
    right_normed,
    to_basis,
    verify_appendix_identity,
    verify_lemma_w,
)
from .obstruction import (  # noqa: F401
    PoleError,
    PolySystem,
    QSqrt3,
    evaluate,
    integer_search,
    obstruction_system,
    verify_family,
)
from .hopf import (  # noqa: F401
    HopfScenario,
    InadmissibleSubstitutionError,
    find_substitutions,
    verify_hopf_triviality,
)
