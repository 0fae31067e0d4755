"""commcalc: exact-arithmetic commutator calculus.

Free-group words and commutator expressions over generator names (a
generator is its name), Magnus expansions in the squarefree truncated
power-series ring, multilinear free-Lie reduction (basis coordinates,
basis rank and quotient dimension read off the tensor expansion; the
rank-14 dependency by fraction-free elimination on the 24 coordinates,
whose ranks are the 120-column ones), and the band-sum obstruction
system with its Q(sqrt 3) solution families and bounded integer search.

The five layers load on first use: importing the package registers
each one in sys.modules, and a layer's source runs the first time one
of its attributes is read, so a command compiles only the layers it
uses.  The names below are re-exported from the layer that defines
them, and reading one loads that layer.
"""

import sys
from importlib.util import LazyLoader, find_spec, module_from_spec

__version__ = "0.1.0"

#: layer -> the public names the package re-exports from it
_EXPORTS = {
    "words": (
        "Alphabet", "CommExpr", "Commutator", "Conjugate", "GroupWord", "Inverse",
        "Leaf", "ParseError", "Product", "UnmappedGeneratorError", "WordError",
        "commutator", "expr_to_word", "parse_expr", "print_expr", "substitute",
    ),
    "magnus": ("MagnusPoly", "VariableSet", "expand"),
    "lie": (
        "RationalMatrix", "TreeError", "expand_tree", "right_normed", "to_basis",
        "verify_appendix_identity", "verify_lemma_w",
    ),
    "obstruction": (
        "QSqrt3", "evaluate", "integer_search", "obstruction_system", "verify_family",
    ),
    "hopf": ("find_substitutions", "substituted_longitude", "verify_hopf_triviality"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_LAYER_OF]


def _register(layer: str):
    """Put the layer in sys.modules unexecuted; its first attribute
    read runs it."""
    spec = find_spec(f"{__name__}.{layer}")
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# bound here as the import system binds a loaded submodule, so that
# `from . import words` takes the module without running it
words, magnus, lie, obstruction, hopf = map(_register, _EXPORTS)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[layer], name)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
