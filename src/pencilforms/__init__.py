"""Exact computation on multiparameter matrix pencils.

The package computes projective joint spectra of matrix tuples, the
Maurer-Cartan form of the pencil map, the transgression of cyclic cochains
into differential forms with rational-function coefficients, determinant
factorization identities in exact arithmetic, and a noncommutative-torus
model with both exact and floating-point coefficient modes.
"""

from pencilforms._core import BACKEND
from pencilforms.ring import CycloElement, MultiPoly, RatFn, Scalar
from pencilforms.linalg import MatrixTuple, PolyMatrix
from pencilforms.forms import MatrixForm, ScalarForm, maurer_cartan
from pencilforms.cochains import (Cochain, DenseCochain, FunctionalCochain,
                                  TraceWord, cyclic_symmetrize,
                                  functional_product, is_cyclic)
from pencilforms.transgression import (hyperplane_decomposition, kappa,
                                       kappa_wedge_oracle, tau,
                                       transgression_report)
from pencilforms.jacobi import (cubic_trace_data, factorize_top_form,
                                trace_power_form)
from pencilforms.torus import (TorusConfig, TorusElement,
                               factorization_report, neumann_resolvent)
from pencilforms.suites import SuiteReport, run_suite

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "Cochain",
    "CycloElement",
    "DenseCochain",
    "FunctionalCochain",
    "MatrixForm",
    "MatrixTuple",
    "MultiPoly",
    "PolyMatrix",
    "RatFn",
    "Scalar",
    "ScalarForm",
    "SuiteReport",
    "TorusConfig",
    "TorusElement",
    "TraceWord",
    "__version__",
    "cubic_trace_data",
    "cyclic_symmetrize",
    "factorization_report",
    "factorize_top_form",
    "functional_product",
    "hyperplane_decomposition",
    "is_cyclic",
    "kappa",
    "kappa_wedge_oracle",
    "maurer_cartan",
    "neumann_resolvent",
    "run_suite",
    "tau",
    "trace_power_form",
    "transgression_report",
]
