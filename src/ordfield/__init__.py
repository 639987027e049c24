"""Exact arithmetic over incomplete ordered fields, with machine-checked
epsilon-delta certificates for the counterexamples that separate them from
the reals: the Limit of Derivatives Property, classical L'Hopital, Taylor
with Peano remainder, and the Mean Value Theorem all fail over Q and over
Q(x) ordered at 0+, and every failure here is an exact, replayable
transcript."""

from .certs import (
    ConstRule,
    LinearCapRule,
    QStepProbe,
    QXStepProbe,
    TwoSided,
)
from .claims import (
    CheckRecord,
    FalsifierCert,
    LimitClaim,
    RefereeReport,
    VerifierCert,
    check_falsifier,
    check_verifier,
    default_delta_schedule,
    default_eps_schedule,
    derivative_claim,
    probe_gen,
)
from .demos import demo_dlim, demo_lhopital, demo_mvt, demo_taylor
from .dyadic import (
    class_index,
    cn_bounds,
    constancy_radius_q,
    sqrt2_bounds,
)
from .errors import (
    DomainError,
    IrrationalityError,
    OrdFieldError,
    ParseError,
    UnsupportedDerivativeError,
    ZeroDenominatorError,
)
from .fields import Field, render_elem
from .functions import (
    Constant,
    DiffQuotient,
    Identity,
    IndicatorCut,
    OuterSquareStep,
    Power,
    Quotient,
    StepQ,
    StepQX,
    derivative_certificate,
    evaluate,
    fn_name,
    local_constancy,
    parse_fn,
    ratio_bounds_check,
)
from .laurent import (
    Poly,
    RatFunc,
    dominates,
    poly,
    render_poly,
    render_rf,
    rf_normalize,
    rf_sign,
    same_class,
    valuation,
    x_pow,
)
from .literals import parse_elem
from .rationals import pow2, render_rat
from .transcript import VERSION as __version__
from .transcript import Transcript, parse_claim_file

__all__ = [name for name in dir() if not name.startswith("_")]
