"""Taylor-expansion hedging for Levy-driven assets.

Monte Carlo pricing, arbitrary-order finite-difference Greeks, exact
replication baskets from variance/moment swaps and power-jump assets,
minimal-variance portfolios, and a batch harness that measures how many
Taylor terms a tolerance requires.
"""

from .chaos import (
    constant_term,
    constant_terms,
    enumerate_compositions,
    pi_coefficient,
)
from .errors import (
    AlignmentError,
    BankruptcyError,
    ConfigError,
    DegenerateModelError,
    GridError,
    IncompleteMarketError,
    InsufficientNodesError,
    LadderOrderError,
    LevyHedgeError,
    NeedsHigherOrderError,
    UnhedgeableSetError,
    UnsupportedOrderError,
    ZeroRateError,
)
from .jump_baskets import (
    JumpBasket,
    PathState,
    ScenarioOutcome,
    iterated_integral,
    iterated_integrals,
    phi_hedge_basket,
    pja_basket_general,
    pja_basket_order2,
    pja_basket_simple,
    pji_basket,
    replication_report,
)
from .minvar import MinVarWeights, mvp_bank_stock, mvp_general, mvp_weight, mvp_with_varswap
from .models import (
    CompoundPoisson,
    FixedJumps,
    JumpRecords,
    LevyModel,
    MomentVector,
    NormalJumps,
    VarianceGamma,
    increment_cumulants,
    log_mean_growth,
    moment_vector,
    relative_factors,
    risk_neutral_drift,
)
from .neutral import NeutralitySystem, solve_neutrality
from .pricing import (
    DerivativeLadder,
    OptionSpec,
    PathBundle,
    black_scholes_delta,
    black_scholes_gamma,
    black_scholes_price,
    derivative_ladder,
    payoff,
    price_curve,
)
from .stencil import (
    StencilTable,
    apply_stencil,
    build_lookup_table,
    stencil_coefficient,
)
from .swaps import (
    RealizedHistory,
    SwapBasket,
    SwapSpec,
    moment_swap_basket,
    variance_swap_basket,
)
from .taylor import HedgeLedger, HedgeScenario, assemble_ledger, bank_term, find_q

__version__ = "0.1.0"
