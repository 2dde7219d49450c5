"""Network topology vs. traffic-performance simulation toolkit.

Pieces: a fitness-based graph generator spanning the random-to-scale-free
continuum, exact shortest-path load statistics, chaotic-map On-Off traffic
sources with rate calibration and Hurst estimation, a discrete-time
store-and-forward packet simulator, and a CLI that sweeps experiments into
CSV datasets.
"""

from .graphs import (
    UNREACHABLE,
    AttemptBudgetExceeded,
    GenParams,
    Graph,
    InsufficientTail,
    NoReachablePairs,
    all_pairs_hop_distances,
    characteristic_path_length,
    degree_histogram,
    fit_powerlaw_exponent,
    generate_static_model,
    giant_component,
    read_edge_list,
    write_edge_list,
)
from .load import (
    LoadStats,
    compute_load,
    load_and_cpl,
    load_stats,
    write_load_csv,
)
from .sim import (
    Packet,
    SimConfig,
    SimMetrics,
    SimState,
    TooFewHosts,
    assign_hosts,
    measure_load_proxy,
    run,
)
from .traffic import (
    ErramilliParams,
    ErramilliSource,
    InsufficientData,
    NoConvergence,
    calibrate_d,
    default_block_sizes,
    estimate_rate,
    hurst_aggregated_variance,
    read_bit_trace,
    write_bit_trace,
)

__version__ = "0.1.0"
