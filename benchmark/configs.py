"""Benchmark workloads as plain data, so that the set-up probe can build a
workload's config without loading the harness.

Each workload names the experiments a pass runs, the ExperimentConfig fields
it overrides (the seed is added at run time), and the groups of its
census/oracle sweep.
"""

WORKLOADS = {
    # E1 with the order bound lowered from 100,000 to 3,200: 103 of the 123
    # live cells, ambient fields up to F_{2^6}, F_{3^6}, F_{5^5} and F_{7^4}.
    "image_index": {
        "experiments": ("E1",),
        "config": {"e12_order_bound": 3200},
        "sweep": (),
    },
    # E2 on q in {2, 7}, n <= 3, k in {2, 5} and the norm cover, every live
    # cell verifying mu (ambient fields up to F_{7^12}); E5 for p <= 31.
    "cokernel": {
        "experiments": ("E2", "E5"),
        "config": {"e12_qs": (2, 7), "e12_n_max": 3, "e12_ks": (2, 5),
                   "e12_order_bound": 1000, "e5_p_max": 31},
        "sweep": (),
    },
    # E4 on q <= 7, E7 for p <= 17 (SL2(F_17) has 4,896 elements, above the
    # product-cache threshold), the other census grids at their defaults.
    "census": {
        "experiments": ("E3", "E4", "E6", "E7", "E8"),
        "config": {"e4_qs": ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)),
                   "e7_p_max": 17},
        "sweep": ("C24", "C31", "N(T)_7", "N(T)_11", "SL2_3", "Ga_16",
                  "C3xC7", "C2xC2xC2"),
    },
    # A grid that runs in about a second, for the harness self-test.
    "tiny": {
        "experiments": ("E1", "E2", "E3", "E5", "E8"),
        "config": {"e12_qs": (2, 3), "e12_n_max": 2, "e12_ks": (2, 3),
                   "e3_n_max": 4, "e5_p_max": 7, "e8_ps": (2,), "e8_n_max": 3},
        "sweep": ("C31", "Ga_16", "C3xC7"),
    },
}
