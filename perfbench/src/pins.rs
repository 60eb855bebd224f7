//! Digests of every operation's simulated output for seed 0, in pass
//! order. Regenerate after an intended change to simulated behaviour
//! with `--print-digests` (and say so in the change).

pub fn pinned(workload: &str) -> &'static [u64] {
    match workload {
        "sweep" => SWEEP,
        "serve_overload" => SERVE_OVERLOAD,
        "serve_resilient" => SERVE_RESILIENT,
        "fleet" => FLEET,
        _ => &[],
    }
}

const SWEEP: &[u64] = &[
    // The twelve SweepSpec grids, in paper_grids() order.
    0xc754b3d6e42e3d3d,
    0x9793b3549df503f0,
    0x445fbe3e7719e0b8,
    0x20e13e095f25c9e4,
    0x67c91fcc33013a4e,
    0x6ca4b7366e14a391,
    0xcd248cc496738dab,
    0x4cd0b1720013346f,
    0x5b0cbcf2262dc0a7,
    0x43cba0cc2b683285,
    0xda6dfef2682217e4,
    0xb63af8f6c6431032,
    // DualPhaseProfiler::run on the eleven anchor cells.
    0x10b5a40342a5577f,
    0xf8016b69f64c5ad4,
    0x7431b00b31e8f2a0,
    0xd1a8e48128ee6da6,
    0x4f2c6fb534cf2cb9,
    0x043bf08f615a9365,
    0xca5ca2cb65307ca8,
    0xdde23aca2b0e7ffa,
    0x6524bde9e5b6c0f1,
    0xbf9cdbed3384ca13,
    0xe6ad085c71b0d45d,
];

const SERVE_OVERLOAD: &[u64] = &[0x5904195e1c972b41];

const SERVE_RESILIENT: &[u64] = &[
    // One serve run per derived program seed, in order.
    0xe3b6ee9863f9dc96,
    0x9fa5db88daa89f23,
    0x37170b9fc5f9957c,
    0x78785751e41587c7,
    0x8c52f49fc45b224b,
    0xb0f1846029275ea1,
    0xae55eb99007c34d5,
    0x66bb4c0b0cdf7a21,
    0x23899b7384890f44,
    0xc70084104bc20d26,
    0x96ddd46650804cde,
    0x772f9fcea15f0370,
    0x714a467e36c03a2d,
    0x19ed56e692b3bd2b,
    0x6e6022aa196844f9,
    0x3fc477a937357a37,
];

const FLEET: &[u64] = &[0xa9f533a0c34b0763];
