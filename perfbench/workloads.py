"""The benchmark's workloads: what each one runs, at which order and ring.

This module imports nothing from qcong, so the parent runner can read it
without paying for numpy.
"""

# The published run is `suite --order-identity 400 --order-scan 40000 --kmax 2`.
# One iteration of it takes 35-45 s on a 2-core Intel Xeon VM, which leaves
# no room for the six to ten iterations a steady median needs inside one
# 30 s run, so the suite workload halves the identity order and cuts the
# scan order to 10000, where the scan build is still the largest part of
# the run. The claim verdicts are the same at both sets of orders (all 63
# pass); reference.json holds them as recorded at the published orders.
PUBLISHED = {"order_identity": 400, "order_scan": 40000, "kmax": 2}
SUITE = {"order_identity": 200, "order_scan": 10000, "kmax": 2}

MOD_2_64 = 1 << 64

# (claim id, lhs, rhs, modulus or None for exact equality)
IDENTITY_ITEMS = (
    ("eq-2-2", "C", "2*q*f[2]*f[4]/f[1]^2*B(-q) - q*omega(-q)", None),
    ("eq-2-6", "1/f[1]^2",
     "f[8]^5/(f[2]^5*f[16]^2) + 2*q*f[4]^2*f[16]^2/(f[2]^5*f[8])", None),
    ("eq-2-14", "1/f[1]^4",
     "f[4]^14/(f[2]^14*f[8]^4) + 4*q*f[4]^2*f[8]^4/f[2]^10", None),
    ("eq-2-10", "D[2,0](B(q))", "f[2]^5/f[1]^4", None),
    ("eq-2-4", "f3(q^8) - 2*q*omega(-q) - 2*q^3*omega(-q^4)",
     "f[1]^2*f[4]^8/(f[2]^5*f[8]^4)", None),
    ("eq-2-16", "q*D[4,3](C)", "q*omega(-q) - 4*q*f[4]^4", 8),
)

CONGRUENCE_ITEMS = tuple(
    (cid, lhs, rhs, MOD_2_64) for cid, lhs, rhs, mod in IDENTITY_ITEMS
    if cid in ("eq-2-6", "eq-2-14", "eq-2-10", "eq-2-4")
) + (("eq-2-13-k1-m5", "f[1]^32", "f[2]^16", 32),)

# kind "suite" runs `qcong suite`; kind "batch" runs `qcong verify` once per
# item. `order` and `ring` are also where the traced run takes its
# products.euler_fm, series.invert and series.mul probes; `probe_items` and
# `series_c_exact_order` name extra traced probes at that order.
WORKLOADS = {
    "suite": {
        "kind": "suite",
        "order": SUITE["order_identity"],
        "ring": "exact",
        "probe_items": IDENTITY_ITEMS[:1],
        "why": "qcong suite at identity order 200, scan order 10000, k<=2: "
               "the published run cut down; largely the sparse-binomial "
               "mod-2^64 series_c scan build",
    },
    "identities-exact": {
        "kind": "batch",
        "order": 700,
        "ring": "exact",
        "items": IDENTITY_ITEMS,
        "series_c_exact_order": 2800,  # the C that D[4,3](C) reads
        "why": "qcong verify of six paper identities in the exact ring at "
               "order 700: exact mul, invert, power and series_c(2800)",
    },
    "congruences-mod64": {
        "kind": "batch",
        "order": 6000,
        "ring": "mod64",
        "items": CONGRUENCE_ITEMS,
        "why": "qcong verify --ring mod64 of five identities at order 6000: "
               "dense mod-2^64 multiply and invert, no series_c",
    },
}


def verify_argv(item, order: int, ring: str) -> list[str]:
    """The `qcong verify` arguments for one batch item."""
    _, lhs, rhs, modulus = item
    argv = ["verify", lhs, rhs, "--order", str(order)]
    if ring == "mod64":
        argv += ["--ring", "mod64"]
    if modulus is not None:
        argv += ["--mod", str(modulus)]
    return argv


def suite_argv(json_path: str) -> list[str]:
    return ["suite", "--order-identity", str(SUITE["order_identity"]),
            "--order-scan", str(SUITE["order_scan"]),
            "--kmax", str(SUITE["kmax"]), "--json", json_path]
