"""Normalized throughput of the three access schemes across offered load.

Reproduces the characteristic picture for the reference configuration
(N=31 preamble symbols, M=256 payload symbols, L=310 preambles,
p_md = p_fa = 0.01): the handshake scheme stays near 0.93 at load 1 and
keeps climbing, the fixed-length grant-free scheme peaks around 0.58, and
orthogonal multichannel ALOHA saturates near 0.31 -- roughly half the
grant-free peak.

Closed forms are printed next to Monte Carlo estimates so the agreement
is visible at a glance.  Runs in under a second.
"""

import numpy as np

from cra import (
    ProtocolParams,
    Scheme,
    SimConfig,
    estimate_throughput,
    steady_state_cra2,
    throughput_cra1,
    throughput_maloha,
)

params = ProtocolParams(preamble_len=31, payload_len=256, pool_size=310,
                        feedback_len=4.0, arrival_rate=1.0 / 287.0,
                        p_md=0.01, p_fa=0.01)

loads = [0.2, 0.6, 1.0, 1.4, 2.0]
schemes = [(Scheme.CRA2, "handshake"), (Scheme.CRA1, "grant-free"),
           (Scheme.MC_ALOHA, "mc-aloha")]

print(f"{'load':>5} {'scheme':>10} {'closed form':>12} {'simulated':>10} "
      f"{'std err':>8}")
for lt in loads:
    p = params.with_traffic(lt)
    t = p.txn_len
    analytic = {
        Scheme.CRA2: t * steady_state_cra2(p).throughput,
        Scheme.CRA1: t * throughput_cra1(p),
        Scheme.MC_ALOHA: t * throughput_maloha(p),
    }
    for scheme, name in schemes:
        cfg = SimConfig(params=p, scheme=scheme, n_sessions=20_000,
                        warmup_sessions=500, seed=int(10 * lt))
        est = estimate_throughput(cfg)
        print(f"{lt:>5.1f} {name:>10} {analytic[scheme]:>12.4f} "
              f"{t * est.mean_throughput:>10.4f} {t * est.std_error:>8.4f}")
    print()
