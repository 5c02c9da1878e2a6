"""Correctness checks that every benchmark run applies to the program's output.

The checks are statistical or structural, never byte comparisons of random
draws, so they keep holding for a simulator that consumes its random numbers
differently.  Each check counts once towards ``attempted``; a check that does
not hold counts towards ``failed`` (the benchmark's check_fail_ratio).
"""

import csv
import math

# Simulated rates must lie within K_SE standard errors of their reference.
# A batch-means standard error from 30 batches is Student-t with 29 degrees of
# freedom, for which P(|t| > 7) is about 1e-7.  A run checks at most a few
# thousand rows, so a correct simulator fails any row of a run with
# probability below 1e-3 for any seed, while a 10-SE error still fails.
K_SE = 7.0

# The CRA-2 closed form assumes a Poisson active count; the exact session
# chain is a Poisson mixture.  On the fig3 grid the exact stationary
# throughput sits up to 0.67% below the closed form (lambda_T = 1: exact
# 0.92500, closed form 0.93119, the gap behind acceptance criterion 2), so
# CRA-2 rows may differ from the closed form by this share on top of K_SE.
CRA2_CLOSED_FORM_BIAS = 0.01

# Closed-form fixed point x = c1 - c2 exp(-x) must hold to this relative size.
FIXED_POINT_TOL = 1e-9

RESULT_HEADER = ["sweep_var", "value", "metric", "source", "estimate",
                 "std_error", "sessions", "seed"]


class Checks:
    """Counts checks attempted and failed; keeps the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


def read_csv(path):
    """Header and rows of a result CSV, parsed without the package's reader."""
    with open(path, encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    header, body = records[0], records[1:]
    rows = []
    for rec in body:
        row = dict(zip(header, rec))
        for key in ("value", "estimate", "std_error"):
            row[key] = float(row[key]) if row.get(key) else None
        rows.append(row)
    return header, rows


def capped_success_moments(mean_active, pool_size, cap, p_md):
    """Mean and second moment of one CRA-1 / multichannel-ALOHA session's
    successes: K ~ Poisson(mean_active) users pick among ``pool_size``
    preambles, and a session with K <= ``cap`` books each singleton with
    probability 1 - p_md, otherwise nothing."""
    q = 1.0 - p_md
    L = pool_size
    m1 = m2 = 0.0
    for k in range(1, cap + 1):
        pk = math.exp(k * math.log(mean_active) - mean_active - math.lgamma(k + 1))
        singles = k * (1.0 - 1.0 / L) ** (k - 1)
        # E[B1 (B1 - 1)]: ordered pairs of preambles both picked exactly once
        pairs = (L - 1) / L * k * (k - 1) * (1.0 - 2.0 / L) ** max(k - 2, 0)
        m1 += pk * q * singles
        m2 += pk * (q * singles + q * q * pairs)
    return m1, m2


def check_sweep_rows(checks, rows, n_sessions, session_len, txn_len, moments):
    """Simulated fig3 rows against the closed-form rows of the same CSV.

    CRA-1 and multichannel ALOHA sessions are i.i.d. with a fixed length
    ``session_len`` and their closed forms are exact, so the SE of their
    estimate is known: ``moments(metric, lambda_T)`` gives the mean and second
    moment of one session's successes.  It stands in where the batch-means SE
    fails: at lambda_T >= 1.7, successes come in rare clusters of ~25 and a
    run may see none, making the batch-means SE 0.
    """
    analytic = {(r["metric"], r["value"]): r["estimate"]
                for r in rows if r["source"] == "analytic"}
    for r in rows:
        if r["source"] != "sim" or r["metric"] == "d_bar_ratio":
            continue
        ref = analytic[(r["metric"], r["value"])]
        est, se = r["estimate"], r["std_error"]
        if r["metric"] == "eta2":
            slack = K_SE * se + CRA2_CLOSED_FORM_BIAS * ref
        else:
            m1, m2 = moments(r["metric"], r["value"])
            exact_se = txn_len * math.sqrt((m2 - m1 * m1) / n_sessions) / session_len
            slack = K_SE * max(se, exact_se)
        checks.expect(abs(est - ref) <= slack,
                      f"{r['metric']} at lambda_T={r['value']}: sim {est:.6g} "
                      f"vs closed form {ref:.6g}, allowed {slack:.3g}")


def check_backlog_slope(checks, traj, drift):
    """Mean one-session backlog change against the analytic drift.

    ``drift(k)`` is the expected change of the active count from a session
    with k active users.  At the overloaded operating point the backlog
    differs from the active count by the session's successes, ~1e-3 per
    session, so the backlog stands in for it.
    """
    n = traj.size - 1
    inc = traj[1:].astype(float) - traj[:-1]
    predicted = sum(drift(int(k)) for k in traj[:-1]) / n
    observed = float(inc.mean())
    se = float(inc.std(ddof=1)) / math.sqrt(n)
    checks.expect(abs(observed - predicted) <= K_SE * se,
                  f"backlog slope {observed:.6g} vs drift {predicted:.6g}, "
                  f"se {se:.3g}")


def check_fixed_point(checks, params, mean_active):
    """CRA-2 mean load x = K/L solves x = c1 - c2 exp(-x), without Lambert W."""
    lam, L = params.arrival_rate, params.pool_size
    c1 = lam * (params.overhead_len / L + params.payload_len * (1.0 - params.p_md))
    c2 = lam * params.payload_len * (1.0 - params.p_md - params.p_fa)
    x = mean_active / L
    residual = x - (c1 - c2 * math.exp(-x))
    checks.expect(abs(residual) <= FIXED_POINT_TOL * max(1.0, abs(x)),
                  f"fixed-point residual {residual:.3g} at {params}")


def poisson_cdf_sum(n, mu):
    """Pr(Poisson(mu) <= n) by direct summation in log space."""
    if mu == 0.0:
        return 1.0
    return math.fsum(math.exp(k * math.log(mu) - mu - math.lgamma(k + 1))
                     for k in range(n + 1))


def check_capped_throughputs(checks, params, eta1, eta_ma):
    """CRA-1 and ALOHA closed forms against a direct Poisson summation."""
    lam, N, L = params.arrival_rate, params.preamble_len, params.pool_size
    b1 = lam * params.fixed_session_len
    keep = 1.0 - params.p_md
    ref1 = lam * keep * math.exp(-b1 / L) * poisson_cdf_sum(N - 2, b1 * (1 - 1 / L))
    ref_ma = lam * keep * math.exp(-b1 / N) * poisson_cdf_sum(N - 1, b1 * (1 - 1 / N))
    t = params.txn_len
    for what, got, ref in (("eta1", eta1, t * ref1), ("eta_ma", eta_ma, t * ref_ma)):
        checks.expect(math.isclose(got, ref, rel_tol=1e-9, abs_tol=1e-15),
                      f"{what} {got!r} vs direct sum {ref!r} at {params}")


def check_threshold(checks, params, k0, drift):
    """K0 is where the drift turns positive and stays so up to 10 L."""
    k_max = 10 * params.pool_size
    if k0 is None:
        checks.expect(drift(k_max) <= 0, f"no threshold but drift(k_max) > 0 at {params}")
        return
    checks.expect((k0 == 0 or drift(k0 - 1) <= 0)
                  and all(drift(k) > 0 for k in range(k0, k_max + 1)),
                  f"threshold {k0} is not where the drift turns positive "
                  f"for good at {params}")


def qfunc_ref(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def check_error_bound(checks, snr, bounds):
    """Power-controlled union bounds equal Q(sqrt(snr/2)) for md and fa."""
    ref = qfunc_ref(math.sqrt(snr / 2.0))
    checks.expect(all(math.isclose(b, ref, rel_tol=1e-12, abs_tol=1e-300)
                      for b in bounds),
                  f"error bounds {bounds} vs Q(sqrt(snr/2)) {ref} at snr {snr}")


def check_ml_rate(checks, what, rate, snr, n_trials):
    """Empirical pairwise ML error rate within K_SE binomial SEs of Q(sqrt(snr/2))."""
    q = qfunc_ref(math.sqrt(snr / 2.0))
    se = math.sqrt(q * (1.0 - q) / n_trials)
    checks.expect(abs(rate - q) <= K_SE * se,
                  f"{what} rate {rate:.6g} vs Q {q:.6g} at snr {snr}, se {se:.3g}")
