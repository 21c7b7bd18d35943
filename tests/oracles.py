"""Independent reference implementations used to pin expected values.

Everything here is written as straight-line scalar code on purpose: these
oracles must not share arithmetic shortcuts with the implementations they
check.
"""

import math


def naive_mlp_forward(spec, x):
    """Scalar triple-loop MLP forward pass in plain Python floats."""
    h = [float(v) for v in x]
    last = len(spec.weights) - 1
    for l, (w, b) in enumerate(zip(spec.weights, spec.biases)):
        rows, cols = w.shape
        out = []
        for r in range(rows):
            acc = float(b[r])
            for c in range(cols):
                acc += float(w[r, c]) * h[c]
            out.append(acc)
        if l < last and spec.activation == "relu":
            out = [v if v > 0.0 else 0.0 for v in out]
        h = out
    return h


def naive_attention_forward(spec, query, context):
    """Unfused scalar multi-head attention, layer by layer."""

    def matvec(m, v):
        return [sum(float(m[r, c]) * v[c] for c in range(len(v))) for r in range(m.shape[0])]

    d = spec.model_dim
    hd = spec.head_dim
    scale = 1.0 / math.sqrt(hd)
    out = [float(v) for v in query]
    for l in range(spec.layers):
        q = matvec(spec.wq[l], out)
        ks = [matvec(spec.wk[l], [float(v) for v in c]) for c in context]
        vs = [matvec(spec.wv[l], [float(v) for v in c]) for c in context]
        merged = [0.0] * d
        for head in range(spec.heads):
            lo = head * hd
            scores = [
                sum(q[lo + t] * k[lo + t] for t in range(hd)) * scale for k in ks
            ]
            m = max(scores)
            exps = [math.exp(s - m) for s in scores]
            z = sum(exps)
            weights = [e / z for e in exps]
            for t in range(hd):
                merged[lo + t] = sum(w * v[lo + t] for w, v in zip(weights, vs))
        out = matvec(spec.wo[l], merged)
    return out


def naive_diff_sum(g, self_feature, neighbors):
    """Per-neighbor loop over the pairwise network; float accumulation."""
    acc = [0.0] * g.output_dim
    for n in neighbors:
        delta = [float(a) - float(b) for a, b in zip(n, self_feature)]
        out = naive_mlp_forward(g, delta)
        acc = [a + o for a, o in zip(acc, out)]
    return acc


def binomial_three_sigma_pct(p: float, n: int) -> float:
    """3-sigma half-width, in percent, for an empirical loss estimate."""
    return 300.0 * math.sqrt(p * (1.0 - p) / n)


def binomial_central_interval(n: int, p: float, level: float) -> tuple[int, int]:
    """Counts (lo, hi) with P(X < lo) <= a and P(X > hi) <= a, a = (1 - level) / 2.

    X ~ Binomial(n, p); the tails are summed term by term from the exact pmf.
    """
    alpha = (1.0 - level) / 2.0
    cdf = 0.0
    lo = None
    for k in range(n + 1):
        cdf += math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        if lo is None and cdf > alpha:
            lo = k
        if cdf >= 1.0 - alpha:
            return lo, k
    return lo, n
