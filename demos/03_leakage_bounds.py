"""
Exact leakage against the bound chain
=====================================

At n = 4 everything is enumerable, so the mutual information between
ciphertext and plaintext is computed exactly and compared term by term
with the chain of upper bounds that caps it.
"""

from typecipher import (
    CipherSystem,
    Distribution,
    FieldSpec,
    build_codebook,
    derandomize,
    exact_laws,
    exact_mutual_info,
    make_rate_plan,
    monte_carlo_mi,
    security_bound_curve,
    security_certificate,
    uniform,
)

spec = FieldSpec(2)
plan = make_rate_plan(4, 0.9, spec)
cb = build_codebook(plan)
search = derandomize(plan, base_seed=0)
sys_ = CipherSystem(codebook=cb, key_encoder=search.encoder)

p_X = Distribution([0.9, 0.1])
p_K = uniform(2)

# One handle carries the system, both laws and the encoder search, so the
# pad law is computed once for every figure below.
laws = exact_laws(sys_, p_X, p_K, search)
report = exact_mutual_info(laws)
print(f"I(C;X) exact          = {report.mi_exact:.6e}")
print(f"pad divergence        = {report.pad_divergence:.6e}")
print(f"typewise bound        = {report.typewise_bound:.6e}")
print(f"closed-form bound     = {report.security_bound:.6e}")
print(f"(security exponent F  = {report.f_exponent:.4f})")

# The certificate spells out every step with its margin.
cert = security_certificate(laws)
print(f"\ncertificate passed: {cert.passed}")
for check in cert.checks:
    print(f"  {check.name:30s} {check.lhs:12.6e} <= {check.rhs:12.6e}")

# A sampling estimate agrees with the exact value within its own error
# bars — useful at scales where enumeration is off the table.
est = monte_carlo_mi(sys_, p_X, p_K, samples=5000, seed=1)
print(f"\nMonte Carlo: {est.estimate:.4f} +/- {est.std_error:.4f} "
      f"(exact {report.mi_exact:.4f})")

# The closed-form bound trades a polynomial prefactor against the 2^{-nF}
# decay, so the raw log can grow at small n — the per-symbol rate is the
# column that falls, and it is what vanishes in the long-block limit.
print(f"\n{'n':>4}  {'log2 bound':>12}  {'per symbol':>12}")
for row in security_bound_curve(0.9, p_K, [4, 8, 12, 16, 24, 32]):
    print(f"{row['n']:4d}  {row['log2_bound']:12.4f}  {row['per_symbol']:12.6f}")
