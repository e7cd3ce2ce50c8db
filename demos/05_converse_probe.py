"""
Converse-side diagnostics and the strong-converse probe
=======================================================

Two ways of seeing that the key rate cannot be squeezed below the source
entropy: measured inequalities on a concrete small system, and the error
blow-up of the best possible code compressing below entropy.
"""

from typecipher import (
    CipherSystem,
    Distribution,
    build_codebook,
    converse_diagnostics,
    derandomize,
    entropy,
    exact_laws,
    FieldSpec,
    make_rate_plan,
    strong_converse_probe,
    uniform,
)

spec = FieldSpec(2)
plan = make_rate_plan(4, 0.9, spec)
cb = build_codebook(plan)
search = derandomize(plan, base_seed=0)
sys_ = CipherSystem(codebook=cb, key_encoder=search.encoder)

p_X = Distribution([0.9, 0.1])
d = converse_diagnostics(exact_laws(sys_, p_X, uniform(2), search), gamma=0.1)

print(f"typicality miss nu_n      = {d.nu_n:.4f}")
print(f"decoding error eps        = {d.measured_eps:.4f}")
print(f"retained mass Q           = {d.coverage:.4f} "
      f"(floor {d.coverage_floor:.4f})")
print(f"leakage delta             = {d.measured_delta:.4f}")
print(f"\nconditioned-ciphertext peak  {d.max_conditional:.6f} "
      f"<= cap {d.conditional_cap:.6f}: {d.peak_ok}")
print(f"conditioned entropy          {d.h_cond_ciphertext:.4f} "
      f">= floor {d.entropy_floor:.4f}: {d.entropy_floor_ok}")
print(f"pad entropy                  {d.h_pad:.4f} "
      f"<= nH(K) = {d.pad_entropy_cap:.4f}: {d.pad_entropy_cap_ok}")
print(f"amplified leakage            {d.conditional_mi:.4f} "
      f"<= {d.amplified_mi:.4f}: {d.mi_amplification_ok}")

# The conclusion that survives at finite n: the key entropy rate clears
# H(X) minus slack terms that vanish as n grows.
print(f"\nH(K) = {d.h_k:.4f} >= {d.key_rate_proof_rhs:.4f}: "
      f"{d.key_rate_proof_holds}")

# Below-entropy compression fails catastrophically: the best fixed-size
# code keeps losing mass as blocks grow.
p = Distribution([0.7, 0.3])
print(f"\ncompressing H={entropy(p):.4f} source at R=0.6:")
print(f"{'n':>4}  {'kept codewords':>14}  {'error':>8}")
for row in strong_converse_probe(p, 0.6, [4, 8, 12, 16, 20]):
    print(f"{row['n']:4d}  {2 ** row['log2_size']:14d}  {row['error']:8.4f}")
