"""
Build a type-class code and encrypt through the affine pad
===========================================================

Walks the full pipeline once at desk scale: pick a rate, build the
codebook, draw a key encoder, and round-trip a message.
"""

from typecipher import (
    CipherSystem,
    FieldSpec,
    build_codebook,
    check_decryption_condition,
    decode,
    decrypt,
    draw_encoder,
    encode,
    encrypt,
    make_rate_plan,
    type_of,
)

# A binary source, blocks of 4 symbols, target rate 0.9 bits/symbol.
spec = FieldSpec(2)
plan = make_rate_plan(4, 0.9, spec)
print(f"n={plan.n}  R={plan.R}  overhead gamma_n={plan.gamma_n:.4f}")
print(f"operating rate R_n={plan.R_n:.4f}  ->  codeword length m={plan.m}")

# The codebook admits exactly the sequences whose empirical type has
# entropy below the target rate; everything else maps to the flag word.
cb = build_codebook(plan)
print(f"\nmember types: {[t.counts for t in cb.member_types]}")
print(f"error types:  {[t.counts for t in cb.error_types]}")
print(f"{cb.member_count} member sequences out of {2 ** plan.n}")

x = (0, 0, 0, 1)
w = encode(cb, x)
print(f"\nencode{x} -> codeword index {w}  (type {type_of(x, spec).counts})")
print(f"decode back: {decode(cb, w)}")

# an atypical block lands on the all-zero flag word and decodes to the
# designated default
bad = (0, 1, 1, 0)
print(f"encode{bad} -> {encode(cb, bad)}  decodes to {decode(cb, encode(cb, bad))}")

# Key side: the raw key block is whitened by k -> kA + b before padding.
enc = draw_encoder(plan, seed=7)
sys_ = CipherSystem(codebook=cb, key_encoder=enc)
k = (1, 0, 1, 1)
c = encrypt(sys_, k, x)
print(f"\nkey {k}  ciphertext {c}")
print(f"decrypt: {decrypt(sys_, k, c)}")

# The contract holds for every key/message pair at this scale.
print(f"\ndecryption condition over all 2^{2 * plan.n} pairs:",
      check_decryption_condition(sys_))
