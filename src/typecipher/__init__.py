"""Type-class source coding with an affine one-time pad over a prime field.

The package builds a fixed-length universal source code from low-entropy
type classes, whitens an i.i.d. key through a random affine map, and adds
the two to form a cipher whose reliability and leakage admit exact
finite-blocklength accounting: error probabilities by type enumeration,
exact mutual information at desk scale from batched transforms on the
cosets of the pad's row space, and certified exponential upper bounds
through the error exponent E(R|p_X) and the security exponent F(R|p_K).
"""

from .cipher import (
    AffineEncoder,
    CipherSystem,
    SearchResult,
    check_decryption_condition,
    derandomize,
    draw_encoder,
    decrypt,
    encoder_to_json,
    encrypt,
    injective_on_members,
    make_encoder,
    n_types,
    omega_divergences,
    pad_law,
    search_score,
    theta_n,
)
from .code import (
    Codebook,
    RatePlan,
    build_codebook,
    codebook_size_margins,
    codebook_to_json,
    decode,
    encode,
    exact_error_prob,
    explicit_m_plan,
    make_rate_plan,
)
from .exponents import (
    ExponentResult,
    admissible_thresholds,
    exponent_E,
    exponent_F,
    exponent_pair,
    positivity_region,
)
from .fields import (
    FieldError,
    FieldSpec,
    all_vectors,
    field_matrix,
    field_vector,
    index_decode,
    index_encode,
    indices_to_vectors,
    vector_from_text,
    vector_to_text,
    vectors_to_indices,
)
from .leakage import (
    BoundCheck,
    ConverseDiagnostics,
    CosetMixture,
    ExactLaws,
    LeakageReport,
    MonteCarloMI,
    SecurityCertificate,
    check_birkhoff,
    converse_diagnostics,
    exact_laws,
    exact_mutual_info,
    monte_carlo_mi,
    security_bound,
    security_bound_curve,
    security_certificate,
    strong_converse_probe,
)
from .simplex import Distribution, entropy, kl_divergence, uniform
from .typeclasses import (
    TypeComposition,
    class_prob,
    class_ranks,
    class_size,
    enumerate_types,
    type_entropy,
    type_of,
)

__version__ = "0.1.0"
